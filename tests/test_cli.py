"""End-to-end exercises of the command-line front end."""

import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
import time
from math import gcd, isqrt

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocayley import abelian, cayley, cli, ecgraph, ntheory, pathfind, quadform, walks
from isocayley.cli import ARTIFACT_SCHEMAS, main, schema_for
from isocayley.errors import InputError, PreconditionError, TrialCapError
from isocayley.ntheory import kronecker

Z9 = "invariants: 9\n"
Z12_WITH_SUB = "invariants: 12\nsubgroup even: 2\n"


@pytest.fixture
def z9(tmp_path):
    f = tmp_path / "z9.grp"
    f.write_text(Z9)
    return str(f)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json_line(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


def test_classgroup_minus_23(capsys):
    rc, out, err = run(capsys, ["classgroup", "-D", "-23"])
    assert rc == 0
    data = json.loads(out)
    assert data["invariants"] == [3]
    assert data["order"] == 3
    jsonschema.validate(data, schema_for("classgroup"))
    manifest = last_json_line(err)
    jsonschema.validate(manifest, schema_for("manifest"))
    assert manifest["subcommand"] == "classgroup"
    assert manifest["parameters"]["disc"] == -23


def test_classgroup_rejects_non_discriminant(capsys):
    rc, _, err = run(capsys, ["classgroup", "-D", "-13"])
    assert rc == 2
    assert "error (input)" in err


def test_classgroup_bound_is_a_precondition(capsys):
    rc, _, err = run(capsys, ["classgroup", "-D", str(-(10**7) - 3)])
    assert rc == 3
    assert "error (precondition)" in err


@pytest.mark.parametrize("argv", [
    ["classgroup", "-D", "60"],
    ["spectrum", "-D", "1229", "--bound", "50"],
])
def test_positive_discriminant_is_a_precondition(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 3
    assert "Traceback" not in out + err
    assert err.startswith("error (precondition):") and err.count("\n") == 1


def test_spectrum_triangle(capsys):
    rc, out, _ = run(capsys, ["spectrum", "-D", "-23", "--bound", "3"])
    assert rc == 0
    data = json.loads(out)
    jsonschema.validate(data, schema_for("spectrum"))
    assert data["order"] == 3 and data["degree"] == 2
    assert [round(v) for v in data["eigenvalues"]] == [2, -1, -1]
    assert abs(data["delta2"] - 0.5) < 1e-12
    assert data["expander_bound"] == 3
    assert data["graph"]["vertices"][0] == "1:1:6"


def test_spectrum_csv_and_dot(capsys):
    rc, out, _ = run(capsys, ["spectrum", "-D", "-23", "--bound", "3", "--format", "csv"])
    assert rc == 0
    assert out.startswith("B,lambda_triv,")
    rc, out, _ = run(capsys, ["spectrum", "-D", "-23", "--bound", "3", "--format", "dot"])
    assert rc == 0
    assert out.startswith("graph ") and 'label="2:1"' in out


def test_spectrum_needs_bound_with_disc(capsys):
    rc, _, err = run(capsys, ["spectrum", "-D", "-23"])
    assert rc == 2
    assert "--bound" in err


def test_spectrum_group_file_has_no_scan(capsys, z9):
    rc, out, _ = run(capsys, ["spectrum", "--group-file", z9, "--gens", "1"])
    assert rc == 0
    data = json.loads(out)
    jsonschema.validate(data, schema_for("spectrum"))
    assert "expander_bound" not in data
    assert data["degree"] == 2  # the missing inverse was added
    rc, _, err = run(capsys, ["spectrum", "--group-file", z9, "--gens", "1", "--format", "csv"])
    assert rc == 2
    assert "discriminant source" in err


def test_mix_report(capsys, z9):
    rc, out, _ = run(
        capsys,
        ["mix", "--group-file", z9, "--gens", "1,2", "--target", "3,4",
         "--trials", "500", "--seed", "7"],
    )
    assert rc == 0
    data = json.loads(out)
    jsonschema.validate(data, schema_for("mix"))
    assert data["verdict"] == "PASS"
    assert data["config"]["target"] == ["3", "4"]
    assert data["exact_probability"] is not None  # |H| = 9 <= 64


@pytest.mark.parametrize("target", ["2:1:9,2:1:9", "2:1:9,2:5:12"])
def test_mix_rejects_a_repeated_target_vertex(capsys, target):
    # 2:5:12 is another spelling of the class 2:1:9
    rc, out, err = run(capsys, ["mix", "-D", "-71", "--bound", "30", "--target", target,
                                "--trials", "2000", "--seed", "1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error (input):") and err.count("\n") == 1


def test_mix_makes_one_character_pass(capsys, monkeypatch, z9):
    passes = []
    real = walks.spectrum_by_characters
    monkeypatch.setattr(walks, "spectrum_by_characters",
                        lambda graph: passes.append(1) or real(graph))
    rc, out, _ = run(capsys, ["mix", "--group-file", z9, "--gens", "1,2",
                              "--target", "3", "--trials", "200"])
    assert rc == 0
    assert len(passes) == 1
    data = json.loads(out)
    assert data["config"]["length"] == data["length_lemma"]


def test_mix_when_one_step_is_uniform(capsys, tmp_path):
    # the spectral gap is complete (c = 0), so the mixing length is 1
    z2 = tmp_path / "z2.grp"
    z2.write_text("invariants: 2\n")
    z4x12 = tmp_path / "z4x12.grp"
    z4x12.write_text("invariants: 4 12\n")
    for argv in (["mix", "--group-file", str(z2), "--gens", "0,1", "--target", "1"],
                 ["mix", "--group-file", str(z4x12), "--gens", "0:0", "--target", "0:0"]):
        rc, out, err = run(capsys, argv + ["--trials", "200"])
        assert rc == 0, err
        data = json.loads(out)
        assert data["length_lemma"] == 1 and data["config"]["length"] == 1
    rc, _, err = run(capsys, ["mix", "--group-file", str(z2), "--gens", "0,1",
                              "--target", "1", "--length", "0"])
    assert rc == 3
    assert "error (precondition)" in err


def test_path_then_verify_round_trip(capsys, tmp_path, z9):
    outdir = tmp_path / "run"
    rc, _, _ = run(
        capsys,
        ["path", "--group-file", z9, "--gens", "1,2", "-A", "id", "-B", "5",
         "--seed", "3", "--out", str(outdir)],
    )
    assert rc == 0
    cert_file = outdir / "certificate.json"
    cert = json.loads(cert_file.read_text())
    jsonschema.validate(cert, schema_for("certificate"))
    assert cert["start"] == "0" and cert["end"] == "5"

    rc, out, _ = run(capsys, ["verify", "--group-file", z9, "--gens", "1,2", str(cert_file)])
    assert rc == 0
    verdict = json.loads(out)
    jsonschema.validate(verdict, schema_for("verify"))
    assert verdict["valid"] is True


def test_verify_flipped_flag_fails(capsys, tmp_path, z9):
    outdir = tmp_path / "run"
    run(capsys, ["path", "--group-file", z9, "--gens", "1,2", "-A", "id", "-B", "5",
                 "--seed", "3", "--out", str(outdir)])
    cert = json.loads((outdir / "certificate.json").read_text())
    cert["steps"][0][1] = not cert["steps"][0][1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    rc, out, _ = run(capsys, ["verify", "--group-file", z9, "--gens", "1,2", str(bad)])
    assert rc == 1
    assert json.loads(out)["valid"] is False


def test_verify_garbage_certificate(capsys, tmp_path, z9):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, ["verify", "--group-file", z9, "--gens", "1,2", str(bad)])
    assert rc == 2
    assert "not JSON" in err


@pytest.fixture(scope="module")
def readme_cert(tmp_path_factory):
    """README's certificate, as text: path -D -8011 --bound 20 -A id -B 5:3:401 --seed 3."""
    out = tmp_path_factory.mktemp("readme") / "run1"
    argv = ["path", "-D", "-8011", "--bound", "20", "-A", "id", "-B", "5:3:401",
            "--seed", "3", "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return (out / "certificate.json").read_text()


def _mistype(cert: dict, how: str) -> None:
    if how == "flag-string":  # bool("false") once replayed the step inverted
        cert["steps"][0][1] = "false"
    elif how == "fractional-length":  # int(8.9) once accepted 8
        cert["length"] += 0.9
    elif how == "bool-length":  # int(True) once read as 1
        cert["steps"], cert["length"] = cert["steps"][:1], True
    elif how == "label-number":
        cert["steps"][0][0] = 19
    else:  # three-item step
        cert["steps"][0].append(False)


@pytest.mark.parametrize("how", ["flag-string", "fractional-length", "bool-length",
                                 "label-number", "three-item-step"])
@pytest.mark.parametrize("route", ["prime-forms", "graph"])
def test_verify_rejects_mistyped_certificates(capsys, tmp_path, z9, readme_cert, route, how):
    """Flags must be JSON booleans, labels strings, steps pairs and the
    length an int that is not a bool; anything else exits 2 on both routes."""
    if route == "prime-forms":
        source, text = ["-D", "-8011", "--bound", "20"], readme_cert
    else:
        source = ["--group-file", z9, "--gens", "1,2"]
        run(capsys, ["path", *source, "-A", "id", "-B", "5", "--seed", "3",
                     "--out", str(tmp_path / "run")])
        text = (tmp_path / "run" / "certificate.json").read_text()
    good = tmp_path / "good.json"
    good.write_text(text)
    assert run(capsys, ["verify", *source, str(good)])[0] == 0
    cert = json.loads(text)
    _mistype(cert, how)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    rc, _, err = run(capsys, ["verify", *source, str(bad)])
    assert rc == 2, err
    assert err.startswith("error (input): malformed certificate")


@pytest.mark.parametrize("command, text, want", [
    ("verify", b"\xff", "certificate {} is not UTF-8"),
    ("spectrum", b"invariants: 4\n\xff\n", "group file {} is not UTF-8"),
    ("verify", b"null", "malformed certificate: expected a JSON object"),
    ("verify", b"[1, 2]", "malformed certificate: expected a JSON object"),
], ids=["certificate-bytes", "group-file-bytes", "certificate-null", "certificate-list"])
def test_unreadable_input_files_exit_2(capsys, tmp_path, command, text, want):
    """Bytes that are not UTF-8, in a certificate or a group file, and a
    certificate that is JSON but no object, are input errors: exit 2 with
    one stderr line that names the file or the fault."""
    path = tmp_path / "input"
    path.write_bytes(text)
    if command == "verify":
        argv = ["verify", str(path), "-D", "-8011", "--bound", "20"]
    else:
        argv = ["spectrum", "--group-file", str(path), "--gens", "1"]
    rc, _, err = run(capsys, argv)
    assert rc == 2, err
    assert err.startswith(f"error (input): {want.format(path)}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("source, argv, want", [
    (None, ["path", "-D", "-23", "--bound", "10", "-A", "1:1:1", "-B", "id"],
     "vertex '1:1:1' has discriminant -3, expected -23"),
    ("invariants: 4 12\n", ["path", "--gens", "2:0", "-A", "0:0", "-B", "1:0"],
     "vertex '1:0' lies outside the graph's subgroup"),
    ("invariants: 4 12\n", ["mix", "--gens", "2:0", "--start", "0:1", "--target", "0:0"],
     "vertex '0:1' lies outside the graph's subgroup"),
    (None, ["path", "-D", "-56", "--bound", "10", "--gens", "2:0:7", "-A", "id", "-B", "3:2:5"],
     "vertex '3:2:5' lies outside the graph's subgroup"),  # Cl(-56) = Z/4, 2:0:7 of order 2
    (None, ["path", "-D", "-12", "--bound", "10", "-A", "2:2:2", "-B", "id"],
     "vertex '2:2:2' is not a primitive form"),
    ("invariants: 4 12\n", ["path", "--gens", "2:0", "-A", "0:0:0", "-B", "id"],
     "vertex '0:0:0': expected 2 coordinates"),
    (None, ["path", "-D", "-23", "--bound", "10", "-A=-1:1:-6", "-B", "id"],
     "vertex '-1:1:-6' is not positive definite"),
    ("invariants: 4 12\n", ["path", "--gens", "0:0:0", "-A", "id", "-B", "id"],
     "--gens: vector '0:0:0': expected 2 coordinates"),
    (None, ["path", "-D", "-23", "--bound", "10", "-A", "1:y:6", "-B", "id"],
     "vertex '1:y:6': expected integers separated by ':'"),
], ids=["wrong-discriminant", "outside-subgroup", "mix-start", "outside-form-subgroup",
        "imprimitive", "wrong-rank", "negative-definite", "gens-wrong-rank", "not-integers"])
def test_vertex_spec_naming_no_vertex_is_quoted(capsys, tmp_path, source, argv, want):
    """A vertex spec that names no vertex of the graph exits 2 with the
    spec quoted as given, not a QuadForm or GroupElement repr."""
    if source is not None:
        path = tmp_path / "g.grp"
        path.write_text(source)
        argv = [argv[0], "--group-file", str(path), *argv[1:]]
    rc, _, err = run(capsys, argv)
    assert rc == 2, err
    assert err == f"error (input): {want}\n"
    assert "QuadForm(" not in err and "GroupElement(" not in err


@pytest.mark.parametrize("argv, want", [
    (["path", "-D", "-12", "--bound", "10", "--gens", "2:2:2", "-A", "id", "-B", "id"],
     "--gens: form '2:2:2' is not a primitive form"),
    (["mix", "-D", "-12", "--bound", "10", "--gens", "2:2:2", "--target", "id"],
     "--gens: form '2:2:2' is not a primitive form"),
    (["path", "-D", "-23", "--bound", "10", "--gens=-1:1:-6", "-A", "id", "-B", "id"],
     "--gens: form '-1:1:-6' is not positive definite"),
    (["path", "-D", "-23", "--bound", "10", "--gens", "1:1:1", "-A", "id", "-B", "id"],
     "--gens: form '1:1:1' has discriminant -3, expected -23"),
    (["path", "-D", "-23", "--bound", "10", "--gens", "1:x:1", "-A", "id", "-B", "id"],
     "--gens: form '1:x:1': expected integers separated by ':'"),
], ids=["path-imprimitive", "mix-imprimitive", "negative-definite", "wrong-discriminant",
        "not-integers"])
def test_gens_form_naming_no_class_is_quoted(capsys, argv, want):
    """A --gens form of the right discriminant that names no class exits 2
    with the form quoted as given, not a form or element repr."""
    rc, _, err = run(capsys, argv)
    assert rc == 2, err
    assert err == f"error (input): {want}\n"


HUGE_D = -(10**30) - 7  # 1 mod 4, so shaped like a discriminant


@pytest.mark.parametrize("disc, code", [(HUGE_D, 3), (HUGE_D + 1, 2)], ids=["bound", "not-a-disc"])
@pytest.mark.parametrize("argv", [["classgroup"], ["spectrum", "--bound", "50"],
                                  ["verify", "missing.json", "--bound", "20"]],
                         ids=["classgroup", "spectrum", "verify"])
def test_huge_discriminant_is_refused_before_factoring(capsys, monkeypatch, argv, disc, code):
    """The O(1) checks of D run before D is factored: a 31-digit D exits at
    once (trial division of it ran for minutes)."""
    def unreachable(d):
        raise AssertionError(f"{d} was factored")

    monkeypatch.setattr(quadform, "fundamental_discriminant", unreachable)
    start = time.perf_counter()
    rc, _, err = run(capsys, [*argv, "-D", str(disc)])
    assert time.perf_counter() - start < 1
    assert rc == code, err
    assert ("exceeds the configured bound" if code == 3 else "is not a discriminant") in err


# verify on all of Cl(D) replays by composing prime forms, without a graph
BENCH_SOURCE = ["-D", "-9999991", "--bound", "50"]  # h = 1715, cyclic; 16 prime forms


@pytest.fixture(scope="module")
def cert_9999991(tmp_path_factory):
    out = tmp_path_factory.mktemp("cert") / "run"
    argv = ["path", *BENCH_SOURCE, "-A", "id", "-B", "368:291:6851", "--seed", "5", "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return str(out / "certificate.json")


def test_verify_by_prime_forms_builds_no_group(capsys, monkeypatch, cert_9999991):
    def unreachable(*args, **kwargs):
        raise AssertionError("verify built the class group or the graph")

    counted = []
    count = quadform.class_number
    monkeypatch.setattr(quadform, "class_group", unreachable)
    monkeypatch.setattr(abelian, "structure_of", unreachable)
    monkeypatch.setattr(quadform, "structure_of", unreachable)
    monkeypatch.setattr(cayley, "build", unreachable)
    monkeypatch.setattr(quadform, "class_number", lambda d: counted.append(d) or count(d))
    rc, out, err = run(capsys, ["verify", *BENCH_SOURCE, cert_9999991])
    assert rc == 0, err
    assert json.loads(out)["valid"] is True
    assert counted == []  # 16 slots x h_max 18,237 is under the slot cap
    # 454 slots x h_max is over the cap, so h is counted; 454 x 1,715 is under it
    rc, out, err = run(capsys, ["verify", "-D", "-9999991", "--bound", "3000", cert_9999991])
    assert rc == 0, err
    assert json.loads(out)["valid"] is True
    assert counted == [-9999991]


@pytest.mark.parametrize("source, says", [
    (["-D", "-23", "--bound", str(quadform.PRIME_BOUND_CAP + 1)], "exceeds the cap"),
    (["-D", str(-(10**7) - 3), "--bound", "50"], "exceeds the configured bound"),
    (["-D", "-163", "--bound", "41"], "no prime form below 41"),  # 2, ..., 37 are inert
    (["-D", "-9999991", "--bound", "100000"], "adjacency slots"),  # 1,715 x 9,672 slots
], ids=["prime-bound", "disc-bound", "empty-S_B", "slot-cap"])
def test_verify_preconditions_come_before_the_certificate(capsys, tmp_path, source, says):
    rc, _, err = run(capsys, ["verify", *source, str(tmp_path / "missing.json")])
    assert rc == 3, err
    assert err.startswith("error (precondition):") and says in err


def _outcome(call):
    """What a replay returns, or the class of what it raises."""
    try:
        return call()
    except Exception as e:  # the two routes must refuse with the same class
        return type(e)


def _non_primitive_reduced(d: int) -> str | None:
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, rem = divmod(b * b - d, 4 * a)
            if not rem and c >= a and (b >= 0 or c > a) and gcd(a, b, c) > 1:
                return f"{a}:{b}:{c}"
    return None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 3000).map(lambda n: -n).filter(lambda d: d % 4 in (0, 1)),
       st.integers(-2, 60), st.data())
def test_verify_by_prime_forms_matches_the_graph_replay(d, bound, data):
    """The replay by composition agrees with the replay on the step table, on
    certificates from the path search and on tampered copies of them."""
    args = cli.build_parser().parse_args(["verify", "-D", str(d), "--bound", str(bound), "c"])
    graph = _outcome(lambda: cli._build_graph(args).graph)
    by_forms = _outcome(lambda: cli._prime_form_steps(args))
    if isinstance(graph, type):
        assert by_forms is graph
        return
    _, steps = by_forms
    index = st.integers(0, graph.order - 1)
    a = data.draw(index)
    b = data.draw(st.sampled_from(np.flatnonzero(cayley.component_of(graph, a)).tolist()))
    try:
        cert, _ = pathfind.find_path(graph, graph.vertices[a], graph.vertices[b], seed=7)
    except (PreconditionError, TrialCapError):  # h < 9, or walks that cannot meet
        cert = pathfind.exhaustive_path(graph, graph.vertices[a], graph.vertices[b])
    doc = pathfind.certificate_to_json(cert, graph)
    moves = doc["steps"]

    def with_step(i, label, inverted=False):
        return {**doc, "steps": moves[:i] + [[label, inverted]] + moves[i + 1:],
                "length": len(moves[:i]) + 1 + len(moves[i + 1:])}

    tampered = [{**doc, "end": graph.names[data.draw(index)]}]
    canonical = []
    if moves:
        i = data.draw(st.integers(0, len(moves) - 1))
        label, inverted = moves[i]
        tampered.append(with_step(i, label, not inverted))
        tampered.append({**doc, "steps": moves[:i] + moves[i + 1:], "length": len(moves) - 1})
        ell, _, root = label.partition(":")
        canonical += [with_step(i, "+" + label, inverted), with_step(i, "0" + label, inverted)]
        if root:
            canonical.append(with_step(i, f"{ell}:0{root}", inverted))
    # labels that a larger bound, the Kronecker symbol or the conductor rule out
    ruled_out = [lbl for lbl, ell, _, _ in quadform.prime_forms(d, max(bound, 2) + 60)
                 if ell >= bound][:2]
    f = quadform.Discriminant.of(d).conductor
    for ell in ntheory.primes_below(max(bound, 2)):
        if kronecker(d, ell) == -1 or f % ell == 0:
            ruled_out += [str(ell), f"{ell}:1"]
    tampered += [with_step(len(moves), label) for label in ruled_out[:6]]
    x, y, z = map(int, doc["start"].split(":"))
    starts = [f"{x}:{y + 2 * x}:{x + y + z}", _non_primitive_reduced(d)]
    tampered += [{**doc, "start": start} for start in starts if start is not None]
    canonical += [{**doc, "start": "0" + doc["start"]}, {**doc, "start": "+" + doc["start"]},
                  {**doc, "start": f"{x}:+{y}:{z}"}]
    named = functools.partial(quadform.form_named, d)
    for k, cert_doc in enumerate([doc, *tampered, *canonical]):
        want = _outcome(lambda: pathfind.replay(
            graph, pathfind.certificate_from_json(cert_doc, graph.vertex_named)))
        got = _outcome(lambda: pathfind.replay_forms(
            steps, pathfind.certificate_from_json(cert_doc, named)))
        assert got == want, cert_doc
        if k == 0:
            assert want is True
        elif k > len(tampered):
            assert want is InputError, cert_doc


def test_named_subgroup_membership_enforced(capsys, tmp_path):
    f = tmp_path / "z12.grp"
    f.write_text(Z12_WITH_SUB)
    rc, out, _ = run(
        capsys,
        ["spectrum", "--group-file", str(f), "--gens", "2,4", "--subgroup", "even"],
    )
    assert rc == 0
    assert json.loads(out)["order"] == 6
    rc, _, err = run(
        capsys,
        ["spectrum", "--group-file", str(f), "--gens", "3", "--subgroup", "even"],
    )
    assert rc == 2
    assert "outside subgroup" in err


CL_8011 = ["-D", "-8011", "--bound", "20", "--seed", "3"]
TWO_VERTICES = "5:3:401,7:5:287"


@pytest.mark.parametrize("argv", [
    ["path", *CL_8011, "-A", "id", "-B", TWO_VERTICES],
    ["path", *CL_8011, "-A", TWO_VERTICES, "-B", "id"],
    ["mix", *CL_8011, "--start", TWO_VERTICES, "--target", "id", "--trials", "10"],
], ids=["-B", "-A", "--start"])
def test_vertex_spec_names_one_vertex(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2, out
    assert "expected one vertex" in err


@pytest.mark.parametrize("spelling", ["5:13:409", "401:-3:5"])
def test_unreduced_vertex_gives_the_reduced_certificate(capsys, spelling):
    rc, want, _ = run(capsys, ["path", *CL_8011, "-A", "id", "-B", "5:3:401"])
    assert rc == 0
    rc, got, _ = run(capsys, ["path", *CL_8011, "-A", "id", "-B", spelling])
    assert rc == 0
    assert got == want


def test_unreduced_generator_gives_the_reduced_spectrum(capsys):
    rc, want, _ = run(capsys, ["spectrum", *CL_8011, "--gens", "5:3:401"])
    assert rc == 0
    rc, got, _ = run(capsys, ["spectrum", *CL_8011, "--gens", "5:13:409"])
    assert rc == 0
    assert got == want


def test_ecgraph_comparison(capsys):
    rc, out, _ = run(capsys, ["ecgraph", "-p", "31", "-t", "3", "-L", "5,7"])
    assert rc == 0
    data = json.loads(out)
    jsonschema.validate(data, schema_for("ecgraph"))
    assert data["comparison"]["verdict"] == "PASS"
    assert data["class_number"] == 2
    assert data["graph"]["generators"] == ["5", "7:4", "7:6"]
    assert sorted(data["graph"]["vertices"]) == ["27", "8"]


def test_ecgraph_dot_names_vertices_by_j(capsys):
    rc, out, _ = run(capsys, ["ecgraph", "-p", "31", "-t", "3", "-L", "7",
                              "--format", "dot"])
    assert rc == 0
    assert 'label="8"' in out and 'label="27"' in out


def test_ecgraph_even_degree_rejected(capsys):
    rc, _, err = run(capsys, ["ecgraph", "-p", "31", "-t", "3", "-L", "2"])
    assert rc == 3
    assert "odd prime" in err


def test_degree_cap_checked_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the degree cap was checked")

    monkeypatch.setattr(ecgraph, "enumerate_isogeny_class", unreachable)
    monkeypatch.setattr(ecgraph, "division_polys", unreachable)
    monkeypatch.setattr(ecgraph, "_count", unreachable)  # no curve is counted either
    too_big = ecgraph.DEGREE_CAP + 6  # 37, an odd prime
    for cmd in ("ecgraph", "dlpdemo"):
        rc, _, err = run(capsys, [cmd, "-p", "9973", "-t", "1", "-L", f"5,{too_big}"])
        assert rc == 3
        assert "cap" in err


def test_empty_degree_list_rejected_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a point was counted for an -L with no degree")

    monkeypatch.setattr(ecgraph, "_count", unreachable)
    for cmd in ("ecgraph", "dlpdemo"):
        for ells in (",", "", " , "):
            rc, out, err = run(capsys, [cmd, "-p", "9973", "-t", "1", "-L", ells])
            assert rc == 2 and out == ""
            assert len(err.splitlines()) == 1 and "-L" in err


def test_prime_bound_cap_checked_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the prime-bound cap was checked")

    for mod in (ntheory, quadform, cayley):
        monkeypatch.setattr(mod, "primes_below", unreachable)
    monkeypatch.setattr(quadform, "class_group", unreachable)
    too_big = str(quadform.PRIME_BOUND_CAP + 1)
    for argv in (
        ["spectrum", "-D", "-23", "--bound", too_big],
        ["spectrum", "-D", "-23", "--bound", str(10**10)],
        ["mix", "-D", "-23", "--bound", too_big, "--target", "id"],
        ["path", "-D", "-23", "--bound", too_big, "-A", "id", "-B", "id"],
    ):
        rc, _, err = run(capsys, argv)
        assert rc == 3
        assert "cap" in err


def test_draws_cap_checked_before_walking(capsys, monkeypatch, z9):
    def unreachable(*args, **kwargs):
        raise AssertionError("walks were drawn before the draws cap was checked")

    monkeypatch.setattr(walks, "_endpoints", unreachable)
    over = str(walks.MAX_DRAWS + 1)
    for extra in (["--trials", str(walks.MAX_DRAWS // 5 + 1), "--length", "5"],
                  ["--trials", "1", "--length", over],
                  ["--trials", over]):  # at the resolved mixing length
        rc, _, err = run(capsys, ["mix", "--group-file", z9, "--gens", "1,2",
                                  "--target", "3", *extra])
        assert rc == 3
        assert "cap" in err


def test_dlpdemo_transcript(capsys):
    rc, out, _ = run(capsys, ["dlpdemo", "-p", "31", "-t", "3", "-L", "7", "--seed", "5"])
    assert rc == 0
    data = json.loads(out)
    jsonschema.validate(data, schema_for("dlpdemo"))
    assert data["verified"] is True
    assert data["recovered_r"] == data["planted_r"]


def test_dlpdemo_never_imports_numpy_random(tmp_path, subprocess_env):
    """dlpdemo draws from walks.PhiloxGenerator, so a fresh interpreter that
    runs README's dlpdemo never loads numpy.random."""
    code = (
        "import sys\n"
        "from isocayley import cli\n"
        f"rc = cli.main(['dlpdemo', '-p', '2003', '-t', '1', '-L', '5,7', '--out', {str(tmp_path)!r}])\n"
        "print(rc, 'numpy.random' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=subprocess_env)
    assert r.stdout.split() == ["0", "False"], r.stderr
    assert json.loads((tmp_path / "dlpdemo.json").read_text())["verified"] is True


def test_dlpdemo_planted_override(capsys):
    rc, out, _ = run(capsys, ["dlpdemo", "-p", "31", "-t", "3", "-L", "7",
                              "--seed", "5", "--planted", "11"])
    assert rc == 0
    assert json.loads(out)["planted_r"] == 11


def test_reruns_are_byte_identical(tmp_path, subprocess_env):
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "isocayley.cli", "dlpdemo", "-p", "31", "-t", "3",
             "-L", "7", "--seed", "9", "--out", str(d)],
            capture_output=True, env=subprocess_env,
        )
        assert r.returncode == 0, r.stderr
        dirs.append(d)
    a, b = dirs
    files = sorted(f.name for f in a.iterdir())
    assert files == sorted(f.name for f in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("disc, digest", [
    (-9999959, "4a566eca8896da62c5d52aa27380b1dd60835a4bc3489509a0720b5218bfe36c"),  # h = 4,314
    (-9999960, "0853d3dd18cc6a4e821ee72e8e147c0d992a1de6f0685d666dacab0ee2794fa4"),  # rank 4
], ids=["h4314", "rank4"])
def test_classgroup_bytes_at_the_discriminant_cap(tmp_path, capsys, disc, digest):
    """The golden matrix pins one small Cl(D); these pin the largest class
    numbers, whose structure walks and row tables are the longest."""
    assert main(["classgroup", "-D", str(disc), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / "classgroup.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_manifest_digests_match_artifacts(tmp_path, capsys):
    """The manifest digests are those of the bytes written: every file under
    --out, and the primary artifact on stdout for each --format.  The
    spectrum's adjacency (1715 x 16 slots) spans several blocks."""
    spectrum = ["spectrum", "-D", "-9999991", "--bound", "50"]
    for argv, names in ((["classgroup", "-D", "-47"], ["classgroup.json"]),
                        (spectrum, ["graph.dot", "scan.csv", "spectrum.json"])):
        outdir = tmp_path / argv[0]
        rc, _, _ = run(capsys, [*argv, "--out", str(outdir)])
        assert rc == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        jsonschema.validate(manifest, schema_for("manifest"))
        assert sorted(manifest["outputs"]) == names
        for name, digest in manifest["outputs"].items():
            raw = (outdir / name).read_bytes()
            assert digest == "sha256:" + hashlib.sha256(raw).hexdigest()
    for fmt, name in cli._PRIMARY["spectrum"].items():
        rc, out, err = run(capsys, [*spectrum, "--format", fmt])
        assert rc == 0
        assert last_json_line(err)["outputs"][name] == (
            "sha256:" + hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert out.encode("utf-8") == (tmp_path / "spectrum" / name).read_bytes()
    # every declared artifact schema name actually ships
    for schema_name in set(ARTIFACT_SCHEMAS.values()):
        assert schema_for(schema_name)["$schema"]


def test_path_across_components_exits_at_once(capsys, monkeypatch):
    # S_5 generates 7 cosets of 245 classes in Cl(-9999991); the component
    # check answers before any walk is drawn from the Philox core
    def no_walks(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(walks, "_philox_words", no_walks)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["path", "-D", "-9999991", "--bound", "5",
                                "-A", "1:1:2499998", "-B", "500:3:5000"])
    assert time.perf_counter() - start < 1
    assert rc == 3 and out == ""
    assert err.rstrip().endswith(
        "B lies outside A's component: A's component has 245 and B's has 245 "
        "of the 1715 vertices")


@pytest.mark.parametrize("argv", [["path", "-D", "-84", "--bound", "3", "-A", "id", "-B", "3:0:7"],
                                  ["dlpdemo", "-p", "101", "-t", "3", "-L", "5"]])
def test_exhaustive_path_across_components_exits_3(capsys, argv):
    # graphs of order < 9 take the breadth-first path, which must fail the
    # way the walk search does: exit 3 with both component sizes
    rc, out, err = run(capsys, argv)
    assert rc == 3 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error (precondition): B lies outside A's component: A's "
                          "component has 2 and B's has 2 of the ")


def test_path_whose_walks_cannot_meet_exits_within_budget(capsys, tmp_path):
    # Z/10 x Z/10 x Z/100 on the unit generators is connected, but 5:5:50
    # lies 60 steps from 0:0:0 and walks of length 10 from each cannot meet:
    # step 2 runs all 100 h = 10^6 trials
    grp = tmp_path / "order4.grp"
    grp.write_text("invariants: 10 10 100\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, ["path", "--group-file", str(grp), "--gens", "1:0:0,0:1:0,0:0:1",
                                "-A", "0:0:0", "-B", "5:5:50", "--seed", "1"])
    assert time.perf_counter() - start < 10
    assert rc == 3 and out == ""
    assert err.startswith("error (precondition): step 2 exceeded 1000000 trials")
    assert err.rstrip().endswith("but the walks did not meet within the cap")


def test_trial_cap_says_the_walks_did_not_meet(capsys, monkeypatch, tmp_path):
    # Z/400 on {+-1, +-20} is connected, but walks of length 7 from 0 and
    # from 200 rarely meet
    monkeypatch.setattr(pathfind, "TRIAL_CAP_FACTOR", 1)
    z400 = tmp_path / "z400.grp"
    z400.write_text("invariants: 400\n")
    rc, out, err = run(capsys, ["path", "--group-file", str(z400), "--gens", "1,20",
                                "-A", "0", "-B", "200"])
    assert rc == 3 and out == ""
    assert err.startswith("error (precondition): step 2 exceeded 400 trials")
    assert err.rstrip().endswith(
        "A and B lie in one component of 400 of the 400 vertices, "
        "but the walks did not meet within the cap")


def test_unsupported_format_combination(capsys):
    rc, _, err = run(capsys, ["classgroup", "-D", "-23", "--format", "dot"])
    assert rc == 2
    assert "does not produce" in err


def test_missing_group_file_is_an_input_error(capsys, tmp_path):
    missing = str(tmp_path / "nonexistent.grp")
    rc, out, err = run(capsys, ["spectrum", "--group-file", missing, "--gens", "1"])
    assert rc == 2
    assert "Traceback" not in out + err
    assert err.startswith("error (input):") and err.count("\n") == 1


def test_option_of_the_other_source_rejected(capsys, z9):
    too_big = str(quadform.PRIME_BOUND_CAP + 1)
    for argv in (["spectrum", "-D", "-23", "--bound", "5", "--subgroup", "foo"],
                 ["spectrum", "--group-file", z9, "--gens", "1", "--bound", "5"],
                 ["spectrum", "--group-file", z9, "--gens", "1", "--bound", too_big]):
        rc, out, err = run(capsys, argv)
        assert rc == 2, argv
        assert out == ""
        assert err.startswith("error (input):") and err.count("\n") == 1


def test_subgroup_cap_checked_before_any_element(capsys, monkeypatch, tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("elements were built before the subgroup cap was checked")

    monkeypatch.setattr(abelian.Subgroup, "__init__", unreachable)
    big = tmp_path / "big.grp"
    big.write_text("invariants: 10 100 10000\n")  # order 10^7
    named = tmp_path / "named.grp"
    named.write_text("invariants: 10 100 10000\nsubgroup H: 1,0,0 0,1,0 0,0,1\n")
    for argv in (["spectrum", "--group-file", str(big), "--gens", "1:0:0,0:1:0,0:0:1"],
                 ["spectrum", "--group-file", str(named), "--gens", "1:0:0", "--subgroup", "H"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3
        assert "Traceback" not in out + err
        assert err.startswith("error (precondition):") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["spectrum"], ["path", "-A", "id", "-B", "2147483648:0"]])
def test_ambient_order_beyond_int64_codes_exits_3(capsys, tmp_path, argv):
    huge = tmp_path / "huge.grp"
    huge.write_text("invariants: 4294967296 4294967296\n")  # order 2^64
    rc, out, err = run(capsys, [argv[0], "--group-file", str(huge), "--gens", "2147483648:0",
                                *argv[1:]])
    assert rc == 3
    assert "Traceback" not in out + err
    assert err.startswith("error (precondition): ambient group order") and err.count("\n") == 1


def test_slot_cap_checked_before_any_work(capsys, monkeypatch, tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the slot cap was checked")

    def refused(argv):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3
        assert "Traceback" not in out + err
        assert err.startswith("error (precondition):") and err.count("\n") == 1
        assert "adjacency slots" in err

    monkeypatch.setattr(cayley.CayleyGraph, "step_table", property(unreachable))
    monkeypatch.setattr(cayley, "character_angles", unreachable)
    big = tmp_path / "big.grp"
    big.write_text("invariants: 10 100 1000\n")  # order 10^6, under the order cap
    gens = ["--group-file", str(big), "--gens", "1:0:0,0:1:0,0:0:1"]  # 6 slots a vertex
    with monkeypatch.context() as m:
        m.setattr(abelian.Subgroup, "__init__", unreachable)  # no subgroup element either
        for argv in (["spectrum", *gens], ["mix", *gens, "--target", "id"],
                     ["path", *gens, "-A", "id", "-B", "1:2:3"]):
            refused(argv)
    # a -D graph meets the same cap: h = 1715 vertices x 9,672 prime forms
    refused(["spectrum", "-D", "-9999991", "--bound", "100000"])


def test_named_subgroup_built_only_after_the_slot_cap(capsys, monkeypatch, tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("a named subgroup was built before the slot cap was checked")

    monkeypatch.setattr(abelian.Subgroup, "__init__", unreachable)
    named = tmp_path / "named.grp"
    # order 10^6, under the order cap; H is the whole group, and the unused
    # K would be a walk of its own if it were built at load time
    named.write_text("invariants: 10 100 1000\nsubgroup H: 1,0,0 0,1,0 0,0,1\n"
                     "subgroup K: 0,1,0 0,0,1\n")
    gf = abelian.load_group_file(str(named))
    assert list(gf.generators) == ["H", "K"] and len(gf.generators["K"]) == 2
    t0 = time.perf_counter()
    rc, out, err = run(capsys, ["spectrum", "--group-file", str(named),
                                "--gens", "1:0:0,0:1:0,0:0:1", "--subgroup", "H"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3
    assert "Traceback" not in out + err
    assert err.startswith("error (precondition):") and "adjacency slots" in err


def test_d_graph_runs_one_structure_walk(monkeypatch):
    calls = []
    walk = abelian.structure_of

    def counted(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(abelian, "structure_of", counted)
    monkeypatch.setattr(quadform, "structure_of", counted)
    args = cli.build_parser().parse_args(["spectrum", "-D", "-9999991", "--bound", "50"])
    graph = cli._build_graph(args).graph
    assert graph.order == 1715
    assert len(calls) == 1


def test_both_sources_rejected(capsys, z9):
    rc, _, err = run(capsys, ["spectrum", "-D", "-23", "--bound", "3",
                              "--group-file", z9, "--gens", "1"])
    assert rc == 2
    assert "not both" in err


def test_seed_must_be_u64(subprocess_env):
    r = subprocess.run(
        [sys.executable, "-m", "isocayley.cli", "dlpdemo", "-p", "31", "-t", "3",
         "-L", "7", "--seed", "-1"],
        capture_output=True, text=True, env=subprocess_env,
    )
    assert r.returncode == 2
    assert "64-bit" in r.stderr


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_delta_must_be_finite(capsys, delta):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "-D", "-9999991", "--bound", "200", f"--delta={delta}"])
    assert exc.value.code == 2
    assert "delta must be a finite number" in capsys.readouterr().err


def test_version_flag(subprocess_env):
    r = subprocess.run(
        [sys.executable, "-m", "isocayley.cli", "--version"],
        capture_output=True, text=True, env=subprocess_env,
    )
    assert r.returncode == 0
    assert r.stdout.startswith("isocayley ")


# valid spellings are listed more than once so that most draws get past
# argument parsing
_DISCS = st.sampled_from(["-23", "-23", "-47", "-47", "-20", "-3", "-4", "-13", "0", "5",
                          "12", "-100000007", "x"])
_BOUNDS = st.sampled_from(["3", "30", "30", "300", None, "-5", "0", "2",
                           str(quadform.PRIME_BOUND_CAP + 1), str(10**10), str(10**30)])
_VERTICES = st.sampled_from(["id", "id", "1:1:6", "2:1:3", "2:-1:3", "3", "3", "9:9:9",
                             "1:2", "x", ""])
_COUNTS = st.sampled_from([None, None, "40", "40", "-1", "0", "1", str(10**12), "y"])


@st.composite
def _argv(draw, group_file, garbage_file, missing_file):
    cmd = draw(st.sampled_from(
        ["classgroup", "spectrum", "mix", "path", "verify", "ecgraph", "dlpdemo"]))
    argv = [cmd]

    def maybe(flag, strategy):
        value = draw(strategy)
        if value is not None:
            argv.extend([flag, value])

    if cmd == "classgroup":
        maybe("-D", _DISCS)
    elif cmd in ("ecgraph", "dlpdemo"):
        maybe("-p", st.sampled_from(["31", "31", "37", "4", "-7", "10007", "z"]))
        maybe("-t", st.sampled_from(["3", "3", "1", "0", "99", "-12"]))
        maybe("-L", st.sampled_from(["7", "7", "5,7", "3", "2", "3,37", "", "a,b", "31"]))
    else:
        # each source sometimes draws the other source's option too
        if draw(st.booleans()):
            maybe("-D", _DISCS)
            maybe("--bound", _BOUNDS)
            maybe("--subgroup", st.sampled_from([None, None, None, "even"]))
        else:
            maybe("--group-file",
                  st.sampled_from([group_file, group_file, missing_file, garbage_file]))
            maybe("--gens", st.sampled_from(["1", "1,2", "1,2", "2", "2:0", "1:1:6", "x"]))
            maybe("--subgroup", st.sampled_from([None, None, "even", "odd"]))
            maybe("--bound", st.sampled_from([None, None, None, "30"]))
        if cmd == "mix":
            maybe("--target", _VERTICES)
            maybe("--trials", _COUNTS)
            maybe("--length", _COUNTS)
        elif cmd == "path":
            maybe("-A", _VERTICES)
            maybe("-B", _VERTICES)
        elif cmd == "verify":
            argv.append(draw(st.sampled_from([missing_file, garbage_file, group_file])))
    maybe("--seed", st.sampled_from([None, None, "7", "-1", str(2**64)]))
    maybe("--format", st.sampled_from([None, None, "json", "csv", "dot", "xml"]))
    return argv


def test_random_argv_exits_cleanly(tmp_path_factory):
    """Any argv maps to exit 0-3, and no traceback reaches stderr."""
    root = tmp_path_factory.mktemp("argv")
    (root / "z12.grp").write_text(Z12_WITH_SUB)
    (root / "garbage.json").write_text("{not json")
    files = [str(root / name) for name in ("z12.grp", "garbage.json", "missing.grp")]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_argv(*files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:  # argparse rejects the argv
                rc = e.code
        assert rc in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv

    check()


# the reduced forms of each discriminant, primitive or not: Cl(-23) = Z/3,
# and Cl(-12) = 1 with the non-primitive (2, 2, 2) beside its class
_REDUCED = {-23: [(1, 1, 6), (2, 1, 3), (2, -1, 3)], -12: [(1, 0, 3), (2, 2, 2)]}


@st.composite
def _form_spec(draw, d):
    """An a:b:c spelling of a form: a reduced one of D, a translate or flip
    of one (k up to 10^29), its negative-definite twin, one with the wrong
    discriminant or c <= 0, or three entries up to 10^30 in size."""
    a, b, c = draw(st.sampled_from(_REDUCED[d]))
    kind = draw(st.sampled_from(["reduced", "moved", "flipped", "negated", "off", "c<=0",
                                 "random"]))
    if kind == "moved":
        k = draw(st.integers(-5, 5) | st.integers(-10**29, 10**29))
        b, c = b + 2 * a * k, (a * k + b) * k + c
    elif kind == "flipped":
        a, b, c = c, -b, a
    elif kind == "negated":
        a, b, c = -a, -b, -c
    elif kind == "off":
        c += draw(st.sampled_from([-1, 1, 10**30]))
    elif kind == "c<=0":
        c = -draw(st.integers(0, 10**30))
    elif kind == "random":
        a, b, c = (draw(st.integers(-10**30, 10**30)) for _ in range(3))
    return f"{a}:{b}:{c}"


@st.composite
def _form_argv(draw):
    d = draw(st.sampled_from(sorted(_REDUCED)))
    cmd = draw(st.sampled_from(["path", "mix"]))
    slots = ["-A", "-B"] if cmd == "path" else ["--start", "--target"]
    spelled = {slot: draw(st.just("id") | _form_spec(d)) for slot in slots}
    argv = [cmd, "-D", str(d), "--bound", "10"]
    argv += [f"{slot}={spec}" for slot, spec in spelled.items()]
    if draw(st.booleans()):
        argv.append(f"--gens={draw(_form_spec(d))}")
    return argv + (["--trials", "20"] if cmd == "mix" else [])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_form_argv())
def test_form_inputs_exit_cleanly(argv):
    """Any form spelled into a vertex or --gens of a -D graph exits 0, 2 or
    3; a failure is one stderr line that quotes no internal repr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = out.getvalue() + err.getvalue()
    assert rc in (0, 2, 3), (argv, text)
    if rc:
        assert len(err.getvalue().splitlines()) == 1, (argv, text)
    for word in ("Traceback", "QuadForm(", "GroupElement("):
        assert word not in text, (argv, text)


def _assert_exits_cleanly(argv):
    """argv exits 0-3; a failure is one stderr line, and no traceback or
    internal repr reaches either stream."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = out.getvalue() + err.getvalue()
    assert rc in (0, 1, 2, 3), (argv, text)
    if rc:
        assert len(err.getvalue().splitlines()) == 1, (argv, text)
    for word in ("Traceback", "QuadForm(", "GroupElement("):
        assert word not in text, (argv, text)


_ODD_VALUES = [None, True, 0, -1, 2**64, 1.5, "", "x", "false", [], {}, ["2", True], [[]]]


@st.composite
def _mutated_certificate(draw, text):
    """A good certificate's text after up to three mutations, each a key
    dropped, a field retyped, a flag flipped, a step label or a vertex name
    changed, then perhaps truncated."""
    cert = json.loads(text)
    labels = sorted({label for label, _ in cert["steps"]})
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "flip", "label", "vertex"]))
        steps = cert.get("steps")
        if kind == "drop" and cert:
            del cert[draw(st.sampled_from(sorted(cert)))]
        elif kind == "retype":
            key = draw(st.sampled_from(["start", "end", "length", "steps", "step", "flag"]))
            value = draw(st.sampled_from(_ODD_VALUES))
            if key in ("step", "flag") and isinstance(steps, list) and steps:
                i = draw(st.integers(0, len(steps) - 1))
                if key == "step":
                    steps[i] = value
                elif isinstance(steps[i], list) and steps[i]:
                    steps[i][-1] = value
            else:
                cert[key] = value
        elif kind == "flip" and isinstance(steps, list) and steps:
            i = draw(st.integers(0, len(steps) - 1))
            if isinstance(steps[i], list) and len(steps[i]) == 2:
                steps[i] = [steps[i][0], not steps[i][1]]
        elif kind == "label" and isinstance(steps, list) and steps:
            label = draw(st.sampled_from(labels + ["", "x", "1^-1^-1", "0", "19", "2:1"]))
            spelled = draw(st.sampled_from(["{}", "{}^-1", " {}", "{}:0", "-{}"])).format(label)
            steps[draw(st.integers(0, len(steps) - 1))] = [spelled, draw(st.booleans())]
        elif kind == "vertex":
            cert[draw(st.sampled_from(["start", "end"]))] = draw(st.sampled_from(
                ["id", "", "0", "5", "9", "-1", "1:0", "1:1:2003", "5:3:401", "5:13:409",
                 "1:1:1", "2:2:2", "x", "1:x:1"]))
    text = json.dumps(cert)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def test_mutated_certificates_exit_cleanly(tmp_path_factory, readme_cert):
    """A good certificate, mutated, replays on both verify routes (-D alone,
    and a group file with --gens) with exit 0-3 and one stderr line."""
    root = tmp_path_factory.mktemp("certs")
    (root / "z9.grp").write_text(Z9)
    by_graph = ["--group-file", str(root / "z9.grp"), "--gens", "1,2"]
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        assert main(["path", *by_graph, "-A", "id", "-B", "5", "--seed", "3",
                     "--out", str(root / "run")]) == 0
    routes = [(["-D", "-8011", "--bound", "20"], readme_cert),
              (by_graph, (root / "run" / "certificate.json").read_text())]
    path = root / "cert.json"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([0, 1]).flatmap(
        lambda r: st.tuples(st.just(r), _mutated_certificate(routes[r][1]))))
    def check(case):
        route, text = case
        path.write_text(text)
        _assert_exits_cleanly(["verify", *routes[route][0], str(path)])

    check()


_GROUP_TOKENS = ["", "0", "1", "-1", "2", "3", "6", "24", str(10**30), "x", "1.5", "1,2",
                 "0,3,5", "1,", ",", ":", "invariants:", "subgroup", "H:", "H", "K:", "#",
                 "é", "\t", "\x00"]
_GROUP_LINES = ["", "# note", "subgroup H: 1,2", "subgroup K: 2,0 1,1", "invariants: 4 12",
                "subgroup : 1,1", "subgroup H 1,1", "garbage"]


@st.composite
def _mutated_group_text(draw):
    """Golden's group file after up to three mutations, each a token
    replaced, dropped or doubled, or a line inserted, then perhaps truncated."""
    lines = [line.split(" ") for line in "invariants: 4 12\nsubgroup H: 1,2 0,3".splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["replace", "drop", "double", "line"]))
        if kind == "line" or not any(lines):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(_GROUP_LINES)).split(" "))
            continue
        tokens = draw(st.sampled_from([line for line in lines if line]))
        i = draw(st.integers(0, len(tokens) - 1))
        if kind == "replace":
            tokens[i] = draw(st.sampled_from(_GROUP_TOKENS))
        elif kind == "drop":
            del tokens[i]
        else:
            tokens.insert(i, tokens[i])
    text = "".join(" ".join(tokens) + "\n" for tokens in lines)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def test_mutated_group_files_exit_cleanly(tmp_path_factory):
    """A good group file, mutated, read by spectrum or path with --gens and
    perhaps --subgroup, exits 0-3 with one stderr line on failure."""
    path = tmp_path_factory.mktemp("groups") / "g.grp"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_mutated_group_text(), st.sampled_from(["1:0", "1:0,0:1", "2", "1:2:3"]),
           st.sampled_from([[], ["--subgroup", "H"]]),
           st.sampled_from([["spectrum"], ["path", "-A", "id", "-B", "1:1"]]))
    def check(text, gens, subgroup, command):
        path.write_text(text, encoding="utf-8")
        _assert_exits_cleanly([command[0], "--group-file", str(path), "--gens", gens,
                               *subgroup, *command[1:]])

    check()
