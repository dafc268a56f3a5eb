"""End-to-end exercises of the command-line front end."""

import hashlib
import json
import subprocess
import sys

import jsonschema
import pytest

from isocayley import ecgraph, walks
from isocayley.cli import ARTIFACT_SCHEMAS, main, schema_for

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
    too_big = ecgraph.DEGREE_CAP + 6  # 37, an odd prime
    for cmd in ("ecgraph", "dlpdemo"):
        rc, _, err = run(capsys, [cmd, "-p", "9973", "-t", "1", "-L", f"5,{too_big}"])
        assert rc == 3
        assert "cap" in err


def test_dlpdemo_transcript(capsys):
    rc, out, _ = run(capsys, ["dlpdemo", "-p", "31", "-t", "3", "-L", "7", "--seed", "5"])
    assert rc == 0
    data = json.loads(out)
    jsonschema.validate(data, schema_for("dlpdemo"))
    assert data["verified"] is True
    assert data["recovered_r"] == data["planted_r"]


def test_dlpdemo_planted_override(capsys):
    rc, out, _ = run(capsys, ["dlpdemo", "-p", "31", "-t", "3", "-L", "7",
                              "--seed", "5", "--planted", "11"])
    assert rc == 0
    assert json.loads(out)["planted_r"] == 11


def test_reruns_are_byte_identical(tmp_path):
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "isocayley.cli", "dlpdemo", "-p", "31", "-t", "3",
             "-L", "7", "--seed", "9", "--out", str(d)],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr
        dirs.append(d)
    a, b = dirs
    files = sorted(f.name for f in a.iterdir())
    assert files == sorted(f.name for f in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_digests_match_artifacts(tmp_path, capsys):
    outdir = tmp_path / "run"
    rc, _, _ = run(capsys, ["classgroup", "-D", "-47", "--out", str(outdir)])
    assert rc == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    jsonschema.validate(manifest, schema_for("manifest"))
    for name, digest in manifest["outputs"].items():
        raw = (outdir / name).read_bytes()
        assert digest == "sha256:" + hashlib.sha256(raw).hexdigest()
    # every declared artifact schema name actually ships
    for schema_name in set(ARTIFACT_SCHEMAS.values()):
        assert schema_for(schema_name)["$schema"]


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


def test_both_sources_rejected(capsys, z9):
    rc, _, err = run(capsys, ["spectrum", "-D", "-23", "--bound", "3",
                              "--group-file", z9, "--gens", "1"])
    assert rc == 2
    assert "not both" in err


def test_seed_must_be_u64():
    r = subprocess.run(
        [sys.executable, "-m", "isocayley.cli", "dlpdemo", "-p", "31", "-t", "3",
         "-L", "7", "--seed", "-1"],
        capture_output=True, text=True,
    )
    assert r.returncode == 2
    assert "64-bit" in r.stderr


def test_version_flag():
    r = subprocess.run(
        [sys.executable, "-m", "isocayley.cli", "--version"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout.startswith("isocayley ")
