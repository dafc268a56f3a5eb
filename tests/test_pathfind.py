import json
import subprocess
import sys
from fractions import Fraction
from math import ceil, log, sqrt
from statistics import mean, stdev

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocayley import pathfind, walks
from isocayley.abelian import FiniteAbelianGroup, full_subgroup
from isocayley.cayley import build, component_of
from isocayley.errors import InputError, PreconditionError, TrialCapError
from isocayley.pathfind import (
    _STEP2_STREAM_OFFSET,
    PathCertificate,
    PathStep,
    SearchStats,
    certificate_from_json,
    certificate_to_json,
    collect_neighbors,
    expected_trials_bound,
    find_path,
    meet_from_target,
    replay,
)
from isocayley.walks import trial_rng


def cycle_graph(n, gens=(1,)):
    g = FiniteAbelianGroup((n,))
    labels = []
    for k in gens:
        labels.append((str(k), g.element((k,))))
        labels.append((f"-{k}", g.element((n - k,))))
    return build(full_subgroup(g), labels)


def test_small_graph_rejected():
    g = cycle_graph(5)
    with pytest.raises(PreconditionError) as info:
        collect_neighbors(g, g.vertices[0], seed=1)
    assert "exhaustive" in str(info.value)


def test_collect_neighbors_z9():
    g = cycle_graph(9)
    neighbors, stats = collect_neighbors(g, g.vertices[0], seed=7)
    # ceil(sqrt(9)) = 3 distinct endpoints wanted
    assert stats.distinct_neighbors == 3
    assert len(neighbors) == 3
    assert stats.h == 9
    # each stored trial's walk of ceil(ln 18) = 3 steps ends at its key, and
    # the trials rise in the order the endpoints were found
    for vertex, t in neighbors.items():
        assert _oracle_walk(g, 0, 7, t, 3)[0] == vertex
    trials = list(neighbors.values())
    assert trials == sorted(set(trials))
    assert trials[-1] == stats.step1_trials - 1


def test_find_path_z9_documented():
    g = cycle_graph(9)
    cert, stats = find_path(g, g.vertices[0], g.vertices[4], seed=7)
    assert cert.start == g.vertices[0]
    assert cert.end == g.vertices[4]
    # both halves capped at ceil(ln(2h)) = 3
    assert cert.length <= 6
    assert replay(g, cert)
    assert stats.step1_trials >= stats.distinct_neighbors


def test_find_path_deterministic():
    g = cycle_graph(16, gens=(1, 2))
    a, b = g.vertices[2], g.vertices[11]
    c1, s1 = find_path(g, a, b, seed=42)
    c2, s2 = find_path(g, a, b, seed=42)
    assert c1 == c2 and s1 == s2


def test_find_path_seed_changes_search():
    g = cycle_graph(16, gens=(1, 2))
    a, b = g.vertices[0], g.vertices[9]
    certs = {find_path(g, a, b, seed=s)[0].steps for s in range(6)}
    assert len(certs) > 1  # different streams explore differently
    for s in range(6):
        assert replay(g, find_path(g, a, b, seed=s)[0])


def test_identical_endpoints_give_empty_certificate():
    g = cycle_graph(9)
    cert, stats = find_path(g, g.vertices[3], g.vertices[3], seed=1)
    assert cert.steps == ()
    assert cert.length == 0
    assert replay(g, cert)
    assert stats.step1_trials == 0 and stats.step2_trials == 0


def test_unreachable_target_hits_trial_cap():
    # S = {3, 9} only reaches the coset of <3> inside Z/12
    g = FiniteAbelianGroup((12,))
    graph = build(
        full_subgroup(g), [("3", g.element((3,))), ("9", g.element((9,)))]
    )
    a = graph.vertices[0]
    b = graph.vertices[1]  # different component
    with pytest.raises(TrialCapError):
        find_path(graph, a, b, seed=3)


def test_trial_cap_names_the_components():
    # S = {3, 9} splits Z/12 into the three cosets of <3>
    g = FiniteAbelianGroup((12,))
    graph = build(full_subgroup(g), [("3", g.element((3,))), ("9", g.element((9,)))])
    with pytest.raises(TrialCapError) as info:
        find_path(graph, graph.vertices[0], graph.vertices[1], seed=3)
    assert str(info.value).endswith(
        "B lies outside A's component: A's component has 4 and B's has 4 of the 12 vertices")


def union_find_components(graph):
    """Each vertex's component root, by union-find over the slots: the
    oracle for the breadth-first search."""
    root = list(range(graph.order))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for j in range(graph.degree):
        for i in range(graph.order):
            root[find(i)] = find(int(graph.step_table[j, i]))
    return [find(i) for i in range(graph.order)]


def test_component_of_matches_union_find():
    for graph in (cycle_graph(12, (3,)), cycle_graph(30, (6, 10)), cycle_graph(9, ()),
                  cycle_graph(10, (5,)), cycle_graph(16, (1,))):
        roots = union_find_components(graph)
        for i in range(graph.order):
            assert component_of(graph, i).tolist() == [r == roots[i] for r in roots]


def test_disconnected_pair_fails_before_step_one(monkeypatch):
    # S = {3, 9} splits Z/12 into the three cosets of <3>: no walk is drawn
    # from the Philox core, which every walk draws from
    def no_walks(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(walks, "_philox_words", no_walks)
    graph = cycle_graph(12, (3,))
    with pytest.raises(TrialCapError, match="B lies outside A's component"):
        find_path(graph, graph.vertices[0], graph.vertices[1], seed=3)


def _oracle_walk(graph, start_idx, seed, trial, length):
    i, steps = start_idx, []
    for j in trial_rng(seed, trial).integers(0, graph.degree, size=length).tolist():
        steps.append(PathStep(graph.generators[j][0], False))
        i = int(graph.step_table[j, i])
    return graph.vertices[i], steps


def oracle_find_path(graph, a, b, seed, factor):
    """The per-trial search: one trial_rng stream per trial, each walk
    recorded step by step, under a cap of factor * h trials per step."""
    h = graph.order
    if a == b:
        return PathCertificate(a, b, ()), SearchStats(0, 0, 0, h)
    near = component_of(graph, graph.vertex_index(a))
    if not near[graph.vertex_index(b)]:
        far = component_of(graph, graph.vertex_index(b))
        raise TrialCapError(
            f"no walk from A can meet one from B: B lies outside A's component: A's "
            f"component has {near.sum()} and B's has {far.sum()} of the {h} vertices")
    n_target, length, cap = ceil(sqrt(h)), ceil(log(2 * h)), factor * h
    try:
        neighbors, step1 = {}, 0
        while len(neighbors) < n_target:
            if step1 >= cap:
                raise TrialCapError(
                    f"step 1 exceeded {cap} trials with {len(neighbors)} of "
                    f"{n_target} endpoints")
            end, steps = _oracle_walk(graph, graph.vertex_index(a), seed, step1, length)
            step1 += 1
            neighbors.setdefault(end, steps)
        for step2 in range(1, cap + 1):
            end, back = _oracle_walk(graph, graph.vertex_index(b), seed,
                                     _STEP2_STREAM_OFFSET + step2 - 1, length)
            if end in neighbors:
                break
        else:
            raise TrialCapError(f"step 2 exceeded {cap} trials without meeting a stored endpoint")
    except TrialCapError as e:
        raise TrialCapError(
            f"{e}; A and B lie in one component of {near.sum()} of the {h} vertices, "
            f"but the walks did not meet within the cap") from None
    steps = neighbors[end] + [s.flipped() for s in reversed(back)]
    return PathCertificate(a, b, tuple(steps)), SearchStats(step1, step2, n_target, h)


def _outcome(search, *args):
    try:
        return search(*args)
    except TrialCapError as e:
        return str(e)


@st.composite
def small_graphs(draw):
    """Cyclic and product groups of order 9 to 48 on one to three random
    generators and their inverses; a generator set that spans a proper
    subgroup leaves the graph disconnected."""
    invariants = draw(st.sampled_from([(9,), (12,), (16,), (25,), (31,), (48,),
                                       (3, 3), (2, 6), (4, 4), (3, 12), (2, 2, 4)]))
    g = FiniteAbelianGroup(invariants)
    labels = []
    for s in range(draw(st.integers(1, 3))):
        c = [draw(st.integers(0, n - 1)) for n in invariants]
        labels.append((f"s{s}", g.element(c)))
        labels.append((f"s{s}'", g.element([-x % n for x, n in zip(c, invariants)])))
    return build(full_subgroup(g), labels)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graph=small_graphs(), a=st.integers(0, 47), gap=st.integers(1, 47),
       seed=st.integers(0, 2**64 - 1), factor=st.sampled_from([1, 1, 100]))
def test_find_path_matches_the_per_trial_search(graph, a, gap, seed, factor):
    # certificate, stats and cap text all as the per-trial search gives them;
    # at one trial per vertex the caps trip in both steps
    a, b = graph.vertices[a % graph.order], graph.vertices[(a + gap) % graph.order]
    want = _outcome(oracle_find_path, graph, a, b, seed, factor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathfind, "TRIAL_CAP_FACTOR", factor)
        assert _outcome(find_path, graph, a, b, seed) == want


def test_trial_cap_is_a_precondition_error():
    assert issubclass(TrialCapError, PreconditionError)


def test_an_edgeless_graph_has_no_walks():
    # Z/12 with no generators: both steps refuse before a walk is drawn
    g = cycle_graph(12, ())
    with pytest.raises(PreconditionError, match="edgeless"):
        collect_neighbors(g, g.vertices[0], seed=1)
    with pytest.raises(PreconditionError, match="edgeless"):
        meet_from_target(g, g.vertices[0], {g.vertices[1]: 0}, seed=1)


# Runs in a fresh interpreter: walks and a path search on Z/31 with slots
# +-1, +-5, +-7 (degree 6), where every bulk Philox window spoils the trials
# 0 mod 3 in every draw.  A spoiled half holds 2^31, whose product with 6
# has a low word of 0, below numpy's rejection threshold (2^32 - 6) mod 6 =
# 4, so each such trial is redone one draw at a time.
_SPOILED_RUN = """
import json, sys
import numpy as np
from isocayley import walks
from isocayley.abelian import FiniteAbelianGroup, full_subgroup
from isocayley.cayley import build
from isocayley.pathfind import find_path

real, real_steps, redone = walks._philox_words, walks._trial_steps, []

def spoiling(seed, first, trials, b0, b1):
    words = real(seed, first, trials, b0, b1)
    if sys._getframe(1).f_code.co_name == "_endpoints":  # bulk windows only
        for x in words:
            x[(first + np.arange(trials)) % 3 == 0] = np.uint64(0x8000000080000000)
    return words

def counted(seed, trial, k, length):
    redone.append(trial)
    return real_steps(seed, trial, k, length)

walks._philox_words, walks._trial_steps = spoiling, counted
g = FiniteAbelianGroup((31,))
graph = build(full_subgroup(g), [(lbl, g.element((x,)))
                                 for k in (1, 5, 7) for lbl, x in ((str(k), k), (f"-{k}", 31 - k))])
ends = walks._endpoints(graph, 3, 9, 200, 77).tolist()
bulk = list(redone)
cert, stats = find_path(graph, graph.vertices[0], graph.vertices[17], 77)
print(json.dumps({"ends": ends, "bulk": bulk, "path": redone[len(bulk):],
                  "steps": [[s.label, s.inverted] for s in cert.steps], "stats": vars(stats),
                  "numpy.random": "numpy.random" in sys.modules}))
"""


def test_forced_rejections_redraw_without_numpy_random(subprocess_env):
    """Trials whose bulk draws numpy would reject are redone from the
    in-house Philox core: the end vertices of _endpoints, and both walks
    that find_path records, equal the trial_rng oracle, and the process
    never imports numpy.random."""
    r = subprocess.run([sys.executable, "-c", _SPOILED_RUN], capture_output=True, text=True,
                       env=subprocess_env)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    assert got["numpy.random"] is False
    graph = cycle_graph(31, (1, 5, 7))
    assert got["bulk"] == list(range(0, 200, 3))
    assert got["ends"] == [graph.vertex_index(_oracle_walk(graph, 3, 77, t, 9)[0])
                           for t in range(200)]
    cert, stats = oracle_find_path(graph, graph.vertices[0], graph.vertices[17], 77,
                                   pathfind.TRIAL_CAP_FACTOR)
    assert got["steps"] == [[s.label, s.inverted] for s in cert.steps]
    assert got["stats"] == vars(stats)
    # step 1 redid trials 0, 3, 6, ... and step 2 those of its own offset
    assert got["path"] and all(t % 3 == 0 for t in got["path"])
    assert any(t >= _STEP2_STREAM_OFFSET for t in got["path"])


def test_meet_from_target_walks_ceil_ln_2h():
    g = cycle_graph(9)
    neighbors, _ = collect_neighbors(g, g.vertices[0], seed=5)
    cert, stats = meet_from_target(g, g.vertices[2], neighbors, seed=5)
    assert cert.start == g.vertices[2]
    assert cert.end in neighbors
    assert cert.length == 3  # ceil(ln 18), as in step 1
    assert replay(g, cert)
    assert stats.step2_trials >= 1


def test_replay_rejects_unknown_label():
    g = cycle_graph(9)
    cert, _ = find_path(g, g.vertices[0], g.vertices[4], seed=7)
    bad = cert.__class__(
        cert.start, cert.end, (PathStep("nope", False),) + cert.steps[1:]
    )
    with pytest.raises(InputError):
        replay(g, bad)


def test_replay_detects_tampered_endpoint():
    g = cycle_graph(9)
    cert, _ = find_path(g, g.vertices[0], g.vertices[4], seed=7)
    forged = cert.__class__(cert.start, g.vertices[5], cert.steps)
    assert not replay(g, forged)


def test_step_flip_is_involution():
    s = PathStep("2", False)
    assert s.flipped().flipped() == s
    assert s.flipped().inverted


class TestExpectedTrialsBound:
    def test_documented_values(self):
        assert expected_trials_bound(9, 3) == 12
        assert expected_trials_bound(100, 10) == Fraction(4000, 289)

    def test_zero_neighbors(self):
        assert expected_trials_bound(50, 0) == 0

    def test_breakdown_regime_rejected(self):
        with pytest.raises(PreconditionError):
            expected_trials_bound(9, 6)  # 3n = 2h
        with pytest.raises(PreconditionError):
            expected_trials_bound(10, 7)

    def test_dominates_per_step_sum(self):
        # summing the worst single-step bound over i < n can only shrink
        for h, n in [(9, 3), (100, 10), (400, 20), (57, 8)]:
            per_step = sum(
                Fraction(4 * h * h, (2 * h - 3 * i) ** 2) for i in range(n)
            )
            assert per_step <= expected_trials_bound(h, n)

    def test_exact_rational_arithmetic(self):
        b = expected_trials_bound(100, 10)
        assert isinstance(b, Fraction)
        assert b == Fraction(4 * 10 * 100 * 100, (200 - 30) ** 2)


def test_mean_trials_within_theory_plus_noise():
    # 200 independent searches; sample mean of step-1 trials should sit
    # below the expectation bound by a wide margin of error
    g = cycle_graph(25, gens=(1, 3))
    runs = [find_path(g, g.vertices[0], g.vertices[13], seed=s)[1] for s in range(200)]
    trials = [s.step1_trials for s in runs]
    n = runs[0].distinct_neighbors
    bound = float(expected_trials_bound(25, n))
    slack = 3 * stdev(trials) / len(trials) ** 0.5
    assert mean(trials) <= bound + slack, (mean(trials), bound, slack)


def test_certificate_json_round_trip():
    g = cycle_graph(9)
    cert, _ = find_path(g, g.vertices[0], g.vertices[4], seed=7)
    blob = certificate_to_json(cert, g)
    again = certificate_from_json(blob, g.vertex_named)
    assert again == cert
    assert replay(g, again)


def test_certificate_json_custom_names():
    z9 = FiniteAbelianGroup((9,))
    names = [f"v{i}" for i in range(9)]
    g = build(full_subgroup(z9), [("1", z9.element((1,))), ("-1", z9.element((8,)))], names)
    cert, _ = find_path(g, g.vertices[0], g.vertices[4], seed=7)
    blob = certificate_to_json(cert, g)
    assert blob["start"] == "v0" and blob["end"] == "v4"
    assert certificate_from_json(blob, g.vertex_named) == cert


def test_certificate_json_rejects_malformed():
    g = cycle_graph(9)
    cert, _ = find_path(g, g.vertices[0], g.vertices[4], seed=7)
    blob = certificate_to_json(cert, g)
    missing = {k: v for k, v in blob.items() if k != "steps"}
    with pytest.raises(InputError):
        certificate_from_json(missing, g.vertex_named)
    renamed = dict(blob, start="nowhere")
    with pytest.raises(InputError):
        certificate_from_json(renamed, g.vertex_named)
    short = dict(blob, length=cert.length + 1)
    with pytest.raises(InputError):
        certificate_from_json(short, g.vertex_named)
