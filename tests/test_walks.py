from math import sqrt

import numpy as np
import pytest

from isocayley import walks
from isocayley.abelian import FiniteAbelianGroup, full_subgroup
from isocayley.cayley import build
from isocayley.errors import InputError, PreconditionError
from isocayley.walks import (
    WalkConfig,
    exact_distribution,
    mixing_experiment,
    mixing_length,
    random_walk,
    report_json,
    theorem_length,
    trial_rng,
    wilson_interval,
)


def cycle_graph(n):
    g = FiniteAbelianGroup((n,))
    h = full_subgroup(g)
    return build(h, [("1", g.element((1,))), ("-1", g.element((n - 1,)))])


def triangle():
    return cycle_graph(3)


def test_mixing_length_triangle():
    # ln(6)/ln(2) = 2.58..., ceiling 3
    assert mixing_length(triangle(), 1) == 3


def test_mixing_length_full_target_still_positive():
    tri = triangle()
    assert mixing_length(tri, 3) >= 1
    g = cycle_graph(17)
    assert mixing_length(g, 17) >= 1


def test_mixing_length_rejects_bipartite_and_disconnected():
    g2 = FiniteAbelianGroup((2,))
    bip = build(full_subgroup(g2), [("1", g2.element((1,)))])
    with pytest.raises(PreconditionError):
        mixing_length(bip, 1)
    g4 = FiniteAbelianGroup((4,))
    dis = build(full_subgroup(g4), [("2", g4.element((2,))), ("2", g4.element((2,)))])
    with pytest.raises(PreconditionError):
        mixing_length(dis, 1)


def test_theorem_length_drops_spectral_factor():
    tri = triangle()
    assert theorem_length(tri, 1) == 2  # ceil(ln 6)
    assert theorem_length(tri, 1) <= mixing_length(tri, 1)


def test_walk_length_zero_is_start():
    tri = triangle()
    v = tri.vertices[2]
    assert random_walk(tri, v, 0, trial_rng(1, 0)) == v


def test_walk_deterministic_full_trajectory():
    g = cycle_graph(13)
    v = g.vertices[0]
    ends_a = [random_walk(g, v, n, trial_rng(42, 9)) for n in range(8)]
    ends_b = [random_walk(g, v, n, trial_rng(42, 9)) for n in range(8)]
    assert ends_a == ends_b


def test_single_step_uniform_chi_square():
    tri = triangle()
    v = tri.vertices[0]
    counts = {1: 0, 2: 0}
    for t in range(10**4):
        end = random_walk(tri, v, 1, trial_rng(13, t))
        counts[end.coords[0]] += 1
    # two equiprobable neighbors; 99% chi-square critical value, 1 dof
    chi2 = sum((c - 5000) ** 2 / 5000 for c in counts.values())
    assert chi2 < 6.635, counts


def test_config_validation():
    tri = triangle()
    with pytest.raises(InputError):
        WalkConfig(length=-1, trials=10, seed=0, target=(tri.vertices[0],))
    with pytest.raises(InputError):
        WalkConfig(length=3, trials=0, seed=0, target=(tri.vertices[0],))
    with pytest.raises(InputError):
        WalkConfig(length=3, trials=10, seed=0, target=())


def test_experiment_documented_triangle():
    tri = triangle()
    cfg = WalkConfig(length=3, trials=10**5, seed=7, target=(tri.vertices[1],))
    res = mixing_experiment(tri, tri.vertices[0], cfg)
    assert res.band == (pytest.approx(1 / 6), pytest.approx(1 / 2))
    assert 1 / 6 <= res.frequency <= 1 / 2
    assert res.exact == pytest.approx(0.375, abs=1e-12)
    assert abs(res.frequency - res.exact) < 0.01
    assert res.verdict == "PASS"
    assert res.length_lemma == 3


def test_experiment_defaults_to_the_mixing_length(monkeypatch):
    g = cycle_graph(9)
    passes = []
    real = walks.spectrum_by_characters
    monkeypatch.setattr(walks, "spectrum_by_characters",
                        lambda graph: passes.append(1) or real(graph))
    cfg = WalkConfig(length=None, trials=2000, seed=123, target=(g.vertices[3],))
    res = mixing_experiment(g, g.vertices[0], cfg)
    assert len(passes) == 1
    assert res.config.length == res.length_lemma == mixing_length(g, 1)
    explicit = WalkConfig(length=res.length_lemma, trials=2000, seed=123,
                          target=(g.vertices[3],))
    assert mixing_experiment(g, g.vertices[0], explicit) == res


def test_experiment_whole_vertex_set():
    tri = triangle()
    cfg = WalkConfig(length=3, trials=500, seed=1, target=tuple(tri.vertices))
    res = mixing_experiment(tri, tri.vertices[0], cfg)
    assert res.frequency == 1.0
    assert res.verdict == "PASS"


def test_experiment_rejects_short_walk():
    tri = triangle()
    cfg = WalkConfig(length=2, trials=100, seed=1, target=(tri.vertices[1],))
    with pytest.raises(PreconditionError):
        mixing_experiment(tri, tri.vertices[0], cfg)


def test_experiment_rejects_disconnected():
    g4 = FiniteAbelianGroup((4,))
    dis = build(full_subgroup(g4), [("2", g4.element((2,))), ("2", g4.element((2,)))])
    cfg = WalkConfig(length=10, trials=100, seed=1, target=(dis.vertices[1],))
    with pytest.raises(PreconditionError):
        mixing_experiment(dis, dis.vertices[0], cfg)


def test_experiment_deterministic():
    g = cycle_graph(9)
    cfg = WalkConfig(length=mixing_length(g, 1), trials=2000, seed=123, target=(g.vertices[3],))
    a = mixing_experiment(g, g.vertices[0], cfg)
    b = mixing_experiment(g, g.vertices[0], cfg)
    assert a.frequency == b.frequency and a.interval == b.interval


def test_bulk_endpoints_match_per_trial_streams():
    # reference: one fresh trial_rng per trial, folded through the step table
    z12 = FiniteAbelianGroup((12,))
    for steps in ((1,), (1, 5), (2, 3, 6)):
        gens = [(f"{s}{sign}", z12.element((s * int(sign + "1"),)))
                for s in steps for sign in "+-"]
        g = build(full_subgroup(z12), gens)  # degree 2, 4 and 6
        for seed, length in ((0, 1), (2**64 - 1, 7), (987654321, 30)):
            want = []
            for t in range(200):
                i = 3
                for j in trial_rng(seed, t).integers(0, g.degree, size=length):
                    i = int(g.step_table[j, i])
                want.append(i)
            assert walks._endpoints(g, 3, length, 200, seed).tolist() == want


def test_exact_distribution_is_stochastic():
    g = cycle_graph(10)
    row = exact_distribution(g, g.vertices[4], 7)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert (row >= 0).all()


def test_empirical_tv_against_exact():
    # total-variation distance below a 3-sigma multinomial envelope
    g = FiniteAbelianGroup((7,))
    gens = [("1", g.element((1,))), ("-1", g.element((6,))),
            ("2", g.element((2,))), ("-2", g.element((5,)))]
    g = build(full_subgroup(g), gens)
    start = g.vertices[0]
    length = mixing_length(g, 1)
    trials = 4 * 10**4
    counts = np.zeros(g.order)
    table = g.step_table
    start_idx = g.vertex_index(start)
    for t in range(trials):
        draws = trial_rng(999, t).integers(0, g.degree, size=length)
        i = start_idx
        for j in draws:
            i = int(table[j, i])
        counts[i] += 1
    emp = counts / trials
    exact = exact_distribution(g, start, length)
    tv = 0.5 * np.abs(emp - exact).sum()
    envelope = 1.5 * sum(sqrt(p * (1 - p) / trials) for p in exact)
    assert tv < envelope, (tv, envelope)


def test_wilson_interval_edges_and_value():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo < 1
    # hand-computed Wilson at z = 2.5758..., p-hat = 0.5, n = 100
    z = 2.5758293035489004
    denom = 1 + z * z / 100
    half = z * sqrt(0.25 / 100 + z * z / 40000) / denom
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.5 - half, abs=1e-12)
    assert hi == pytest.approx(0.5 + half, abs=1e-12)


def test_report_shape():
    tri = triangle()
    cfg = WalkConfig(length=3, trials=100, seed=3, target=(tri.vertices[2],))
    res = mixing_experiment(tri, tri.vertices[0], cfg)
    rep = report_json(res, target_names=["2"])
    assert rep["config"]["trials"] == 100
    assert rep["config"]["target"] == ["2"]
    assert rep["verdict"] in ("PASS", "FAIL")
    assert rep["exact_probability"] is not None
    assert rep["length_lemma"] == 3 and rep["length_theorem"] == 2


def test_exact_omitted_for_large_graphs():
    g = cycle_graph(81)
    cfg = WalkConfig(
        length=mixing_length(g, 1), trials=200, seed=5, target=(g.vertices[7],)
    )
    res = mixing_experiment(g, g.vertices[0], cfg)
    assert res.exact is None
