"""Whole-artifact acceptance checks.

Nine checks, one test function each, with frozen instance lists and stated
tolerances.  Every test ends by printing a one-line summary (visible with
``pytest -s``); the pytest verdict itself is the pass/fail signal.  Timed
checks assert their own wall-clock budget so a regression in speed fails
loudly rather than silently.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from isocayley import abelian, cayley, ecgraph, pathfind, quadform, walks
from isocayley.errors import PreconditionError
from isocayley.ntheory import kronecker


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _class_graph(d: int, bound: int) -> cayley.CayleyGraph:
    cls = quadform.class_group(d)
    sub = abelian.full_subgroup(cls.group)
    gens = quadform.generating_multiset(cls, bound, sub)
    return cayley.build(sub, [(g.label, g.element) for g in gens])


def _cyclic_graph(n: int, steps) -> cayley.CayleyGraph:
    grp = abelian.FiniteAbelianGroup((n,))
    sub = abelian.full_subgroup(grp)
    gens = []
    for s in steps:
        fwd = grp.element((s,))
        gens.append((f"+{s}", fwd))
        gens.append((f"-{s}", abelian.op_inv(fwd)))
    return cayley.build(sub, gens)


def _random_group(rng) -> abelian.FiniteAbelianGroup:
    """Random invariant-factor chain with order in [2, 512]."""
    while True:
        k = int(rng.integers(1, 4))
        d = int(rng.integers(2, 17))
        invs = [d]
        for _ in range(k - 1):
            d *= int(rng.integers(1, 5))
            invs.append(d)
        grp = abelian.FiniteAbelianGroup(tuple(invs))
        if grp.order <= 512:
            return grp


def _random_generators(rng, grp, allow_identity: bool):
    """A symmetric labeled multiset of 1..4 random pairs (plus inverses)."""
    gens = []
    for i in range(int(rng.integers(1, 5))):
        e = grp.element(tuple(int(rng.integers(0, m)) for m in grp.invariants))
        gens.append((f"g{i}", e))
        gens.append((f"g{i}~", abelian.op_inv(e)))
    if allow_identity and rng.random() < 0.25:
        gens.append(("e", grp.identity))
    return gens


# ---------------------------------------------------------------------------
# 1. class-number exactness against direct reduced-form enumeration
# ---------------------------------------------------------------------------

def _reduced_class_count(d: int) -> int:
    """Count primitive reduced forms (a, b, c) of discriminant d < 0.

    Reduction: -a < b <= a <= c with b >= 0 when a == b or a == c.  The loop
    walks b of the right parity with 3b^2 <= |d|, splits (b^2 - d)/4 into
    a * c, and counts the +-b pair once or twice as the boundary cases demand.
    """
    count = 0
    b = (-d) % 2
    while 3 * b * b <= -d:
        m = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    count += 1 if (b == 0 or a == b or a == c) else 2
            a += 1
        b += 2
    return count


def test_criterion_1_class_numbers_match_enumeration():
    rng = np.random.default_rng(20260815)
    discs = []
    while len(discs) < 200:
        d = -int(rng.integers(3, 10**5 + 1))
        if d % 4 in (0, 1):
            discs.append(d)
    t0 = time.perf_counter()
    for d in discs:
        got = quadform.class_group(d).order
        want = _reduced_class_count(d)
        assert got == want, f"class number mismatch at D={d}: {got} != {want}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"class-number check took {elapsed:.1f}s"
    print(f"criterion 1: PASS - 200/200 class numbers match enumeration "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. character spectra agree with numeric spectra on random graphs
# ---------------------------------------------------------------------------

def test_criterion_2_spectrum_duality(numeric_spectrum):
    rng = np.random.default_rng(271828)
    checked = 0
    while checked < 50:
        grp = _random_group(rng)
        sub = abelian.full_subgroup(grp)
        gens = _random_generators(rng, grp, allow_identity=True)
        graph = cayley.build(sub, gens)
        spec = cayley.spectrum_by_characters(graph)

        by_char = np.sort(np.asarray(spec.sorted_values(), dtype=np.float64))
        numeric = np.sort(np.asarray(numeric_spectrum(graph)))
        assert by_char.shape == numeric.shape
        assert np.max(np.abs(by_char - numeric)) <= 1e-9

        assert spec.lambda_triv == graph.degree == len(gens)

        ident_mult = sum(1 for _, e in gens if e == grp.identity)
        assert abs(by_char.sum() - graph.order * ident_mult) <= 1e-6
        checked += 1
    print("criterion 2: PASS - 50/50 graphs, char vs numeric <= 1e-9, "
          "trace identity <= 1e-6")


# ---------------------------------------------------------------------------
# 3. the order-3 class group over the primes above 2 is a triangle
# ---------------------------------------------------------------------------

def test_criterion_3_triangle_spectrum():
    # bound 3 admits only the prime 2, which splits: two generators
    graph = _class_graph(-23, bound=3)
    assert graph.order == 3 and graph.degree == 2

    spec = cayley.spectrum_by_characters(graph)
    vals = np.sort(np.asarray(spec.sorted_values(), dtype=np.float64))
    # exact values {-1, -1, 2}; character sums leave ~1e-16 float residue
    assert np.max(np.abs(vals - np.array([-1.0, -1.0, 2.0]))) <= 1e-12

    _, delta2, _ = cayley.expansion(spec)
    assert abs(delta2 - 0.5) <= 1e-12
    print("criterion 3: PASS - spectrum {2, -1, -1} and two-sided delta 1/2 "
          "within 1e-12")


# ---------------------------------------------------------------------------
# 4. mixing bound holds empirically on randomized instances
# ---------------------------------------------------------------------------

def test_criterion_4_mixing_lemma():
    rng = np.random.default_rng(31337)
    trials = 10**5
    t0 = time.perf_counter()
    done = small = 0
    while done < 50:
        grp = _random_group(rng)
        sub = abelian.full_subgroup(grp)
        graph = cayley.build(sub, _random_generators(rng, grp, allow_identity=False))
        w_size = int(rng.integers(1, max(2, graph.order // 2 + 1)))
        try:
            length = walks.mixing_length(graph, w_size)
        except PreconditionError:
            continue  # not a two-sided expander; premises not met
        if length > 64:
            continue  # meets premises but too slow to walk 1e5 times
        idx = rng.choice(graph.order, size=w_size, replace=False)
        target = tuple(graph.vertices[int(i)] for i in idx)
        start = graph.vertices[int(rng.integers(graph.order))]

        cfg = walks.WalkConfig(length=length, trials=trials,
                               seed=9000 + done, target=target)
        result = walks.mixing_experiment(graph, start, cfg)
        assert result.verdict == "PASS", (
            f"hit frequency {result.frequency:.4f} outside band {result.band} "
            f"on order-{graph.order} graph")

        if graph.order <= 64:
            # same seed reproduces the very walks the experiment scored
            pos = walks._endpoints(graph, graph.vertex_index(start),
                                   length, trials, cfg.seed)
            emp = np.bincount(pos, minlength=graph.order) / trials
            exact = walks.exact_distribution(graph, start, length)
            tv = 0.5 * float(np.abs(emp - exact).sum())
            sigma = 0.5 * float(np.sqrt(exact * (1.0 - exact) / trials).sum())
            assert tv <= 3.0 * sigma, f"TV {tv:.5f} > 3 sigma {3 * sigma:.5f}"
            small += 1
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"mixing check took {elapsed:.0f}s"
    print(f"criterion 4: PASS - 50/50 triples in band, {small} small cases "
          f"within 3 sigma TV ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. eigenvalue error envelope over the B-scan (report, not a hard assert:
#    the underlying estimate is conditional)
# ---------------------------------------------------------------------------

def test_criterion_5_envelope_report():
    notes = []
    for d in (-23, -47, -71, -115, -123):
        cls = quadform.class_group(d)
        sub = abelian.full_subgroup(cls.group)
        _, rows = cayley.find_expander_bound(cls, sub, 0.0, 10**4)
        assert rows
        fitted = max(
            abs(r.lambda_triv - r.li_over_index)
            / (math.sqrt(r.b) * math.log(r.b * abs(d)))
            for r in rows)
        assert math.isfinite(fitted)
        notes.append(f"D={d}: C={fitted:.3f} ({len(rows)} grid points)")
    print("criterion 5: PASS (report) - " + "; ".join(notes))


# ---------------------------------------------------------------------------
# 6. path search: certificates replay, lengths capped, trial counts bounded
# ---------------------------------------------------------------------------

def test_criterion_6_pathfinding_bound():
    assert pathfind.expected_trials_bound(9, 3) == Fraction(12)

    grp77 = abelian.FiniteAbelianGroup((7, 7))
    sub77 = abelian.full_subgroup(grp77)
    gens77 = []
    for v in [(1, 0), (0, 1), (1, 3), (2, 5)]:
        e = grp77.element(v)
        gens77.append((f"{v[0]}.{v[1]}", e))
        gens77.append((f"{v[0]}.{v[1]}~", abelian.op_inv(e)))

    graphs = [
        ("Z/9 steps 1,2", _cyclic_graph(9, [1, 2])),
        ("Cl(-8011) B=20", _class_graph(-8011, 20)),
        ("(Z/7)^2", cayley.build(sub77, gens77)),
        ("Cl(-29087) B=42", _class_graph(-29087, 42)),
        ("Cl(-99599) B=32", _class_graph(-99599, 32)),
    ]
    rng = np.random.default_rng(4)
    notes = []
    for name, graph in graphs:
        h = graph.order
        cap = 2 * math.ceil(math.log(2 * h))
        n = math.isqrt(h - 1) + 1  # ceil(sqrt(h))
        bound = float(pathfind.expected_trials_bound(h, n))
        step1 = []
        for seed in range(200):
            a = graph.vertices[int(rng.integers(h))]
            b = graph.vertices[int(rng.integers(h))]
            cert, stats = pathfind.find_path(graph, a, b, seed)
            assert pathfind.replay(graph, cert), f"{name}: replay failed"
            assert cert.length <= cap, f"{name}: length {cert.length} > {cap}"
            step1.append(stats.step1_trials)
        mean = float(np.mean(step1))
        limit = bound + 3.0 * float(np.std(step1, ddof=1)) / math.sqrt(200)
        assert mean <= limit, f"{name}: mean trials {mean:.2f} > {limit:.2f}"
        notes.append(f"{name} h={h} mean={mean:.1f}<={limit:.1f}")
    print("criterion 6: PASS - " + "; ".join(notes))


# ---------------------------------------------------------------------------
# 7. isogeny graphs on frozen (p, t) instances match their class groups
# ---------------------------------------------------------------------------

# all with fundamental t^2 - 4p and class number between 1 and 25
_PT_INSTANCES = [
    (31, 3), (31, 1), (23, 3), (23, 1), (37, 3), (41, 3), (43, 3),
    (47, 1), (53, 5), (59, 5), (61, 7), (71, 5), (83, 5), (101, 3),
]


def test_criterion_7_isogeny_graph_instances():
    worst = 0.0
    for p, t in _PT_INSTANCES:
        t0 = time.perf_counter()
        d = t * t - 4 * p
        # inert primes stay in: the degree law below expects 0 edges for them
        ells = tuple(ell for ell in (3, 5, 7, 11, 13) if ell != p)
        graph = ecgraph.build_isogeny_graph(p, t, ells)

        h = quadform.class_group(d).order
        assert 1 <= h <= 25
        assert len(graph.vertices) == h, (p, t)

        for j in graph.vertices:
            for ell in ells:
                out = sum(1 for e in graph.edges
                          if e.source_j == j and e.ell == ell)
                assert out == 1 + kronecker(d, ell), (p, t, j, ell)

        for e in graph.edges:
            a, b = e.velu_model
            # curve() re-counts the model from scratch to fill in the trace
            assert ecgraph.curve(p, a, b).t == t, (p, t, e.ell)

        report = ecgraph.compare_to_cayley(graph)
        assert report.verdict == "PASS", (p, t, report.failed)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"(p={p}, t={t}) took {elapsed:.0f}s"
        worst = max(worst, elapsed)
    print(f"criterion 7: PASS - {len(_PT_INSTANCES)} instances, slowest "
          f"{worst:.1f}s")


# ---------------------------------------------------------------------------
# 8. planted discrete logs transfer along found paths
# ---------------------------------------------------------------------------

def test_criterion_8_dlp_transfer():
    t0 = time.perf_counter()
    graph = ecgraph.build_isogeny_graph(2003, 1, (5, 7))
    assert len(graph.vertices) == 25
    for seed in range(50):
        tr = ecgraph.run_dlp_demo(2003, 1, [5, 7], seed=seed, graph=graph)
        assert tr["method"] == "random-walk"
        assert tr["verified"] is True
        assert tr["recovered_r"] == tr["planted_r"], seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"transfer check took {elapsed:.0f}s"
    print(f"criterion 8: PASS - 50/50 planted logs recovered ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 9. CLI runs are byte-identical under identical seeds
# ---------------------------------------------------------------------------

def _run_cli(argv, out_dir, env):
    r = subprocess.run(
        [sys.executable, "-m", "isocayley.cli", *argv, "--out", str(out_dir)],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
    assert "manifest.json" in files
    return files


def test_criterion_9_cli_reproducibility(tmp_path, subprocess_env):
    cases = {
        "spectrum": ["spectrum", "-D", "-23", "--bound", "3", "--seed", "7"],
        "dlpdemo": ["dlpdemo", "-p", "31", "-t", "3", "-L", "7", "--seed", "3"],
    }
    total = 0
    for name, argv in cases.items():
        first = _run_cli(argv, tmp_path / f"{name}-a", subprocess_env)
        second = _run_cli(argv, tmp_path / f"{name}-b", subprocess_env)
        assert first.keys() == second.keys()
        for fname in first:
            assert first[fname] == second[fname], f"{name}/{fname} differs"
        total += len(first)
        manifest = json.loads(first["manifest.json"])
        assert manifest["seed"] == int(argv[argv.index("--seed") + 1])
    print(f"criterion 9: PASS - {total} artifacts byte-identical across reruns")
