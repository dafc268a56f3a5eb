import os
import sys
import threading
import tracemalloc
from functools import cache
from math import sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocayley import cli, walks
from isocayley.abelian import FiniteAbelianGroup, full_subgroup, subgroup_generated
from isocayley.cayley import build
from isocayley.errors import InputError, PreconditionError
from isocayley.pathfind import _STEP2_STREAM_OFFSET
from isocayley.walks import (
    PhiloxGenerator,
    WalkConfig,
    exact_distribution,
    mixing_experiment,
    mixing_length,
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


def random_walk(g, start_idx, length, seed, trial):
    """The numpy oracle: the vertex index where trial's walk from start_idx
    ends, its slots drawn by trial_rng and folded through the step table."""
    i = start_idx
    for j in trial_rng(seed, trial).integers(0, g.degree, size=length):
        i = int(g.step_table[j, i])
    return i


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


def test_mixing_length_is_one_when_one_step_is_uniform():
    # c = 0: the identity loop and the generator of Z/2 cancel on the sign
    # character; a trivial subgroup has no nontrivial character at all
    g2 = FiniteAbelianGroup((2,))
    z2 = build(full_subgroup(g2), [("0", g2.identity), ("1", g2.element((1,)))])
    assert mixing_length(z2, 1) == 1
    g = FiniteAbelianGroup((4, 12))
    trivial = build(subgroup_generated(g, [g.identity]), [("0:0", g.identity)])
    assert mixing_length(trivial, 1) == 1


def test_theorem_length_drops_spectral_factor():
    tri = triangle()
    assert theorem_length(tri, 1) == 2  # ceil(ln 6)
    assert theorem_length(tri, 1) <= mixing_length(tri, 1)


def test_walk_length_zero_is_start():
    tri = triangle()
    assert walks._endpoints(tri, 2, 0, 5, 1).tolist() == [2] * 5
    assert walks._trial_steps(1, 0, tri.degree, 0) == []


def test_walk_deterministic_full_trajectory():
    # a trial's draws repeat, a shorter walk takes the first steps of a
    # longer one, and the bulk walks end where those steps lead
    g = cycle_graph(13)
    full = walks._trial_steps(42, 9, g.degree, 8)
    assert [walks._trial_steps(42, 9, g.degree, n) for n in range(9)] == [
        full[:n] for n in range(9)]
    ends = [0]
    for j in full:
        ends.append(int(g.step_table[j, ends[-1]]))
    assert [int(walks._endpoints(g, 0, n, 1, 42, 9)[0]) for n in range(9)] == ends


def test_single_step_uniform_chi_square():
    tri = triangle()
    counts = np.bincount(walks._endpoints(tri, 0, 1, 10**4, 13), minlength=3)
    assert counts[0] == 0
    # two equiprobable neighbors; 99% chi-square critical value, 1 dof
    chi2 = sum((c - 5000) ** 2 / 5000 for c in counts[1:])
    assert chi2 < 6.635, counts


def test_config_validation():
    tri = triangle()
    with pytest.raises(InputError):
        WalkConfig(length=-1, trials=10, seed=0, target=(tri.vertices[0],))
    with pytest.raises(InputError):
        WalkConfig(length=3, trials=0, seed=0, target=(tri.vertices[0],))
    with pytest.raises(InputError):
        WalkConfig(length=3, trials=10, seed=0, target=())
    with pytest.raises(InputError):
        WalkConfig(length=3, trials=10, seed=0, target=(tri.vertices[1], tri.vertices[1]))


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
            want = [random_walk(g, 3, length, seed, t) for t in range(200)]
            assert walks._endpoints(g, 3, length, 200, seed).tolist() == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1),
                   st.just(2**64 - 1)),
    trial=st.one_of(st.integers(0, 2**20),
                    st.integers(_STEP2_STREAM_OFFSET, _STEP2_STREAM_OFFSET + 2**20)),
    k=st.sampled_from([1, 2, 3, 5, 6, 16, 3 * 2**30, 2**32 - 1, 2**32]),
    length=st.integers(0, 400),
    window=st.sampled_from([4, 16, walks._WINDOW]),
)
@example(seed=2**63 + 12345, trial=_STEP2_STREAM_OFFSET, k=3 * 2**30, length=9, window=4)
@example(seed=2**63 + 12345, trial=_STEP2_STREAM_OFFSET, k=2**32, length=9, window=4)
@example(seed=5, trial=17, k=3 * 2**30, length=2 * 10**5, window=walks._WINDOW)
def test_walk_steps_match_trial_rng(seed, trial, k, length, window):
    """One trial's draws, one integers() call at a time from the Philox
    core, are numpy's integers(0, k, size=length) on its stream.  At
    k = 3 * 2^30 numpy rejects a quarter of the 32-bit draws, so the
    trials that _endpoints redoes are common here; k = 2^32 takes every
    draw whole.  Fetches of 4 blocks doubling up to the window, here as
    small as 4 blocks, change no draw; the long example reaches a third
    fetch of a full 2^13-block window."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "_WINDOW", window)
        got = walks._trial_steps(seed, trial, k, length)
    assert got == trial_rng(seed, trial).integers(0, k, size=length).tolist()


class _FoldTable:
    """A stand-in step table for graphs of up to 2^32 slots, too many to
    build: with order 1, the walk moves from i by slot j to
    (i + j) * 1000003 mod (2^31 - 1), so the end vertex folds every draw in
    order."""

    def ravel(self):
        return self

    def __getitem__(self, x):
        return (x * 1000003) % (2**31 - 1)


@pytest.mark.parametrize("k", [3 * 2**30, 2**32])
def test_walk_steps_fall_back_to_the_scalar_stream(monkeypatch, k):
    # at k = 3 * 2^30 numpy rejects a quarter of the 32-bit draws, so some
    # trials of _endpoints are flagged and redone by _trial_steps; at
    # k = 2^32 the threshold (2^32 - k) mod k is 0 and every draw is whole
    calls = []
    real_steps = walks._trial_steps

    def counted(seed, trial, k, length):
        calls.append(trial)
        return real_steps(seed, trial, k, length)

    monkeypatch.setattr(walks, "_trial_steps", counted)
    table = _FoldTable()
    graph = SimpleNamespace(degree=k, order=1, step_table=table)
    seed, first, trials, length = 2**63 + 12345, _STEP2_STREAM_OFFSET, 40, 9
    want = []
    for t in range(first, first + trials):
        i = 0
        for j in trial_rng(seed, t).integers(0, k, size=length).tolist():
            i = table[j + i]
        want.append(i)
    assert walks._endpoints(graph, 0, length, trials, seed, first).tolist() == want
    if k < 2**32:
        assert 0 < len(calls) < trials  # both paths ran
    else:
        assert calls == []


@pytest.mark.parametrize("k", [0, 2**32 + 1, 2**40])
def test_trial_steps_need_one_to_2_32_slots(k):
    # no graph reaches these: collect_neighbors and meet_from_target reject
    # an edgeless graph, and cayley.MAX_SLOTS keeps k far below 2^32
    with pytest.raises(InputError):
        walks._trial_steps(1, 0, k, 1)


_DRAW = st.one_of(
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), st.integers(1, 2**32)),
    st.tuples(st.just("integers"), st.integers(0, 2**20), st.integers(1, 10**4)),
    st.tuples(st.just("choice"), st.integers(2, 10**4)),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), draws=st.lists(_DRAW, min_size=1, max_size=40))
def test_philox_generator_matches_numpy(seed, draws):
    """PhiloxGenerator(seed) gives the draws of numpy's
    Generator(Philox(seed)), in any mix of integers() over 1 to 2^32 values
    (ranges near 2^32 reject up to half their draws) and two-value choice()."""
    ours = PhiloxGenerator(*walks._seed_key(seed))
    ref = np.random.Generator(np.random.Philox(seed))
    for draw in draws:
        if draw[0] == "choice":
            want = ref.choice(draw[1], size=2, replace=False).tolist()
            assert ours.choice(draw[1], size=2, replace=False) == want
        else:
            low, k = draw[1], draw[2]
            assert ours.integers(low, low + k) == int(ref.integers(low, low + k))


# a spoiled half holds 2^31: at k = 6 its draw is slot 3 with a low product
# word of 0, below numpy's rejection threshold (2^32 - 6) mod 6 = 4, though
# the full product is not
_SPOILED = np.uint64(0x8000000080000000)
_HALF = (np.uint64(0xFFFFFFFF), np.uint64(0xFFFFFFFF << 32))


def _spoil(x, i, b, half):
    x[i, b] = x[i, b] & _HALF[1 - half] | _SPOILED & _HALF[half]


def _bulk_call():
    """True inside _endpoints' own _philox_words calls, the bulk windows;
    a redone trial draws through PhiloxGenerator and must stay unspoiled,
    or it would reject forever."""
    return sys._getframe(2).f_code.co_name == "_endpoints"


@pytest.mark.parametrize("forced", [False, True])
def test_endpoints_across_chunks_match_random_walk(monkeypatch, forced):
    # forced: trials 0 mod 5 are spoiled in every bulk draw, and trials
    # 2 mod 5 in the one draw (t // 5) mod length; both must be redone by
    # _trial_steps, each on the stream of its own trial index.  Trials
    # 1 mod 5 are spoiled only in draws 5..7 of their last block, which the
    # walks below never make, and must not be redone.
    z12 = FiniteAbelianGroup((12,))
    g = build(full_subgroup(z12), [(f"{s}", z12.element((s,))) for s in (1, 11, 5, 7, 2, 10)])
    assert g.degree == 6
    redrawn = []
    length = None
    if forced:
        real, real_steps = walks._philox_words, walks._trial_steps

        def spoiling(seed, t0, trials, b0, b1):
            words = real(seed, t0, trials, b0, b1)
            if not _bulk_call():
                return words
            t = t0 + np.arange(trials)
            for x in words:
                x[t % 5 == 0] = _SPOILED
            for i in np.flatnonzero(t % 5 == 2):
                d = t[i] // 5 % length
                if b0 <= d // 8 < b1:
                    _spoil(words[d % 8 // 2], i, d // 8 - b0, d % 2)
            if 8 * b1 >= length:  # draw 4 of the last block ends the walk
                for i in np.flatnonzero(t % 5 == 1):
                    _spoil(words[2], i, -1, 1)
                    words[3][i, -1] = _SPOILED
            return words

        def counted(seed, trial, k, length):
            redrawn.append(trial)
            return real_steps(seed, trial, k, length)

        monkeypatch.setattr(walks, "_philox_words", spoiling)
        monkeypatch.setattr(walks, "_trial_steps", counted)
    window = walks._WINDOW
    # two full chunks of trials and a partial one, one block per window; and
    # fewer trials than the window, eight blocks per window.  Each walk
    # spans several windows and ends after draw 4 of a Philox block.  The
    # trials start at 0, as mix's do, or past the step-2 offset of paths
    for first in (0, _STEP2_STREAM_OFFSET + 3):
        for trials, length in ((2 * window + 17, 3 * 8 + 5), (window // 8 - 3, 2 * 64 + 13)):
            assert length % 8 == 5
            ts = range(first, first + trials)
            want = [random_walk(g, 3, length, 77, t) for t in ts]
            redrawn.clear()
            assert walks._endpoints(g, 3, length, trials, 77, first).tolist() == want
            assert redrawn == ([t for t in ts if t % 5 in (0, 2)] if forced else [])


@cache
def _graph_of_degree(k):
    """A Cayley graph with k generator slots: Z/2 with its self-inverse
    generator, the 7-cycle, or Z/4 x Z/12 with k/2 inverse pairs (at k = 16
    one pair twice)."""
    if k == 1:
        g = FiniteAbelianGroup((2,))
        gens = [("1", g.element((1,)))]
    else:
        g = FiniteAbelianGroup((7,) if k == 2 else (4, 12))
        cells = [(1,)] if k == 2 else [(1, 0), (0, 1), (1, 5), (2, 7),
                                       (3, 3), (1, 1), (0, 5), (0, 1)]
        gens = [(f"{s}{c}", g.element([s * x for x in c]))
                for c in cells[: k // 2] for s in (1, -1)]
    graph = build(full_subgroup(g), gens)
    assert graph.degree == k
    return graph


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 2, 4, 6, 16]),
    trials=st.integers(1, 100),
    length=st.integers(0, 90),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.just(2**64 - 1)),
    start=st.integers(0, 47),
    first=st.one_of(st.integers(0, 2**20),
                    st.integers(_STEP2_STREAM_OFFSET, _STEP2_STREAM_OFFSET + 2**20)),
)
def test_endpoints_match_random_walk_across_small_windows(k, trials, length, seed, start, first):
    # a window of 16 blocks: the trials split into chunks of up to 16, and
    # 16 // n blocks per window put window edges inside short walks; powers
    # of two skip the rejection test, 6 does not.  The trials start at first,
    # as those of both path-search steps do
    g = _graph_of_degree(k)
    start %= g.order
    want = [random_walk(g, start, length, seed, first + t) for t in range(trials)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "_WINDOW", 16)
        assert walks._endpoints(g, start, length, trials, seed, first).tolist() == want


@pytest.mark.parametrize("trials, length", [(10**5, 31), (10**4, 1000), (100, 10**5)])
def test_endpoints_memory_does_not_grow_with_the_product(trials, length):
    # above the trials-long positions array only one Philox window and its
    # draws are live (about 1.2 MiB at k = 6, rejection test included)
    g = _graph_of_degree(6)
    g.step_table  # built before tracing
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        walks._endpoints(g, 0, length, trials, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - 8 * trials <= 2 * 2**20, peak / 2**20


# a 300-trial experiment in windows of 64 trials: at most four processes,
# and two CPUs split it at trial 150
_SPLIT_WINDOW, _SPLIT_TRIALS, _SPLIT_AT = 64, 300, 150


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch):
    """The pids that os.fork returns to the forking process."""
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_split_walks_match_one_serial_call(monkeypatch, cpus):
    # trials 0 and 151 are spoiled in every bulk draw, and trials 149 and
    # 150, on both sides of the split, in draw t mod length only; each is
    # redone by _trial_steps in whichever process draws it.  Trial 0 is the
    # one drawn before the fork
    g = _graph_of_degree(6)
    length, seed = 53, 41
    real = walks._philox_words

    def spoiling(seed, t0, trials, b0, b1):
        words = real(seed, t0, trials, b0, b1)
        if not _bulk_call():
            return words
        t = t0 + np.arange(trials)
        for x in words:
            x[(t == 0) | (t == _SPLIT_AT + 1)] = _SPOILED
        for i in np.flatnonzero((t == _SPLIT_AT - 1) | (t == _SPLIT_AT)):
            d = t[i] % length
            if b0 <= d // 8 < b1:
                _spoil(words[d % 8 // 2], i, d // 8 - b0, d % 2)
        return words

    monkeypatch.setattr(walks, "_philox_words", spoiling)
    monkeypatch.setattr(walks, "_WINDOW", _SPLIT_WINDOW)
    serial = walks._endpoints(g, 0, length, _SPLIT_TRIALS, seed)
    assert serial.tolist() == [random_walk(g, 0, length, seed, t) for t in range(_SPLIT_TRIALS)]
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(walks, "_cpu_count", lambda: cpus)
    target = tuple(g.vertices[i] for i in (0, 5, 17, 40))
    cfg = WalkConfig(length=length, trials=_SPLIT_TRIALS, seed=seed, target=target)
    result = mixing_experiment(g, g.vertices[0], cfg)
    _no_child_left()
    hits = int(np.isin(serial, [g.vertex_index(v) for v in target]).sum())
    assert result.frequency == hits / _SPLIT_TRIALS
    assert result.interval == wilson_interval(hits, _SPLIT_TRIALS)
    # one process for each CPU, up to one per full window of trials
    assert len(forks) == min(cpus, _SPLIT_TRIALS // _SPLIT_WINDOW) - 1
    split = walks._split_endpoints(g, 0, length, _SPLIT_TRIALS, seed)
    _no_child_left()
    assert split.tolist() == serial.tolist()


def test_split_walks_draw_here_when_fork_fails(monkeypatch):
    # a worker that cannot be forked (EAGAIN at the process limit) leaves
    # its range to this process
    g = _graph_of_degree(6)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(walks, "_WINDOW", _SPLIT_WINDOW)
    monkeypatch.setattr(walks, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    got = walks._split_endpoints(g, 5, 53, _SPLIT_TRIALS, 9)
    assert got.tolist() == walks._endpoints(g, 5, 53, _SPLIT_TRIALS, 9).tolist()


def test_no_split_beside_other_threads():
    # a forked worker would inherit the locks of the other threads held
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert walks._cpu_count() == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert walks._cpu_count() == len(os.sched_getaffinity(0))


def test_short_experiment_is_not_split(monkeypatch):
    # fewer than two full windows of trials: one _endpoints call, no fork
    g = _graph_of_degree(6)
    monkeypatch.setattr(walks, "_WINDOW", _SPLIT_WINDOW)
    monkeypatch.setattr(walks, "_cpu_count", lambda: 2)
    forks = _counted_forks(monkeypatch)
    cfg = WalkConfig(length=53, trials=2 * _SPLIT_WINDOW - 1, seed=3, target=(g.vertices[1],))
    mixing_experiment(g, g.vertices[0], cfg)
    assert forks == []


def test_failed_walk_worker_exits_4(monkeypatch, capsys, tmp_path):
    real = walks._endpoints

    def failing(graph, start_idx, length, trials, seed, first=0):
        if first == _SPLIT_AT:  # the worker's range
            raise RuntimeError("worker fails")
        return real(graph, start_idx, length, trials, seed, first)

    monkeypatch.setattr(walks, "_endpoints", failing)
    monkeypatch.setattr(walks, "_WINDOW", _SPLIT_WINDOW)
    monkeypatch.setattr(walks, "_cpu_count", lambda: 2)
    rc = cli.main(["mix", "-D", "-8011", "--bound", "20", "--trials", str(_SPLIT_TRIALS),
                   "--target", "id", "--seed", "5", "--out", str(tmp_path / "mix")])
    err = capsys.readouterr().err
    _no_child_left()
    assert rc == cli.EXIT_INTERNAL
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error (internal-consistency): walk worker failed on trials 150..299")
    assert "Traceback" not in err


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
