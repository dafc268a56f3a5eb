"""Seeded random walks on Cayley graphs and the mixing-lemma harness.

Randomness comes from the Philox4x64-10 counter-based generator (Salmon et
al., SC'11).  Trial t of an experiment with master seed s draws from the
stream keyed by the words (t, s), so the trial-to-stream map is a pure
function of (seed, trial index): any execution order, or a parallel run,
produces the same statistics.  Walk steps pick uniformly among the k
generator slots, multiplicity included, matching the adjacency operator.

The step draws of trial t are exactly
``trial_rng(seed, t).integers(0, k, size=length)``, numpy's stream for that
key; ``trial_rng`` is kept as the reference definition of the stream, and
the package never calls it.  One vectorised core, ``_philox_words``,
replays the Philox blocks of many trials at once, bit for bit, and every
walk draws from it:

* the key words are (t, seed), and the first 4 x 64-bit block of a trial
  uses counter 1, because numpy increments the counter before it fills its
  buffer;
* each 64-bit word gives two 32-bit draws, its low half first;
* draw j is (u32 * k) >> 32, numpy's Lemire multiply-shift for k < 2^32
  (Lemire, ACM TOMACS 2019).  A draw whose low product word is below
  (2^32 - k) mod k is rejected and replaced by the next 32 bits, which
  shifts the rest of the trial.

``_endpoints`` streams the end vertices of a run of trials, for the bulk
walks of :func:`mixing_experiment` and for both steps of the path search.
It streams through one window of about 2^13 Philox blocks: all the trials,
up to 2^13, by as many blocks as fit.  Each draw column, pre-scaled by the
group order, moves every position of the window with one 1-D gather on the
flattened step table, and a trial's rejection flag is the running minimum
of its low product words.  Memory stays at about a megabyte above the end
positions, whatever the trial count and length.  A trial with a rejection
is drawn again, one draw at a time, by ``_trial_steps``, which also gives
the slot draws of the two trials whose walks a path certificate records.

Only :func:`mixing_experiment` splits its trials over processes.  With c >=
2 CPUs in the process's affinity mask and at least two full windows of
trials, ``_split_endpoints`` cuts them into min(c, trials // _WINDOW)
contiguous ranges, draws the first and forks one worker for each other
range; every process runs ``_endpoints`` on its range and writes into one
shared anonymous map of int64 end positions.  Since a trial's end vertex is
a pure function of (seed, trial), the split cannot move an artifact byte:
pinned to one CPU (``taskset -c 0``) the experiment takes the one-process
path and writes the same bytes.  Each process holds one window above the
shared positions.  A path search's windows hold at most one _WINDOW of
trials, so both of its steps stay in one process.

:class:`PhiloxGenerator` makes those one-at-a-time draws from the same
core, and serves the discrete-log demo too: keyed by
``_seed_key(seed)``, numpy's ``SeedSequence(seed).generate_state(2,
np.uint64)`` recomputed in Python, it gives exactly the draws of numpy's
``Generator(Philox(seed))`` for ``integers(low, high)`` over 1 to 2^32
values and for ``choice(n, size=2, replace=False)``.  Its integers are
numpy's Lemire draws from the 32-bit halves, and a two-value choice is
Floyd's algorithm plus one swap draw.  So no walk and no demo imports
``numpy.random``, and no artifact depends on numpy's ``Generator``
methods, whose streams NumPy's policy (NEP 19) does not promise to keep
across versions.
"""
from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, replace
from math import ceil, log, sqrt
from typing import Optional, Sequence

import numpy as np

from .cayley import CayleyGraph, expansion, spectrum_by_characters
from .errors import InputError, InternalConsistencyError, PreconditionError

__all__ = [
    "WalkConfig",
    "ExperimentResult",
    "trial_rng",
    "PhiloxGenerator",
    "mixing_length",
    "theorem_length",
    "exact_distribution",
    "mixing_experiment",
    "report_json",
]

_MASK64 = (1 << 64) - 1

# 99% two-sided normal quantile for the Wilson interval
_Z99 = 2.5758293035489004

_EXACT_LIMIT = 64
# work cap of one experiment: trials x length step draws and table lookups
MAX_DRAWS = 10**7
# _endpoints draws about this many Philox blocks (8 draws each) at a time
_WINDOW = 1 << 13

# Philox4x64 round multipliers and key bumps
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_M32 = 0xFFFFFFFF

# numpy's SeedSequence hash and mix constants (pool of four 32-bit words)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
# Philox blocks (32 draws) of PhiloxGenerator's first _philox_words call;
# each later call fetches twice as many, up to _WINDOW
_GEN_BLOCKS = 4


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """numpy's Philox stream for one trial, key = (seed << 64) | trial: the
    reference definition of the draws that _endpoints and _trial_steps
    replay.  The package never calls it; the tests use it as the oracle."""
    key = ((seed & _MASK64) << 64) | (trial & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * m; the high word from 32-bit limbs
    (Warren, Hacker's Delight, mulhu)."""
    a0, a1 = a & _LO32, a >> _U32
    m0, m1 = m & _LO32, m >> _U32
    t = a1 * m0
    t += (a0 * m0) >> _U32
    w = t & _LO32
    w += a0 * m1
    hi = a1 * m1
    hi += t >> _U32
    hi += w >> _U32
    return hi, a * m


def _philox_words(seed: int, first: int, trials: int, b0: int, b1: int):
    """The four output words of the Philox blocks with counters b0 + 1 .. b1
    under the keys (first + i, seed), each a (trials, b1 - b0) uint64 array:
    block b of trial i is the 8 draws of words[0][i, b] .. words[3][i, b],
    low half first."""
    k0 = (np.uint64(first & _MASK64) + np.arange(trials, dtype=np.uint64))[:, None]
    k1 = np.full((1, 1), seed & _MASK64, dtype=np.uint64)
    x0 = np.arange(b0 + 1, b1 + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
    # the words broadcast to (trials, blocks) as the rounds mix key and
    # counter: the first two rounds run mostly on one row or one column
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(x0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(x2, _PHILOX_M1)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


def _seed_key(seed: int) -> tuple[int, int]:
    """The key words numpy's Philox(seed) takes from its SeedSequence:
    SeedSequence(seed).generate_state(2, np.uint64)."""
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _SS_MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_SS_MIX_L * x - _SS_MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hash_const = [], _SS_INIT_B
    for value in pool:
        value ^= hash_const
        hash_const = hash_const * _SS_MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


class PhiloxGenerator:
    """The draws of numpy's ``Generator`` on the Philox stream with key
    words (k0, k1), for ``integers(low, high)`` with 1 <= high - low <= 2^32
    and for ``choice(n, size=2, replace=False)``, bit for bit, from
    ``_philox_words``.

    ``_seed_key(seed)`` gives the key words of numpy's ``Philox(seed)``,
    and (t, seed) are those of trial t of a walk, ``trial_rng(seed, t)``.
    Blocks are fetched ``_GEN_BLOCKS`` at a time, doubling up to
    ``_WINDOW``, counters from 1, and their four words used in order.
    Every draw takes 32 bits, a word's low half first and then its high
    half, as numpy's next_uint32 does across calls.
    """

    def __init__(self, k0: int, k1: int):
        self._draw32 = self._halves(k0, k1).__next__

    @staticmethod
    def _halves(k0: int, k1: int):
        b0, n = 0, _GEN_BLOCKS
        while True:
            words = np.stack([w[0] for w in _philox_words(k1, k0, 1, b0, b0 + n)], axis=1)
            yield from np.stack([words & _LO32, words >> _U32], axis=2).ravel().tolist()
            b0, n = b0 + n, min(2 * n, _WINDOW)

    def integers(self, low: int, high: int) -> int:
        """numpy's Lemire multiply-shift with its rejection threshold; a
        range of one value makes no draw."""
        k = high - low
        if not 1 <= k <= 1 << 32:
            raise InputError(f"integers() range of {k} values is outside [1, 2^32]")
        if k == 1:
            return low
        threshold = ((1 << 32) - k) % k
        while True:
            m = self._draw32() * k
            if m & _M32 >= threshold:
                return low + (m >> 32)

    def choice(self, n: int, size: int = 2, replace: bool = False) -> list[int]:
        """numpy's branch for two distinct values of range(n): Floyd's
        algorithm, then one draw in [0, 1] that swaps the pair on 0."""
        if size != 2 or replace or n < 2:
            raise InputError("choice() draws exactly two distinct values from n >= 2")
        pair = [self.integers(0, n - 1), self.integers(0, n)]
        if pair[1] == pair[0]:
            pair[1] = n - 1
        if self.integers(0, 2) == 0:
            pair.reverse()
        return pair


def _products(words, k: int):
    """The Lemire products u * k of the 8 draws of each block, in draw
    order: draw j of the block is products[j] >> 32, and numpy rejects it
    when its low 32 bits are below (2^32 - k) mod k."""
    kk = np.uint64(k)
    for x in words:
        yield (x & _LO32) * kk
        yield (x >> _U32) * kk


def _trial_steps(seed: int, trial: int, k: int, length: int) -> list[int]:
    """The slot draws of one trial's walk: exactly
    ``trial_rng(seed, trial).integers(0, k, size=length).tolist()``."""
    draw = PhiloxGenerator(trial, seed).integers
    return [draw(0, k) for _ in range(length)]


def mixing_length(graph: CayleyGraph, w_size: int) -> int:
    """ceil( ln(2|H| / sqrt|W|) / ln(k/c) ), using the measured gap.

    c = 0 makes one step exactly uniform; the bound tends to 1 as c -> 0.
    """
    if not 1 <= w_size <= graph.order:
        raise InputError(f"target size {w_size} out of range for order {graph.order}")
    _, _, c = expansion(spectrum_by_characters(graph))
    k = graph.degree
    if c >= k:
        raise PreconditionError(
            f"not a two-sided expander (c = {c:.6g}, k = {k}); mixing length diverges"
        )
    if c == 0:
        return 1
    return ceil(log(2 * graph.order / sqrt(w_size)) / log(k / c))


def theorem_length(graph: CayleyGraph, w_size: int) -> int:
    """ceil( ln(2|H| / sqrt|W|) ): the headline walk length, without the
    spectral 1/ln(k/c) factor; reported alongside mixing_length."""
    if not 1 <= w_size <= graph.order:
        raise InputError(f"target size {w_size} out of range for order {graph.order}")
    return ceil(log(2 * graph.order / sqrt(w_size)))


@dataclass(frozen=True)
class WalkConfig:
    length: Optional[int]  # None: the mixing length for |W|
    trials: int
    seed: int
    target: tuple  # vertices

    def __post_init__(self) -> None:
        if self.length is not None and self.length < 0:
            raise InputError("length must be >= 0")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not self.target:
            raise InputError("target set W must be nonempty")
        if len(set(self.target)) != len(self.target):
            raise InputError("target set W lists a vertex twice")


def _endpoints(graph: CayleyGraph, start_idx: int, length: int, trials: int, seed: int,
               first: int = 0) -> np.ndarray:
    """End-vertex indices of the walks of the trials first, ..., first +
    trials - 1.

    The walks are drawn one window of about _WINDOW Philox blocks at a time,
    n = min(trials, _WINDOW) trials by _WINDOW // n blocks, so memory stays
    bounded whatever the trial count and length.  Each draw, pre-scaled by
    the order, moves the n positions with one gather on the flattened step
    table.  The running minimum of each trial's low product words flags its
    Lemire rejections (none when (2^32 - k) mod k = 0); a flagged trial is
    redone from the draws of _trial_steps."""
    pos = np.full(trials, start_idx, dtype=np.int64)
    k = graph.degree
    flat = graph.step_table.ravel()
    threshold = np.uint64(((1 << 32) - k) % k)
    blocks = -(-length // 8)
    n = min(trials, _WINDOW)
    nb = _WINDOW // n
    redo = []
    for lo in range(0, trials, n):
        m = min(n, trials - lo)
        at = pos[lo : lo + m]
        low = np.full(m, _LO32)
        for b0 in range(0, blocks, nb):
            left = length - 8 * b0  # draws still to make
            b1 = min(blocks, b0 + nb)
            cols = []
            for j, prod in enumerate(_products(_philox_words(seed, first + lo, m, b0, b1), k)):
                if threshold:  # only the draws the walk makes count
                    used = prod[:, : -(-(left - j) // 8)] & _LO32
                    np.minimum(low, used.min(axis=1, initial=_LO32), out=low)
                cols.append((prod >> _U32).view(np.int64) * graph.order)
            for b in range(b1 - b0):
                for col in cols[: left - 8 * b]:
                    at = flat[col[:, b] + at]
            del cols  # free the window before the next one is drawn
        pos[lo : lo + m] = at
        redo.extend(lo + np.flatnonzero(low < threshold))
    for t in redo:
        i = start_idx
        for j in _trial_steps(seed, first + int(t), k, length):
            i = flat[j * graph.order + i]
        pos[t] = i
    return pos


def _cpu_count() -> int:
    """The CPUs in this process's affinity mask; 1 where the platform
    cannot fork or has no mask, or while other Python threads run, whose
    locks a forked worker would inherit held."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _split_endpoints(graph: CayleyGraph, start_idx: int, length: int, trials: int,
                     seed: int) -> np.ndarray:
    """``_endpoints(graph, start_idx, length, trials, seed)``, drawn by one
    process per CPU of the affinity mask, at most one per full _WINDOW of
    trials; with fewer than two, by one _endpoints call.

    The trials split into contiguous ranges.  This process draws the
    first, and a worker forked for each other range draws it into the same
    shared anonymous map of int64 positions.  Trial 0's walk is drawn
    before the fork, so every worker starts with numpy's routines warm.  A
    worker that fails raises InternalConsistencyError here, and every
    worker is reaped before this returns or raises."""
    parts = min(_cpu_count(), trials // _WINDOW)
    if parts < 2:
        return _endpoints(graph, start_idx, length, trials, seed)
    import mmap

    pos = np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.int64)
    cuts = [trials * i // parts for i in range(parts + 1)]
    pos[:1] = _endpoints(graph, start_idx, length, 1, seed)
    mine, workers = [(1, cuts[1])], {}
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: draw the range here
                mine.append((lo, hi))
                continue
            if pid == 0:  # worker: never returns
                code = 1
                try:
                    pos[lo:hi] = _endpoints(graph, start_idx, length, hi - lo, seed, lo)
                    code = 0
                finally:
                    os._exit(code)
            workers[pid] = (lo, hi)
        for lo, hi in mine:
            pos[lo:hi] = _endpoints(graph, start_idx, length, hi - lo, seed, lo)
    finally:
        failed = []
        for pid, (lo, hi) in workers.items():
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                failed.append(f"trials {lo}..{hi - 1} (exit status {code})")
    if failed:
        raise InternalConsistencyError(f"walk worker failed on {', '.join(failed)}")
    return pos


def exact_distribution(graph: CayleyGraph, start, length: int) -> np.ndarray:
    """Exact end-vertex distribution, one gather over the step table a step.

    Every slot is paired with its inverse, so the adjacency matrix is
    symmetric and ``row @ (adjacency / k)`` at vertex j is the sum of
    ``row`` over j's k neighbours, divided by k.  That sum is numpy's own
    row-by-row reduction, not a BLAS product, so the bytes do not depend on
    the BLAS kernel."""
    if graph.degree == 0:
        raise PreconditionError("walk on an edgeless graph")
    row = np.zeros(graph.order)
    row[graph.vertex_index(start)] = 1.0
    for _ in range(length):
        row = row[graph.step_table].sum(axis=0) / graph.degree
    return row


def wilson_interval(hits: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentResult:
    config: WalkConfig
    frequency: float
    interval: tuple[float, float]
    band: tuple[float, float]
    verdict: str
    exact: Optional[float]
    length_lemma: int
    length_theorem: int


def mixing_experiment(graph: CayleyGraph, start, cfg: WalkConfig) -> ExperimentResult:
    """Hit-frequency test of the two-sided mixing bound.

    Walks of cfg.length from start; PASS iff the Wilson 99% interval for the
    landing frequency intersects [|W|/(2|H|), 3|W|/(2|H|)].  Requires
    cfg.length >= mixing_length(graph, |W|); a length of None walks exactly
    that far, and the result's config carries the resolved length.
    """
    w_idx = sorted(graph.vertex_index(v) for v in cfg.target)
    need = mixing_length(graph, len(w_idx))
    if cfg.length is None:
        cfg = replace(cfg, length=need)
    elif cfg.length < need:
        raise PreconditionError(
            f"walk length {cfg.length} below the mixing length {need}"
        )
    if cfg.trials * cfg.length > MAX_DRAWS:
        raise PreconditionError(
            f"{cfg.trials} trials of length {cfg.length} exceed the cap of "
            f"{MAX_DRAWS} step draws"
        )
    pos = _split_endpoints(graph, graph.vertex_index(start), cfg.length, cfg.trials, cfg.seed)
    in_w = np.zeros(graph.order, dtype=bool)
    in_w[w_idx] = True
    hits = int(np.count_nonzero(in_w[pos]))
    freq = hits / cfg.trials
    lo, hi = wilson_interval(hits, cfg.trials)
    ratio = len(w_idx) / graph.order
    band = (ratio / 2, 3 * ratio / 2)
    verdict = "PASS" if (lo <= band[1] and hi >= band[0]) else "FAIL"
    exact = None
    if graph.order <= _EXACT_LIMIT:
        row = exact_distribution(graph, start, cfg.length)
        exact = float(row[w_idx].sum())
    return ExperimentResult(
        config=cfg,
        frequency=freq,
        interval=(lo, hi),
        band=band,
        verdict=verdict,
        exact=exact,
        length_lemma=need,
        length_theorem=theorem_length(graph, len(w_idx)),
    )


def report_json(result: ExperimentResult, target_names: Optional[Sequence[str]] = None) -> dict:
    cfg = result.config
    return {
        "config": {
            "length": cfg.length,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "target_size": len(cfg.target),
            "target": list(target_names) if target_names is not None else None,
        },
        "frequency": result.frequency,
        "wilson_99": [result.interval[0], result.interval[1]],
        "band": [result.band[0], result.band[1]],
        "exact_probability": result.exact,
        "verdict": result.verdict,
        "length_lemma": result.length_lemma,
        "length_theorem": result.length_theorem,
    }

