"""Seeded random walks on Cayley graphs and the mixing-lemma harness.

Randomness comes from numpy's Philox (4x64 counter-based) generator.  Trial
t of an experiment with master seed s draws from the stream keyed by the
128-bit value (s << 64) | t, so the trial-to-stream map is a pure function
of (seed, trial index): any execution order, or a parallel run, produces the
same statistics.  Walk steps pick uniformly among the k generator slots,
multiplicity included, matching the adjacency operator.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import ceil, log, sqrt
from typing import Optional, Sequence

import numpy as np

from .cayley import CayleyGraph, expansion, spectrum_by_characters
from .errors import InputError, PreconditionError

__all__ = [
    "WalkConfig",
    "ExperimentResult",
    "trial_rng",
    "random_walk",
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
# the step draws of an experiment form one int64 trials x length matrix
MAX_DRAWS = 10**7


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The Philox stream for one trial: key = (seed << 64) | trial."""
    key = ((seed & _MASK64) << 64) | (trial & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def random_walk(graph: CayleyGraph, start, length: int, rng: np.random.Generator):
    """End vertex of a uniform slot-walk of the given length."""
    if length < 0:
        raise InputError("walk length must be nonnegative")
    i = graph.vertex_index(start)
    if length:
        table = graph.step_table
        for j in rng.integers(0, graph.degree, size=length):
            i = int(table[j, i])
    return graph.vertices[i]


def mixing_length(graph: CayleyGraph, w_size: int) -> int:
    """ceil( ln(2|H| / sqrt|W|) / ln(k/c) ), using the measured gap."""
    if not 1 <= w_size <= graph.order:
        raise InputError(f"target size {w_size} out of range for order {graph.order}")
    _, _, c = expansion(spectrum_by_characters(graph))
    k = graph.degree
    if c >= k:
        raise PreconditionError(
            f"not a two-sided expander (c = {c:.6g}, k = {k}); mixing length diverges"
        )
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


def _endpoints(graph: CayleyGraph, start_idx: int, length: int, trials: int, seed: int) -> np.ndarray:
    """End-vertex indices of `trials` independent walks (vectorized fold)."""
    if length == 0:
        return np.full(trials, start_idx, dtype=np.int64)
    k = graph.degree
    draws = np.empty((trials, length), dtype=np.int64)
    # one Philox re-keyed per trial draws exactly what trial_rng(seed, t)
    # would, without building a generator (most of a trial's cost) each time
    rng = trial_rng(seed, 0)
    state = rng.bit_generator.state
    for t in range(trials):
        state["state"]["key"][0] = t & _MASK64
        rng.bit_generator.state = state
        draws[t] = rng.integers(0, k, size=length)
    table = graph.step_table
    pos = np.full(trials, start_idx, dtype=np.int64)
    for step in range(length):
        pos = table[draws[:, step], pos]
    return pos


def exact_distribution(graph: CayleyGraph, start, length: int) -> np.ndarray:
    """Exact end-vertex distribution via dense transition-matrix powering."""
    if graph.degree == 0:
        raise PreconditionError("walk on an edgeless graph")
    p = graph.adjacency().astype(np.float64) / graph.degree
    row = np.zeros(graph.order)
    row[graph.vertex_index(start)] = 1.0
    for _ in range(length):
        row = row @ p
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
    w_idx = sorted({graph.vertex_index(v) for v in cfg.target})
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
    start_idx = graph.vertex_index(start)
    pos = _endpoints(graph, start_idx, cfg.length, cfg.trials, cfg.seed)
    hits = int(np.isin(pos, np.asarray(w_idx)).sum())
    freq = hits / cfg.trials
    lo, hi = wilson_interval(hits, cfg.trials)
    ratio = len(w_idx) / graph.order
    band = (ratio / 2, 3 * ratio / 2)
    verdict = "PASS" if (lo <= band[1] and hi >= band[0]) else "FAIL"
    exact = None
    if graph.order <= _EXACT_LIMIT:
        row = exact_distribution(graph, graph.vertices[start_idx], cfg.length)
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


def report_json_text(result: ExperimentResult, target_names: Optional[Sequence[str]] = None) -> str:
    return json.dumps(report_json(result, target_names), indent=2, sort_keys=True) + "\n"
