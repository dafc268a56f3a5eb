"""Outside-in span tracer for one benchmark operation, and the per-layer
metrics derived from its spans.

``Tracer.install`` replaces each traced callable with a wrapper in every
``isocayley`` module namespace that binds it, so a function imported with
``from X import f`` is traced where it is called, not only in X.  It also
wraps the lazy ``CayleyGraph.step_table`` property and the
``Character.value`` method on their classes.  Spans stay in memory (span id
= list index, parent id, name, start, end) and are written out once, by
``save``, when the operation ends.  Work counts come from the public return
values of the traced functions, never from private ones.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Traced callables by dotted name, each with an optional reader that takes
# work counts (at most three) from the public return value.
TARGETS = {
    "quadform.class_group": None,
    "quadform.compose": None,
    "quadform.reduce_form": None,
    "quadform.generating_multiset": None,
    "abelian.Character.value": None,
    "abelian.characters_of": None,
    "abelian.subgroup_generated": None,
    "cayley.CayleyGraph.step_table": None,
    "cayley.spectrum_by_characters": None,
    "cayley.expansion": None,
    "cayley.find_expander_bound": lambda r: (len(r[1]),),
    "cayley.to_json_adjacency": None,
    "cayley.to_dot": None,
    "walks.trial_rng": None,
    "walks.mixing_length": None,
    "walks.mixing_experiment": lambda r: (r.config.trials * r.config.length,),
    "pathfind.find_path": lambda r: (
        r[1].step1_trials, r[1].step2_trials, r[1].distinct_neighbors),
    "pathfind.collect_neighbors": None,
    "pathfind.meet_from_target": None,
    "pathfind.replay": None,
    "ecgraph.curve": None,
    "ecgraph.enumerate_isogeny_class": lambda r: (len(r),),
    "ecgraph.division_polys": None,
    "ecgraph.rational_l_isogenies": lambda r: (len(r),),
    "ecgraph.velu_codomain": None,
    "ecgraph.isogeny_eval": None,
    "ecgraph.compare_to_cayley": None,
    "ecgraph.transfer_dlp": None,
    "ecgraph.build_isogeny_graph": None,
    "fppoly.poly_divmod": None,
    "fppoly.poly_mul": None,
    "fppoly.poly_powmod": None,
    "fppoly.distinct_degree_split": None,
    "fppoly.equal_degree_factors": None,
    "fppoly.low_degree_factors": lambda r: (len(r),),
    "cli.main": None,
}
NAMES = tuple(TARGETS)
_COUNT_WIDTH = 3

# per-layer metrics: name -> (unit, better), in report order
LAYER_METRICS = {
    "quadform.class_group.calls": ("count", "lower"),
    "quadform.class_group.self_s": ("s", "lower"),
    "quadform.compose.calls": ("count", "lower"),
    "quadform.reduce_form.calls": ("count", "lower"),
    "quadform.generating_multiset.self_s": ("s", "lower"),
    "abelian.Character.value.calls": ("count", "lower"),
    "abelian.Character.value.self_s": ("s", "lower"),
    "abelian.characters_of.self_s": ("s", "lower"),
    "abelian.subgroup_generated.self_s": ("s", "lower"),
    "cayley.step_table.self_s": ("s", "lower"),
    "cayley.spectrum_by_characters.calls": ("count", "lower"),
    "cayley.spectrum_by_characters.self_s": ("s", "lower"),
    "cayley.find_expander_bound.self_s": ("s", "lower"),
    "cayley.find_expander_bound.rows": ("count", "lower"),
    "cayley.to_json_adjacency.self_s": ("s", "lower"),
    "cayley.to_dot.self_s": ("s", "lower"),
    "walks.trial_rng.calls": ("count", "lower"),
    "walks.trial_rng.self_s": ("s", "lower"),
    "walks.mixing_experiment.self_s": ("s", "lower"),
    "walks.mixing_length.total_s": ("s", "lower"),
    "walks.steps": ("count", "lower"),
    "walks.steps_per_s": ("1/s", "higher"),
    "pathfind.find_path.calls": ("count", "lower"),
    "pathfind.collect_neighbors.self_s": ("s", "lower"),
    "pathfind.meet_from_target.self_s": ("s", "lower"),
    "pathfind.replay.self_s": ("s", "lower"),
    "pathfind.step1_trials": ("count", "lower"),
    "pathfind.step2_trials": ("count", "lower"),
    "pathfind.neighbor_yield": ("ratio", "higher"),
    "ecgraph.curve.calls": ("count", "lower"),
    "ecgraph.curve.self_s": ("s", "lower"),
    "ecgraph.enumerate_isogeny_class.total_s": ("s", "lower"),
    "ecgraph.enum_yield": ("ratio", "higher"),
    "ecgraph.division_polys.self_s": ("s", "lower"),
    "ecgraph.rational_l_isogenies.calls": ("count", "lower"),
    "ecgraph.rational_l_isogenies.total_s": ("s", "lower"),
    "ecgraph.kernel_yield": ("ratio", "higher"),
    "ecgraph.velu_codomain.self_s": ("s", "lower"),
    "ecgraph.isogeny_eval.calls": ("count", "lower"),
    "ecgraph.isogeny_eval.self_s": ("s", "lower"),
    "ecgraph.compare_to_cayley.total_s": ("s", "lower"),
    "ecgraph.transfer_dlp.total_s": ("s", "lower"),
    "ecgraph.build_isogeny_graph.calls": ("count", "lower"),
    "fppoly.poly_divmod.calls": ("count", "lower"),
    "fppoly.poly_divmod.self_s": ("s", "lower"),
    "fppoly.poly_mul.calls": ("count", "lower"),
    "fppoly.poly_mul.self_s": ("s", "lower"),
    "fppoly.poly_powmod.calls": ("count", "lower"),
    "fppoly.distinct_degree_split.total_s": ("s", "lower"),
    "fppoly.equal_degree_factors.calls": ("count", "lower"),
    "fppoly.low_degree_factors.total_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
}
# names whose inclusive time is summed (mixing_experiment's feeds steps_per_s)
_TOTALS = {m.removesuffix(".total_s") for m in LAYER_METRICS if m.endswith(".total_s")}
_TOTALS.add("walks.mixing_experiment")


class Tracer:
    """Span recorder for one operation (one process, one thread)."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.parent: list[int] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: list[tuple] = []  # (span id, up to three counts)
        self._stack = [-1]

    def _wrap(self, fn, name_id: int, reader):
        parent, name, start, end = self.parent, self.name, self.start, self.end
        counts, stack, clock = self.counts, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(name_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if reader is not None:
                counts.append((sid, *reader(result)))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in place.  Meant for a forked child that exits
        after one operation, so nothing is ever unwrapped."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "isocayley" or n.startswith("isocayley."))]
        for name_id, dotted in enumerate(NAMES):
            mod_name, *path = dotted.split(".")
            owner = sys.modules[f"isocayley.{mod_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            reader = TARGETS[dotted]
            raw = vars(owner)[path[-1]]
            if isinstance(raw, property):
                setattr(owner, path[-1], property(self._wrap(raw.fget, name_id, reader)))
                continue
            wrapped = self._wrap(raw, name_id, reader)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, attr, wrapped)

    def save(self, path: str) -> None:
        counts = np.zeros((len(self.counts), 1 + _COUNT_WIDTH))
        for i, row in enumerate(self.counts):
            counts[i, : len(row)] = row
        with open(path, "wb") as fh:
            np.savez(
                fh,
                op=np.int64(self.op_id),
                parent=np.asarray(self.parent, dtype=np.int64),
                name=np.asarray(self.name, dtype=np.int64),
                start=np.asarray(self.start, dtype=np.float64),
                end=np.asarray(self.end, dtype=np.float64),
                counts=counts,
            )


def load_spans(path: str) -> dict:
    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def _outer_total(start: np.ndarray, end: np.ndarray) -> float:
    """Summed duration of the spans no other span in the list contains, so
    a recursive call is counted once."""
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(start.tolist(), end.tolist())):
        if s >= reach:
            total += e - s
            reach = e
    return total


def op_summary(spans: dict) -> dict:
    """Additive per-operation totals: calls, self_s, total_s and counts by
    traced name, plus the point counts made inside class enumeration."""
    names = spans["name"]
    self_t = self_times(spans)
    n = len(NAMES)
    calls = np.bincount(names, minlength=n)
    self_s = np.bincount(names, weights=self_t, minlength=n)
    out: dict = {}
    for i, dotted in enumerate(NAMES):
        out[f"{dotted}.calls"] = int(calls[i])
        out[f"{dotted}.self_s"] = float(self_s[i])
        if dotted in _TOTALS:
            mask = names == i
            out[f"{dotted}.total_s"] = _outer_total(spans["start"][mask], spans["end"][mask])
        out[f"{dotted}.counts"] = [0] * _COUNT_WIDTH
    for row in spans["counts"]:
        key = f"{NAMES[int(names[int(row[0])])]}.counts"
        out[key] = [a + int(b) for a, b in zip(out[key], row[1:])]
    enum = names == NAMES.index("ecgraph.enumerate_isogeny_class")
    is_curve = names == NAMES.index("ecgraph.curve")
    out["curve_calls_in_enum"] = sum(
        int((is_curve & (spans["start"] >= s) & (spans["end"] <= e)).sum())
        for s, e in zip(spans["start"][enum], spans["end"][enum])
    )
    return out


def add_summaries(summaries: list[dict]) -> dict:
    """Sum op summaries; with none (every operation failed) all are zero."""
    none = np.zeros(0, dtype=np.int64)
    total = op_summary({"parent": none, "name": none, "start": np.zeros(0),
                        "end": np.zeros(0), "counts": np.zeros((0, 1 + _COUNT_WIDTH))})
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, list):
                total[key] = [a + b for a, b in zip(total[key], value)]
            else:
                total[key] += value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict, artifact_bytes: int) -> dict:
    """The per-layer metrics of one pass from its summed op summaries."""
    out = {}
    for metric in LAYER_METRICS:
        key = metric.replace("cayley.step_table", "cayley.CayleyGraph.step_table")
        if key in t:
            out[metric] = t[key]
    steps = t["walks.mixing_experiment.counts"][0]
    step1, step2, neighbors = t["pathfind.find_path.counts"]
    out["walks.steps"] = steps
    out["walks.steps_per_s"] = _ratio(steps, t["walks.mixing_experiment.total_s"])
    out["pathfind.step1_trials"] = step1
    out["pathfind.step2_trials"] = step2
    out["pathfind.neighbor_yield"] = _ratio(neighbors, step1)
    out["cayley.find_expander_bound.rows"] = t["cayley.find_expander_bound.counts"][0]
    out["ecgraph.enum_yield"] = _ratio(
        t["ecgraph.enumerate_isogeny_class.counts"][0], t["curve_calls_in_enum"])
    out["ecgraph.kernel_yield"] = _ratio(
        t["ecgraph.rational_l_isogenies.counts"][0], t["fppoly.low_degree_factors.counts"][0])
    out["cli.artifact_bytes"] = artifact_bytes
    return {m: out[m] for m in LAYER_METRICS}
