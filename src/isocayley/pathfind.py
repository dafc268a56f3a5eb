"""Two-step meet-in-the-middle pathfinding on expander graphs.

Step 1 grows ceil(sqrt(h)) distinct random-walk endpoints around the source,
each with the first trial that reached it; step 2 walks from the target until
it lands on one of them.  Both steps draw their trials' end vertices in
windows from the bulk walk core of :mod:`isocayley.walks`, and only the two
walks that meet are recorded: they concatenate (second half reversed,
inversion flags flipped) into an explicit, replayable certificate.  One
breadth-first search from the source comes first, so a target in another
component fails at once rather than after the trial cap.

The search takes a :class:`~isocayley.cayley.StepGraph`, the core that
Cayley graphs and isogeny graphs both build.  A certificate names its end
vertices by the graph's vertex names and its steps by slot labels, so it
reads the same on either kind of graph.  :func:`replay` checks it on the
step table.  On a class group, :func:`replay_forms` checks it with no graph
at all: the end vertices are reduced forms, each step composes the prime
form of its label, and D and the prime bound are all it needs.

Randomness follows the stream-splitting contract of :mod:`isocayley.walks`;
step-2 trials draw from a disjoint index namespace so the two phases stay
independent under a shared master seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log, sqrt
from typing import Callable, Mapping

import numpy as np

from .cayley import StepGraph, component_of
from .errors import InputError, InternalConsistencyError, PreconditionError, TrialCapError
from .quadform import _reduce, compose
from .walks import _WINDOW, _endpoints, _trial_steps

__all__ = [
    "PathStep",
    "PathCertificate",
    "SearchStats",
    "collect_neighbors",
    "meet_from_target",
    "find_path",
    "exhaustive_path",
    "expected_trials_bound",
    "replay",
    "replay_forms",
    "certificate_to_json",
    "certificate_from_json",
]

TRIAL_CAP_FACTOR = 100

# step-2 trial indices live far away from step-1's 0, 1, 2, ...
_STEP2_STREAM_OFFSET = 1 << 32


@dataclass(frozen=True)
class PathStep:
    label: str
    inverted: bool

    def flipped(self) -> "PathStep":
        return PathStep(self.label, not self.inverted)


@dataclass(frozen=True)
class PathCertificate:
    start: object
    end: object
    steps: tuple[PathStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class SearchStats:
    step1_trials: int
    step2_trials: int
    distinct_neighbors: int
    h: int


def replay(graph: StepGraph, cert: PathCertificate) -> bool:
    """Fold the certificate's steps onto its start; True iff the end matches."""
    i = graph.vertex_index(cert.start)
    table = graph.step_table
    inverse = graph.inverse_slot
    for step in cert.steps:
        j = graph.slot_of(step.label)
        if step.inverted:
            j = inverse[j]
        i = int(table[j, i])
    return graph.vertices[i] == cert.end


def replay_forms(steps: Mapping[str, tuple[int, int, int]], cert: PathCertificate) -> bool:
    """:func:`replay` in the class group itself, by Gauss composition.

    The certificate's start and end are reduced form triples (see
    :func:`quadform.form_named`), and ``steps`` maps each generator label
    to its reduced prime form, as :func:`quadform.prime_forms` lists them;
    an inverted step composes the inverse form.  True iff the end matches.
    """
    x = cert.start
    for step in cert.steps:
        try:
            a, b, c = steps[step.label]
        except KeyError:
            raise InputError(f"step label {step.label!r} is not a generator of the graph") from None
        x = compose(x, _reduce(a, -b, c) if step.inverted else (a, b, c))
    return x == cert.end


def _windows(graph, start_idx: int, length: int, seed: int, first: int, cap: int):
    """(t, end-vertex indices) for the trials first + t, ... of up to cap
    walks from start_idx, in windows of 64 trials that double up to _WINDOW."""
    t, n = 0, 64
    while t < cap:
        m = min(n, cap - t)
        yield t, _endpoints(graph, start_idx, length, m, seed, first + t)
        t += m
        n = min(2 * n, _WINDOW)


def _record(graph, seed: int, trial: int, length: int) -> tuple[PathStep, ...]:
    """The steps of one trial's walk, by slot label."""
    draws = _trial_steps(seed, trial, graph.degree, length)
    return tuple(PathStep(graph.generators[j][0], False) for j in draws)


def collect_neighbors(graph, a, seed: int) -> tuple[dict, SearchStats]:
    """Step 1: gather ceil(sqrt(h)) distinct endpoints of length-ceil(ln 2h)
    walks from a; repeats count as trials.  Maps each endpoint, in trial
    order, to the first trial whose walk reached it."""
    h = graph.order
    if h < 9:
        raise PreconditionError(
            f"h = {h} < 9 is below the analysis threshold; use exhaustive search instead"
        )
    if graph.degree == 0:
        raise PreconditionError("cannot walk on an edgeless graph")
    n_target = ceil(sqrt(h))
    cap = TRIAL_CAP_FACTOR * h
    neighbors: dict = {}
    seen = np.zeros(h, dtype=bool)
    for t, ends in _windows(graph, graph.vertex_index(a), ceil(log(2 * h)), seed, 0, cap):
        for i in np.flatnonzero(~seen[ends]).tolist():
            e = int(ends[i])
            if not seen[e]:
                seen[e] = True
                neighbors[graph.vertices[e]] = t + i
                if len(neighbors) == n_target:
                    return neighbors, SearchStats(t + i + 1, 0, n_target, h)
    raise TrialCapError(
        f"step 1 exceeded {cap} trials with {len(neighbors)} of {n_target} endpoints")


def meet_from_target(graph, b, neighbors: dict, seed: int) -> tuple[PathCertificate, SearchStats]:
    """Step 2: walk from b until an endpoint collected in step 1 is hit."""
    if not neighbors:
        raise InputError("step 2 needs a nonempty neighbor map")
    if graph.degree == 0:
        raise PreconditionError("cannot walk on an edgeless graph")
    h = graph.order
    length = ceil(log(2 * h))
    cap = TRIAL_CAP_FACTOR * h
    stored = np.zeros(h, dtype=bool)
    stored[[graph.vertex_index(v) for v in neighbors]] = True
    for t, ends in _windows(graph, graph.vertex_index(b), length, seed, _STEP2_STREAM_OFFSET, cap):
        hits = np.flatnonzero(stored[ends])
        if hits.size:
            t += int(hits[0])
            steps = _record(graph, seed, _STEP2_STREAM_OFFSET + t, length)
            cert = PathCertificate(b, graph.vertices[ends[hits[0]]], steps)
            return cert, SearchStats(0, t + 1, len(neighbors), h)
    raise TrialCapError(f"step 2 exceeded {cap} trials without meeting a stored endpoint")


def find_path(graph, a, b, seed: int) -> tuple[PathCertificate, SearchStats]:
    """Explicit path a -> b: step-1 record to the meeting point, then the
    step-2 record reversed with flipped inversion flags.  Replay-checked.

    One breadth-first search from a comes first.  If b lies outside a's
    component, no walk can meet, and the :class:`TrialCapError` is raised
    before step 1 with both component sizes.  When either step exhausts its
    ``TRIAL_CAP_FACTOR * h`` trials, the error says that a and b are
    connected and the walks did not meet within the cap."""
    h = graph.order
    if h < 9:
        raise PreconditionError(
            f"h = {h} < 9 is below the analysis threshold; use exhaustive search instead"
        )
    if a == b:
        return PathCertificate(a, b, ()), SearchStats(0, 0, 0, h)
    near = component_of(graph, graph.vertex_index(a))
    if not near[graph.vertex_index(b)]:
        far = component_of(graph, graph.vertex_index(b))
        raise TrialCapError(
            f"no walk from A can meet one from B: B lies outside A's component: A's "
            f"component has {near.sum()} and B's has {far.sum()} of the {h} vertices")
    try:
        neighbors, st1 = collect_neighbors(graph, a, seed)
        cert2, st2 = meet_from_target(graph, b, neighbors, seed)
    except TrialCapError as e:
        raise TrialCapError(
            f"{e}; A and B lie in one component of {near.sum()} of the {h} vertices, "
            f"but the walks did not meet within the cap") from None
    # step 1 walked as far as step 2
    steps = _record(graph, seed, neighbors[cert2.end], cert2.length)
    steps += tuple(s.flipped() for s in reversed(cert2.steps))
    cert = PathCertificate(a, b, steps)
    if not replay(graph, cert):
        raise InternalConsistencyError("assembled path does not replay to the target")
    stats = SearchStats(st1.step1_trials, st2.step2_trials, st1.distinct_neighbors, h)
    return cert, stats


def exhaustive_path(graph, a, b) -> PathCertificate:
    """Shortest certificate by breadth-first search; for graphs of any size.

    This is the fallback the h < 9 rejection in :func:`collect_neighbors`
    points at: no randomness, no trial caps, just a full sweep.  A b outside
    a's component fails as in :func:`find_path`, with both component sizes.
    """
    start = graph.vertex_index(a)
    goal = graph.vertex_index(b)
    if start == goal:
        return PathCertificate(a, b, ())
    table = graph.step_table
    labels = [lbl for lbl, _ in graph.generators]
    came_from: dict[int, tuple[int, int]] = {start: (-1, -1)}
    frontier = [start]
    while frontier and goal not in came_from:
        nxt = []
        for i in frontier:
            for s in range(graph.degree):
                j = int(table[s, i])
                if j not in came_from:
                    came_from[j] = (i, s)
                    nxt.append(j)
        frontier = nxt
    if goal not in came_from:
        raise PreconditionError(
            f"B lies outside A's component: A's component has {len(came_from)} and B's "
            f"has {component_of(graph, goal).sum()} of the {graph.order} vertices")
    steps = []
    i = goal
    while i != start:
        prev, s = came_from[i]
        steps.append(PathStep(labels[s], False))
        i = prev
    cert = PathCertificate(a, b, tuple(reversed(steps)))
    if not replay(graph, cert):
        raise InternalConsistencyError("exhaustive path does not replay to the target")
    return cert


def expected_trials_bound(h: int, n: int) -> Fraction:
    """The trial-count expectation bound 4 n h^2 / (2h - 3n)^2, exactly."""
    if n == 0:
        return Fraction(0)
    if n < 0 or h <= 0:
        raise InputError("need h > 0 and n >= 0")
    if 3 * n >= 2 * h:
        raise PreconditionError(f"bound needs 3n < 2h; got n = {n}, h = {h}")
    return Fraction(4 * n * h * h, (2 * h - 3 * n) ** 2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def certificate_to_json(cert: PathCertificate, graph: StepGraph) -> dict:
    """JSON value naming start/end by the graph's vertex names."""
    return {
        "start": graph.names[graph.vertex_index(cert.start)],
        "end": graph.names[graph.vertex_index(cert.end)],
        "length": cert.length,
        "steps": [[s.label, s.inverted] for s in cert.steps],
    }


def certificate_from_json(data: dict, vertex_named: Callable[[str], object]) -> PathCertificate:
    """Rebuild a certificate, resolving its start and end by name: with a
    graph's :meth:`~isocayley.cayley.StepGraph.vertex_named`, or with
    :func:`quadform.form_named` for :func:`replay_forms`."""
    if not isinstance(data, dict):
        raise InputError("malformed certificate: expected a JSON object")
    try:
        start = vertex_named(data["start"])
        end = vertex_named(data["end"])
        raw_steps, declared = data["steps"], data["length"]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed certificate: {e}") from None
    # JSON types as path writes them: no bool() of "false", no int() of 8.9
    if not isinstance(raw_steps, list) or not all(
        isinstance(s, list) and len(s) == 2 and isinstance(s[0], str) and isinstance(s[1], bool)
        for s in raw_steps
    ):
        raise InputError("malformed certificate: each step must be a [label string, boolean] pair")
    if not isinstance(declared, int) or isinstance(declared, bool):
        raise InputError(f"malformed certificate: length {declared!r} is not an integer")
    steps = tuple(PathStep(lbl, inv) for lbl, inv in raw_steps)
    if declared != len(steps):
        raise InputError(
            f"malformed certificate: declares length {declared} but lists {len(steps)} steps"
        )
    return PathCertificate(start, end, steps)

