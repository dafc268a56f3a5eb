"""Two-step meet-in-the-middle pathfinding on expander graphs.

Step 1 grows ceil(sqrt(h)) distinct random-walk endpoints around the source,
each with its walk recorded; step 2 walks from the target until it lands on
one of them; the two records concatenate (second half reversed, inversion
flags flipped) into an explicit, replayable certificate.  One breadth-first
search from the source comes first, so a target in another component fails
at once rather than after the trial cap.

Every function takes a :class:`~isocayley.cayley.StepGraph`, the core that
Cayley graphs and isogeny graphs both build.  A certificate names its end
vertices by the graph's vertex names and its steps by slot labels, so it
reads the same on either kind of graph and replays with nothing but the
step table.

Randomness follows the stream-splitting contract of :mod:`isocayley.walks`;
step-2 trials draw from a disjoint index namespace so the two phases stay
independent under a shared master seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log, sqrt
from typing import Optional

from .cayley import StepGraph, component_of
from .errors import InputError, InternalConsistencyError, PreconditionError, TrialCapError
from .walks import trial_steps

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


def _walk_record(graph, start_idx: int, draws) -> tuple[int, list[PathStep]]:
    i = start_idx
    steps: list[PathStep] = []
    table = graph.step_table
    for j in draws.tolist():
        steps.append(PathStep(graph.generators[j][0], False))
        i = int(table[j, i])
    return i, steps


def collect_neighbors(graph, a, seed: int) -> tuple[dict, SearchStats]:
    """Step 1: gather ceil(sqrt(h)) distinct endpoints of length-ceil(ln 2h)
    walks from a, each with its recorded path; repeats count as trials."""
    h = graph.order
    if h < 9:
        raise PreconditionError(
            f"h = {h} < 9 is below the analysis threshold; use exhaustive search instead"
        )
    if graph.degree == 0:
        raise PreconditionError("cannot walk on an edgeless graph")
    n_target = ceil(sqrt(h))
    length = ceil(log(2 * h))
    cap = TRIAL_CAP_FACTOR * h
    a_idx = graph.vertex_index(a)
    neighbors: dict = {}
    trials = 0
    draws = trial_steps(seed, 0, graph.degree, length)
    while len(neighbors) < n_target:
        if trials >= cap:
            raise TrialCapError(
                f"step 1 exceeded {cap} trials with {len(neighbors)} of "
                f"{n_target} endpoints"
            )
        end_idx, steps = _walk_record(graph, a_idx, next(draws))
        trials += 1
        end_v = graph.vertices[end_idx]
        if end_v not in neighbors:
            neighbors[end_v] = PathCertificate(a, end_v, tuple(steps))
    stats = SearchStats(trials, 0, len(neighbors), h)
    return neighbors, stats


def meet_from_target(
    graph, b, neighbors: dict, seed: int, length: Optional[int] = None
) -> tuple[PathCertificate, SearchStats]:
    """Step 2: walk from b until an endpoint collected in step 1 is hit."""
    if not neighbors:
        raise InputError("step 2 needs a nonempty neighbor map")
    h = graph.order
    if length is None:
        length = ceil(log(2 * h))
    cap = TRIAL_CAP_FACTOR * h
    b_idx = graph.vertex_index(b)
    trials = 0
    draws = trial_steps(seed, _STEP2_STREAM_OFFSET, graph.degree, length)
    while trials < cap:
        end_idx, steps = _walk_record(graph, b_idx, next(draws))
        trials += 1
        end_v = graph.vertices[end_idx]
        if end_v in neighbors:
            cert = PathCertificate(b, end_v, tuple(steps))
            return cert, SearchStats(0, trials, len(neighbors), h)
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
    cert1 = neighbors[cert2.end]
    steps = cert1.steps + tuple(s.flipped() for s in reversed(cert2.steps))
    cert = PathCertificate(a, b, steps)
    if not replay(graph, cert):
        raise InternalConsistencyError("assembled path does not replay to the target")
    stats = SearchStats(st1.step1_trials, st2.step2_trials, st1.distinct_neighbors, h)
    return cert, stats


def exhaustive_path(graph, a, b) -> PathCertificate:
    """Shortest certificate by breadth-first search; for graphs of any size.

    This is the fallback the h < 9 rejection in :func:`collect_neighbors`
    points at: no randomness, no trial caps, just a full sweep.
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
        raise InputError(f"no path from {a!r} to {b!r}: the graph is disconnected")
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


def certificate_from_json(data: dict, graph: StepGraph) -> PathCertificate:
    """Rebuild a certificate against the graph whose vertex names it uses."""
    try:
        start = graph.vertex_named(data["start"])
        end = graph.vertex_named(data["end"])
        steps = tuple(PathStep(str(lbl), bool(inv)) for lbl, inv in data["steps"])
        declared = int(data["length"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed certificate: {e}") from None
    if declared != len(steps):
        raise InputError(
            f"malformed certificate: declares length {declared} but lists {len(steps)} steps"
        )
    return PathCertificate(start, end, steps)

