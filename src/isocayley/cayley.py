"""Cayley multigraphs on subgroups of finite abelian groups.

:class:`StepGraph` is the graph core that walks, path certificates and the
DOT/JSON exports run on; :class:`CayleyGraph` and the isogeny graph of
:mod:`isocayley.ecgraph` both build it.  The adjacency operator of
Cay(H, S) is diagonalized exactly by the characters of H (lambda_chi = sum
of chi over S).  On top of that sit the expansion measure and the scan
that finds the smallest prime-norm bound B making the class-group graph a
two-sided delta-expander, with the scan table kept for the
main-term/error-term study.  The spectrum and every scan row are sums of
one kernel, ``_character_sums``, which adds one angle column at a time.

The exports read the step table directly, one block of rows at a time,
and every row table of them is laid out by one kernel, :func:`fill_rows`:
a block of rows is one ``"".join`` of the row shape's constant glue and the
rows' hole texts, interleaved by slice assignment.  ``dot_pieces`` fills
the vertex lines and each generator slot's edge lines that way, and
``to_json_adjacency`` hands out an :class:`AdjacencyRows` view whose flat
blocks of targets ``cli`` fills the same way.  The hole texts of vertex
indices come from one object array of their decimal strings, which the
artifacts of one graph share.  A block holds about ``_BLOCK_ENTRIES``
step-table entries, so no per-edge Python object is built at the cap and
no piece of an artifact grows with the graph; ``cli`` streams the pieces
to their files.
"""
from __future__ import annotations

import functools
import itertools
import json
from cmath import exp as _cexp
from collections import Counter
from dataclasses import dataclass
from math import log, pi, sqrt
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .abelian import (
    GroupElement,
    Subgroup,
    character_angles,
    generated_order,
    op_inv,
)
from .errors import InputError, InternalConsistencyError, PreconditionError
from .ntheory import primes_below
from .quadform import ClassGroup, generating_multiset

__all__ = [
    "StepGraph",
    "CayleyGraph",
    "Spectrum",
    "ScanRow",
    "MAX_SLOTS",
    "check_slots",
    "build",
    "spell_rows",
    "spectrum_by_characters",
    "expansion",
    "find_expander_bound",
    "log_integral",
    "component_of",
    "fill_rows",
    "decimal_strings",
    "dot_pieces",
    "to_dot",
    "AdjacencyRows",
    "to_json_adjacency",
    "scan_table_csv",
]

_IMAG_TOL = 1e-9
# adjacency slots (order x degree) of one graph: the step table, the
# character table and the artifacts all grow with this product
MAX_SLOTS = 4 * 10**6

# step-table entries per block of an export: the DOT text and the JSON
# adjacency rows are produced one block of rows at a time
_BLOCK_ENTRIES = 1 << 12

SCAN_CSV_HEADER = "B,lambda_triv,c,delta2,li_over_index,error_envelope"


class StepGraph:
    """A k-regular labeled multigraph on named vertices, walked by slots.

    ``names`` spells each of ``vertices``, distinct and in the same order,
    for exports, certificates and vertex lookup by name.  The k slots are ``(label,
    payload)`` pairs; stepping from vertex i through slot j lands on
    ``step_table[j, i]``, and ``inverse_slot[j]`` is the slot that steps
    back.  Subclasses supply ``step_table``, ``inverse_slot`` and an
    ``_index`` dict or their own ``vertex_index``; walks, path search,
    certificates and the DOT/JSON exports need nothing else.
    """

    step_table: np.ndarray
    inverse_slot: Sequence[int]

    def __init__(self, vertices: Sequence, names: Sequence[str], generators: Sequence[tuple]):
        self.vertices = vertices
        self.names = tuple(names)
        self.generators = tuple((str(lbl), x) for lbl, x in generators)
        if len(self.names) != len(self.vertices):
            raise InputError("vertex name list has the wrong length")
        self._slot = {}
        for j, (lbl, _) in enumerate(self.generators):
            self._slot.setdefault(lbl, j)

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def degree(self) -> int:
        return len(self.generators)

    def vertex_index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"{v} is not a vertex of this graph") from None

    def vertex_named(self, name: str):
        try:
            return self.vertices[self.names.index(name)]
        except ValueError:
            raise InputError(f"no vertex is named {name!r}") from None

    def slot_of(self, label: str) -> int:
        """The first slot carrying this label."""
        try:
            return self._slot[label]
        except KeyError:
            raise InputError(f"step label {label!r} is not a generator of the graph") from None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, degree={self.degree})"


class CayleyGraph(StepGraph):
    """Cay(H, S) on the subgroup's arrays, vertex i at row i; immutable after build()."""

    def __init__(
        self,
        subgroup: Subgroup,
        generators: Sequence[tuple[str, GroupElement]],
        names: Sequence[str],
    ):
        super().__init__(subgroup.elements, names, generators)
        self.subgroup = subgroup
        self._step_table: Optional[np.ndarray] = None
        self._inverse_slot: Optional[list[int]] = None

    def vertex_index(self, v) -> int:
        i = self.subgroup.position(v)
        if i is None:
            raise InputError(f"{v} is not a vertex of this graph")
        return i

    @property
    def step_table(self) -> np.ndarray:
        """(k, n) array: step_table[j, i] = index of s_j * v_i.  One slot at a
        time, on codes: add the step's code, subtract an invariant's place
        value where the coordinate's sum reaches it, and search the codes."""
        if self._step_table is None:
            sub = self.subgroup
            table = np.empty((self.degree, self.order), dtype=np.intp)
            for j, (_, s) in enumerate(self.generators):
                moved = sub.codes + sum(x * r for x, r in zip(s.coords, sub.radix))
                for col, x, d, r in zip(sub.coords.T, s.coords, sub.ambient.invariants, sub.radix):
                    np.subtract(moved, d * r, out=moved, where=col >= d - x)
                table[j] = np.searchsorted(sub.codes, moved)
            table.setflags(write=False)
            self._step_table = table
        return self._step_table

    @property
    def inverse_slot(self) -> list[int]:
        """Pairing of generator slots with their inverses (an involution): the
        i-th slot of s with the i-th slot of s^-1, a self-inverse s's with itself."""
        if self._inverse_slot is None:
            slots: dict[tuple[int, ...], list[int]] = {}
            for j, (_, s) in enumerate(self.generators):
                slots.setdefault(s.coords, []).append(j)
            pairing = list(range(self.degree))
            for js in slots.values():
                partners = slots.get(op_inv(self.generators[js[0]][1]).coords, [])
                if len(partners) != len(js):
                    raise InternalConsistencyError("generator multiset not inversion-closed")
                for j, t in zip(js, partners):
                    pairing[j] = t
            self._inverse_slot = pairing
        return self._inverse_slot


def check_slots(order: int, degree: int) -> None:
    """Reject a graph with more than MAX_SLOTS adjacency slots, order x degree."""
    if order * degree > MAX_SLOTS:
        raise PreconditionError(
            f"{order} vertices x {degree} generators = {order * degree} adjacency slots "
            f"exceeds the cap {MAX_SLOTS}"
        )


def build(
    subgroup: Subgroup,
    generators: Sequence[tuple[str, GroupElement]],
    names: Optional[Sequence[str]] = None,
) -> CayleyGraph:
    """Build Cay(H, S) from labeled generators; S must be inversion-closed.

    ``names`` spells the vertices of H in coordinate order and must be
    distinct; by default a vertex is named by its coordinates,
    ``c1:c2:...``, which are distinct because the subgroup's codes are.
    """
    gens = list(generators)
    check_slots(subgroup.order, len(gens))
    for _, g in gens:
        if g not in subgroup:
            raise InputError(f"generator {g} lies outside the subgroup")
    direct = Counter(g.coords for _, g in gens)
    inv = Counter(op_inv(g).coords for _, g in gens)
    if direct != inv:
        raise InputError("generator multiset is not closed under inversion")
    if names is None:
        names = spell_rows(subgroup.coords)
    elif len(set(names)) != len(names):
        raise InputError("vertex names are not distinct")
    return CayleyGraph(subgroup, gens, names)


def spell_rows(rows: np.ndarray) -> list[str]:
    """Row i of an int array spelled as its entries joined by ':', a block of
    rows per :func:`fill_rows` call; entries in [0, size of the array) come
    from :func:`decimal_strings`, others from ``str``."""
    glue = ["", *[":"] * (rows.shape[1] - 1), ""] if rows.shape[1] else [""]
    high = rows.max(initial=0)
    digits = decimal_strings(high + 1) if rows.min(initial=0) >= 0 and high < rows.size else None
    names: list[str] = []
    for block in np.array_split(rows, range(_BLOCK_ENTRIES, len(rows), _BLOCK_ENTRIES)):
        flat = block.ravel()
        holes = list(map(str, flat.tolist())) if digits is None else digits[flat].tolist()
        names += fill_rows(glue, "\n", holes, len(block)).split("\n")
    return names


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One eigenvalue per character of the subgroup, in
    :func:`~isocayley.abelian.characters_of` order (the trivial one first),
    as a read-only float64 array."""

    eigenvalues: np.ndarray
    lambda_triv: float
    c: float

    def sorted_values(self) -> list[float]:
        return np.sort(self.eigenvalues)[::-1].tolist()


def _character_sums(
    subgroup: Subgroup, elements: Sequence[GroupElement], cuts: Iterable[int]
) -> Iterator[np.ndarray]:
    """For each cut in turn, every character's sum over ``elements[:cut]``:
    the columns of :func:`character_angles` added in element order from
    zero, so each sum is the float that adding ``chi.value`` gives.  Cuts
    must not decrease; the yielded running total is updated in place."""
    e, columns = character_angles(subgroup, elements)
    # roots[a] = exp(2 pi i a/e), each bit-identical to Character.value at
    # angle a/e (a / e rounds the rational correctly, as float(Fraction))
    roots = np.array([_cexp(2j * pi * (a / e)) for a in range(e)], dtype=np.complex128)
    total = np.zeros(subgroup.order, dtype=np.complex128)
    done = 0
    for cut in cuts:
        for column in itertools.islice(columns, cut - done):
            total += roots[column]
        done = cut
        yield total


def spectrum_by_characters(graph: CayleyGraph, sums: np.ndarray | None = None) -> Spectrum:
    """One exact eigenvalue per character: lambda_chi = sum over S of chi(s),
    summed in slot order by one cut of :func:`_character_sums`, unless
    ``sums`` holds them already (the ``out`` of a B-scan whose S_B is the
    graph's generating set)."""
    total = sums if sums is not None else next(
        _character_sums(graph.subgroup, [s for _, s in graph.generators], [graph.degree])
    )
    bad = np.flatnonzero(np.abs(total.imag) > _IMAG_TOL)
    if bad.size:
        raise InternalConsistencyError(
            f"character eigenvalue has imaginary residue {total.imag[bad[0]]:.3e}"
        )
    lam = total.real.copy()
    lam.flags.writeable = False
    c = float(np.abs(lam[1:]).max()) if graph.order > 1 else 0.0
    return Spectrum(lam, float(lam[0]), c)


def expansion(spec: Spectrum) -> tuple[float, float, float]:
    """(delta_one_sided, delta_two_sided, c) from a character spectrum."""
    k = spec.lambda_triv
    if k == 0:
        raise PreconditionError("expansion of an edgeless graph is undefined")
    nontrivial = spec.eigenvalues[1:]
    if not nontrivial.size:
        return 1.0, 1.0, 0.0
    return 1.0 - float(nontrivial.max()) / k, 1.0 - spec.c / k, spec.c


def component_of(graph: StepGraph, i: int) -> np.ndarray:
    """Mask of the vertices reachable from vertex index i: a breadth-first
    search over the step table, one frontier of the search per numpy step.

    Each frontier is deduplicated by a sort, not ``np.unique``, whose first
    call imports ``numpy.ma`` (about 20 ms and 1 MB): every path search
    runs this once."""
    seen = np.zeros(graph.order, dtype=bool)
    seen[i] = True
    frontier = np.array([i])
    while frontier.size:
        reached = np.sort(graph.step_table[:, frontier], axis=None)
        keep = ~seen[reached]
        keep[1:] &= reached[1:] != reached[:-1]
        frontier = reached[keep]
        seen[frontier] = True
    return seen


# ---------------------------------------------------------------------------
# The B-scan
# ---------------------------------------------------------------------------

def _ei(x: float) -> float:
    """Exponential integral Ei(x) for x > 0, by the power series of the
    specfun routine EIX (Zhang and Jin, *Computation of Special Functions*,
    1996): Ei(x) = gamma + ln x + x * sum_k r_k with r_0 = 1 and
    r_k = r_(k-1) * k x / (k + 1)^2.  The terms are positive and their ratio
    tends to 0, so the sum stops once a term is below 1e-15 of the total."""
    total = r = 1.0
    for k in itertools.count(1):
        r = r * k * x / (k + 1.0) ** 2
        total += r
        if abs(r / total) <= 1e-15:
            return 0.5772156649015328 + log(x) + x * total  # Euler's gamma


def log_integral(b: float) -> float:
    """Integral of 1/ln t from 2 to b, evaluated exactly as Ei(ln b) - Ei(ln 2)."""
    if b < 2:
        raise InputError(f"li is taken from 2; got upper limit {b}")
    if b == 2:
        return 0.0
    return _ei(log(float(b))) - _ei(log(2.0))


@dataclass(frozen=True)
class ScanRow:
    b: int
    lambda_triv: int
    c: float
    delta2: float
    li_over_index: float
    error_envelope: float


def scan_table_csv(rows: Sequence[ScanRow]) -> str:
    lines = [SCAN_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.b},{r.lambda_triv},{r.c:.12g},{r.delta2:.12g},"
            f"{r.li_over_index:.12g},{r.error_envelope:.12g}"
        )
    return "\n".join(lines) + "\n"


def find_expander_bound(
    cls_group: ClassGroup,
    subgroup: Subgroup,
    delta: float,
    b_max: int,
    out: np.ndarray | None = None,
) -> tuple[int, list[ScanRow]]:
    """Smallest B on the prime+1 grid making Cay(H, S_B) a two-sided
    delta-expander, plus the full scan table up to b_max.

    The grid steps through B = p + 1 for each prime p < b_max, since the
    spectrum only moves when a new prime enters S_B.  The subgroup must be
    generated by the full prime-form set below b_max.  The scan's last cut
    sums every character over all of S_(b_max): given a complex array
    ``out`` of one entry per character, it writes those sums there, so the
    spectrum of the graph on S_(b_max) costs no second pass.
    """
    s_all = generating_multiset(cls_group, b_max, subgroup)
    if subgroup.order == 1:
        # single vertex: every bound works vacuously
        if out is not None:
            out[:] = len(s_all)
        return 2, []

    elements = [g.element for g in s_all]
    # S_B lies in the subgroup, so it generates the subgroup iff the orders agree
    generated = generated_order(cls_group.group, elements)
    if generated != subgroup.order:
        raise PreconditionError(
            f"prime forms below {b_max} generate a subgroup of order "
            f"{generated}, not the requested {subgroup.order}"
        )

    # s_all is in prime order, so S_B is a prefix of it; an inert prime
    # repeats the last sums
    primes = primes_below(b_max)
    per_prime = Counter(g.ell for g in s_all)
    cuts = list(itertools.accumulate(per_prime[p] for p in primes))

    disc = cls_group.discriminant
    d_k = abs(disc.fundamental)
    nfm = disc.conductor ** 2
    index = subgroup.index

    rows: list[ScanRow] = []
    best: Optional[int] = None
    for p, k, acc in zip(primes, cuts, _character_sums(subgroup, elements, cuts)):
        b = p + 1
        if k == 0:
            c = 0.0
            delta2 = 0.0
        else:
            # entry 0 is the trivial character (see character_angles)
            if np.any(np.abs(acc.imag[1:]) > _IMAG_TOL * max(1, k)):
                raise InternalConsistencyError("imaginary residue in scan eigenvalue")
            c = float(np.abs(acc.real[1:]).max())
            delta2 = 1.0 - c / k
        # li(B)/index, and the envelope n sqrt(B) ln(B d_K Nfm) for n = [K:Q] = 2
        rows.append(ScanRow(b, k, c, delta2, log_integral(b) / index,
                            2 * sqrt(b) * log(b * d_k * nfm)))
        if best is None and k > 0 and delta2 >= delta:
            best = b
    if out is not None:
        out[:] = acc
    if best is None:
        raise PreconditionError(
            f"no bound B <= {b_max} reaches two-sided expansion {delta}"
        )
    return best, rows


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def fill_rows(glue: Sequence[str], sep: str, holes: list[str], rows: int) -> str:
    """``sep.join`` of ``rows`` rows, row r being ``glue[0] + holes[r*m] +
    glue[1] + ... + holes[r*m + m - 1] + glue[m]`` for m = ``len(glue) - 1``.

    ``glue`` is the constant text of one row shape, around and between its m
    holes, and ``holes`` the rows' hole texts, row after row.  The block is
    one ``"".join``: the hole texts go to the odd places of the part list and
    the glue, repeated per row, to the even ones, each by one slice
    assignment."""
    if not rows:
        return ""
    m = len(glue) - 1
    if not m:
        return sep.join([glue[0]] * rows)
    parts = [glue[0]] * (2 * m * rows + 1)
    parts[1::2] = holes
    parts[2::2] = [*glue[1:-1], glue[-1] + sep + glue[0]] * rows
    parts[-1] = glue[-1]
    return "".join(parts)


@functools.lru_cache(maxsize=1)
def decimal_strings(n: int) -> np.ndarray:
    """The decimal strings of 0 .. n - 1 as an object array: a fancy index
    by an array of vertex indices, then ``tolist``, spells them as hole
    texts for :func:`fill_rows` without a Python call per index.  The last
    array built is kept, read-only, so the DOT and JSON artifacts of one
    graph share it."""
    digits = np.array(list(map(str, range(n))), dtype=object)
    digits.flags.writeable = False
    return digits


def dot_pieces(graph: StepGraph, title: str = "cayley") -> Iterator[str]:
    """The DOT text of :func:`to_dot`, one block of rows at a time.

    An edge {v, s*v} with v before s*v in vertex order is emitted for the
    slot of s; the paired slot of s^{-1} accounts for the reverse direction,
    so multiplicities come out right.  Loops are emitted once per slot.
    The vertex lines come in blocks of ``_BLOCK_ENTRIES`` vertices.  Each
    slot's edge lines are filled by :func:`fill_rows` from one glue per
    slot and the ``i <= t`` mask of a block of ``_BLOCK_ENTRIES`` entries of
    its step-table row, so no piece grows with the graph.  Vertex indices
    are spelled by one index into :func:`decimal_strings` per block.
    """
    yield f"graph {json.dumps(title)} {{\n"
    n = graph.order
    digits = decimal_strings(n)
    vertex = ("  v", ' [label="', '"];\n')
    for i in range(0, n, _BLOCK_ENTRIES):
        names = graph.names[i:i + _BLOCK_ENTRIES]
        holes = [""] * (2 * len(names))
        holes[::2] = digits[i:i + _BLOCK_ENTRIES].tolist()
        holes[1::2] = names
        yield fill_rows(vertex, "", holes, len(names))
    table = graph.step_table
    index = np.arange(n)
    for j, (label, _) in enumerate(graph.generators):
        edge = ("  v", " -- v", ' [label="' + label + '"];\n')
        for i in range(0, n, _BLOCK_ENTRIES):
            block = index[i:i + _BLOCK_ENTRIES]
            targets = table[j, i:i + _BLOCK_ENTRIES]
            keep = block <= targets  # the paired inverse slot emits the other direction
            ends = np.stack((block[keep], targets[keep]), axis=1).ravel()
            yield fill_rows(edge, "", digits[ends].tolist(), ends.size // 2)
    yield "}\n"


def to_dot(graph: StepGraph, title: str = "cayley") -> str:
    """DOT text; one undirected edge per generator slot pair, loops kept.

    The join of :func:`dot_pieces`, which ``cli`` streams to the file.
    """
    return "".join(dot_pieces(graph, title))


class AdjacencyRows:
    """Read-only view of a step table as JSON adjacency rows.

    Row i is ``[[t, label], ...]`` over the slots, with t = table[j, i].
    ``blocks`` hands out the targets one block of rows at a time as an int
    array, and ``cli`` spells each block by one index into
    :func:`decimal_strings` and fills one row glue with it through
    :func:`fill_rows`, so neither the h x k pair list nor the whole table as
    Python ints is ever built.
    """

    __slots__ = ("table", "labels")

    def __init__(self, table: np.ndarray, labels: Sequence[str]):
        self.table = table
        self.labels = tuple(labels)

    def __len__(self) -> int:
        return self.table.shape[1]

    def blocks(self) -> Iterator[np.ndarray]:
        """The targets of the rows, in (rows, k) blocks of about
        ``_BLOCK_ENTRIES`` step-table entries (at least one row each)."""
        rows = max(1, _BLOCK_ENTRIES // max(1, len(self.labels)))
        for i in range(0, len(self), rows):
            yield self.table[:, i:i + rows].T


def to_json_adjacency(graph: StepGraph) -> dict:
    """JSON-ready adjacency list with labeled directed slots per vertex.

    ``"adjacency"`` is an :class:`AdjacencyRows` view over the step table:
    row i lists ``[target, label]`` per slot, spelled only when written.
    """
    labels = [label for label, _ in graph.generators]
    return {
        "order": graph.order,
        "degree": graph.degree,
        "vertices": list(graph.names),
        "generators": labels,
        "adjacency": AdjacencyRows(graph.step_table, labels),
    }
