"""Exact finite abelian groups: presentations, subgroups and their characters.

Groups are kept in invariant-factor form ``Z/d_1 x ... x Z/d_k`` with
``d_1 | d_2 | ... | d_k``; elements are coordinate vectors reduced modulo the
invariants.  A character's angle at an element is an integer numerator
modulo the exponent e of the subgroup (a full turn is e), so orthogonality
and restriction checks are exact; complex values only appear when sums are
actually evaluated.  :func:`character_angles` gives the numerators of every
character at one element after another, a column per element, and
``Fraction`` appears only in :meth:`Character.angle`, the per-element
reference it is checked against.

A :class:`Subgroup` is held as coordinate arrays, not as one Python object
per element; :func:`subgroup_generated` finds its invariant-factor form from
exact Smith normal forms of the generators (Cohen, GTM 138, 2.4).
:func:`structure_of` is the structure walk of a group given only by its
elements and operation, which class groups run under composition.

Abstract groups can be loaded from a small text format::

    # comment lines and blank lines are ignored; '#' starts a comment anywhere
    invariants: 2 4
    subgroup H: 1,2 0,2

* the first significant line must be ``invariants: d_1 d_2 ... d_k``
  (an empty list after the colon denotes the trivial group);
* ``subgroup NAME: v1 v2 ...`` lists generators, one coordinate vector each,
  written as comma-separated integers with exactly k coordinates.

Parse failures raise :class:`~isocayley.errors.GroupFileError` with the
offending line number.
"""
from __future__ import annotations

import itertools
from cmath import exp as _cexp
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, pi, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from .errors import GroupFileError, InputError, InternalConsistencyError, PreconditionError

_T = TypeVar("_T")

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "Character",
    "Subgroup",
    "GroupFile",
    "group_from_relations",
    "structure_of",
    "op_mul",
    "op_inv",
    "generated_order",
    "subgroup_generated",
    "full_subgroup",
    "characters_of",
    "character_angles",
    "smith_normal_form",
    "load_group_file",
    "parse_group_text",
]

# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by elementary row/column operations.

    Returns ``(diag, v, w)`` where ``diag`` has ``ncols`` nonnegative entries
    with ``diag[i]`` dividing ``diag[i+1]`` (zeros trailing), ``v`` is the
    unimodular column transform (``ncols`` square) and ``w`` its inverse:
    ``u @ A @ v`` is the diagonal matrix for some unimodular row transform
    ``u``, which is not kept.  Plain Python integers throughout.
    """
    m = len(rows)
    a = [list(map(int, r)) for r in rows]
    for r in a:
        if len(r) != ncols:
            raise InputError(f"relation row has {len(r)} entries, expected {ncols}")
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    w = [list(r) for r in v]

    def swap_cols(i: int, j: int) -> None:
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        w[i], w[j] = w[j], w[i]

    def add_row(src: int, dst: int, q: int) -> None:
        asrc, adst = a[src], a[dst]
        for t in range(ncols):
            adst[t] += q * asrc[t]

    def add_col(src: int, dst: int, q: int) -> None:
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]
        wsrc, wdst = w[src], w[dst]
        for t in range(ncols):
            wsrc[t] -= q * wdst[t]

    t = 0
    limit = min(m, ncols)
    while t < limit:
        # smallest-magnitude nonzero entry of the trailing block becomes the pivot
        piv = None
        best = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, ncols):
                e = row[j]
                if e and (piv is None or abs(e) < best):
                    piv, best = (i, j), abs(e)
        if piv is None:
            break
        if piv[0] != t:
            a[t], a[piv[0]] = a[piv[0]], a[t]
        if piv[1] != t:
            swap_cols(t, piv[1])

        cleared = True
        for i in range(t + 1, m):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    cleared = False
        for j in range(t + 1, ncols):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    cleared = False
        if not cleared:
            continue

        # the pivot must divide the whole trailing block for the chain d_i | d_{i+1}
        offender = None
        for i in range(t + 1, m):
            row = a[i]
            for j in range(t + 1, ncols):
                if row[j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue

        if a[t][t] < 0:
            # row negation keeps the row lattice and leaves v untouched
            a[t] = [-x for x in a[t]]
        t += 1

    diag = [a[i][i] if i < limit else 0 for i in range(ncols)]
    for i in range(len(diag) - 1):
        if diag[i + 1] and diag[i] and diag[i + 1] % diag[i]:
            raise InternalConsistencyError("SNF divisibility chain violated")
    return diag, v, w


# ---------------------------------------------------------------------------
# Groups and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor presentation Z/d_1 x ... x Z/d_k with d_i | d_{i+1}."""

    invariants: tuple[int, ...]

    def __post_init__(self) -> None:
        inv = tuple(int(d) for d in self.invariants)
        for d in inv:
            if d < 1:
                raise InputError(f"invariant {d} is not positive")
        for i in range(len(inv) - 1):
            if inv[i + 1] % inv[i]:
                raise InputError(f"invariants {inv} violate d_i | d_(i+1)")
        # canonical form: factors of 1 carry nothing and are dropped
        object.__setattr__(self, "invariants", tuple(d for d in inv if d > 1))

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariants:
            n *= d
        return n

    @property
    def rank(self) -> int:
        return len(self.invariants)

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.invariants))

    def element(self, coords: Iterable[int]) -> "GroupElement":
        """Element with the given coordinates, reduced modulo the invariants."""
        c = tuple(int(x) for x in coords)
        if len(c) != len(self.invariants):
            raise InputError(
                f"expected {len(self.invariants)} coordinates, got {len(c)}"
            )
        return GroupElement(self, tuple(x % d for x, d in zip(c, self.invariants)))

    def generators(self) -> list["GroupElement"]:
        """The k standard generators (unit coordinate vectors)."""
        k = len(self.invariants)
        return [
            GroupElement(self, tuple(int(i == j) for j in range(k))) for i in range(k)
        ]

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.invariants)})"


@dataclass(frozen=True, slots=True)
class GroupElement:
    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        inv = self.group.invariants
        if len(self.coords) != len(inv):
            raise InputError("coordinate length does not match the group rank")
        for c, d in zip(self.coords, inv):
            if not 0 <= c < d:
                raise InputError(f"coordinate {c} out of range for invariant {d}")

    @property
    def order(self) -> int:
        return lcm(1, *(d // gcd(d, c) for c, d in zip(self.coords, self.group.invariants)))

    def __repr__(self) -> str:
        return f"GroupElement{self.coords}"


def _reduced_element(group: FiniteAbelianGroup, coords: tuple[int, ...]) -> GroupElement:
    """``GroupElement(group, coords)`` for coordinates that a walk or a
    table has already reduced modulo the invariants, without the range
    check; coordinates that come from input still get it."""
    e = object.__new__(GroupElement)
    object.__setattr__(e, "group", group)  # the frozen dataclass's own __init__ does this
    object.__setattr__(e, "coords", coords)
    return e


def _same_group(g: GroupElement, h: GroupElement) -> FiniteAbelianGroup:
    if g.group != h.group:
        raise InputError(f"elements of mismatched groups: {g.group} vs {h.group}")
    return g.group


def op_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group operation (coordinatewise addition modulo the invariants)."""
    grp = _same_group(g, h)
    return GroupElement(
        grp,
        tuple((x + y) % d for x, y, d in zip(g.coords, h.coords, grp.invariants)),
    )


def op_inv(g: GroupElement) -> GroupElement:
    return GroupElement(
        g.group, tuple((-x) % d for x, d in zip(g.coords, g.group.invariants))
    )


def group_from_relations(
    num_generators: int, relations: Sequence[Sequence[int]]
) -> tuple[FiniteAbelianGroup, list[GroupElement]]:
    """Quotient of Z^n by the row lattice of ``relations``, in invariant form.

    Returns the group together with the images of the n original generators.
    Raises :class:`PreconditionError`-flavoured :class:`InputError` when the
    quotient is infinite (relation lattice of rank < n).
    """
    if num_generators < 0:
        raise InputError("num_generators must be nonnegative")
    diag, v, _ = smith_normal_form(relations, num_generators)
    if any(d == 0 for d in diag):
        raise InputError(
            "infinite quotient: relation lattice has rank "
            f"{sum(1 for d in diag if d)} < {num_generators}"
        )
    keep = [i for i, d in enumerate(diag) if d > 1]
    group = FiniteAbelianGroup(tuple(diag[i] for i in keep))
    images = [
        GroupElement(group, tuple(v[g][i] % diag[i] for i in keep))
        for g in range(num_generators)
    ]
    return group, images


def structure_of(
    elements: Iterable[_T], identity: _T, op: Callable[[_T, _T], _T]
) -> tuple[FiniteAbelianGroup, dict[_T, tuple[int, ...]]]:
    """Invariant-factor structure of the finite abelian group generated by
    ``elements`` under ``op``, plus the coordinates of every group element.

    Greedy structure walk (Cohen, GTM 138, 5.2-5.4; Buchmann and Schmidt,
    Math. Comp. 2005): each element not yet expressed becomes the next
    generator g.  With k the least power of g in the subgroup H built so
    far, the cosets g^i H for 0 < i < k are all new, and g^k = h in H gives
    the triangular relation row k e_g - vec(h).  SNF turns the rows into
    invariants and generator images; every element's coordinates are its
    exponent vector times the images, modulo the invariants.
    """
    index: dict[_T, int] = {identity: 0}  # element -> its row of ``exps``
    exps = np.zeros((1, 0), dtype=np.int64)  # row i: generator exponents of element i
    rows: list[list[int]] = []
    for g in elements:
        if g in index:
            continue
        known = list(index)[1:]  # H minus the identity: power * identity is power
        power, k = g, 1
        while power not in index:
            # power = g^k lies outside H, so the whole coset power * H is new
            index[power] = len(index)
            for base in known:
                prod = op(power, base)
                if prod in index:
                    raise InternalConsistencyError("coset overlap during structure walk")
                index[prod] = len(index)
            power = op(power, g)
            k += 1
        # g^k lies in H (k is minimal), so its exponents are an old row
        rows.append([-x for x in exps[index[power]].tolist()] + [k])
        # coset g^i H repeats the rows of H with exponent i for g
        exps = np.column_stack([np.tile(exps, (k, 1)), np.repeat(np.arange(k), len(exps))])
    n = len(rows)
    group, images = group_from_relations(n, [row + [0] * (n - len(row)) for row in rows])
    # exponents stay below |G| and images below the invariants, so each
    # entry of the product is below n * |G|**2, far inside int64
    gens = np.array([e.coords for e in images], dtype=np.int64).reshape(n, group.rank)
    coords = (exps @ gens) % np.array(group.invariants, dtype=np.int64)
    return group, dict(zip(index, map(tuple, coords.tolist())))


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

_MAX_SUBGROUP_ORDER = 10**6
# mixed-radix codes of ambient coordinates, and the sum of two, stay inside int64
_MAX_CODED_ORDER = 1 << 62


def _radix(group: FiniteAbelianGroup) -> tuple[int, ...]:
    """Place values of the mixed-radix code, first coordinate most
    significant: code order is coordinate order, over 0 .. |G| - 1.  A group
    whose codes could leave int64 is refused before any code is built."""
    if group.order > _MAX_CODED_ORDER:
        raise PreconditionError(
            f"ambient group order {group.order} exceeds {_MAX_CODED_ORDER}, "
            "the bound of int64 coordinate codes"
        )
    return tuple(prod(group.invariants[i + 1:]) for i in range(group.rank))


class Subgroup:
    """A subgroup H of ``ambient``, held as arrays in coordinate order.

    ``abstract`` is H's invariant-factor form, with basis vector i at the
    ambient coordinates ``basis[i]``.  Row i of ``abstract_coords`` and of
    ``coords`` are H's i-th element in each form, and ``codes[i]`` is the
    mixed-radix code of ``coords[i]``: the image of ``np.indices`` over the
    abstract invariants, sorted by code.  Membership is a binary search of
    the codes.  H is also the read-only sequence of its ``elements``, each
    :class:`GroupElement` built only when it is indexed.
    """

    def __init__(self, ambient: FiniteAbelianGroup, generators: Sequence[GroupElement],
                 abstract: FiniteAbelianGroup, basis: Sequence[Sequence[int]]):
        self.radix = _radix(ambient)
        self.ambient = ambient
        self.generators = tuple(generators)
        self.abstract = abstract
        xs = np.indices(abstract.invariants, dtype=np.int64).reshape(abstract.rank, abstract.order)
        coords = np.zeros((ambient.rank, abstract.order), dtype=np.int64)
        for x, a, b in zip(xs, abstract.invariants, basis):
            for col, d, bc in zip(coords, ambient.invariants, b):
                # a * bc = 0 mod d, so bc = u * d/g for g = gcd(a, d), and x * bc
                # mod d = (x * u mod g) * d/g, where x * u < a**2 stays in int64
                g = gcd(a, d)
                col += (np.arange(a, dtype=np.int64) * (bc // (d // g)) % g * (d // g))[x]
                np.subtract(col, d, out=col, where=col >= d)
        codes = np.array(self.radix, dtype=np.int64) @ coords
        order = np.argsort(codes)
        self.coords, self.codes, self.abstract_coords = coords.T[order], codes[order], xs.T[order]
        if np.any(self.codes[1:] == self.codes[:-1]):
            raise InternalConsistencyError("two abstract coordinate vectors give one element")

    @property
    def elements(self) -> "Subgroup":
        return self

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def index(self) -> int:
        return self.ambient.order // self.order

    def position(self, g: GroupElement) -> Optional[int]:
        """Row of g in the arrays, or None when g does not lie in H."""
        if not (isinstance(g, GroupElement) and g.group == self.ambient):
            return None
        code = sum(c * r for c, r in zip(g.coords, self.radix))
        i = int(np.searchsorted(self.codes, code))
        return i if i < self.order and self.codes[i] == code else None

    def __contains__(self, g: GroupElement) -> bool:
        return self.position(g) is not None

    def __len__(self) -> int:
        return self.order

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.order))]
        return _reduced_element(self.ambient, tuple(self.coords[i].tolist()))

    def __iter__(self) -> Iterator[GroupElement]:
        return map(self.__getitem__, range(self.order))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.ambient == other.ambient
            and np.array_equal(self.codes, other.codes)
        )

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.ambient})"


def _generated_basis(group: FiniteAbelianGroup, gens: Sequence[GroupElement]):
    """<gens> in invariant-factor form, and the ambient coordinates of its basis.

    The lattice L of the generators and the rows diag(d) has the basis s_l *
    w_l from the Smith normal form u A v = diag(s) of those rows (w = v^-1).
    H = L / diag(d) Z^k, and row j of diag(d) is t_jl = d_j v_jl / s_l in
    that basis: t's Smith normal form gives H's invariants, and the rows of
    its inverse column transform H's basis in the coordinates of L.
    """
    for g in gens:
        if g.group != group:
            raise InputError("generator does not belong to the ambient group")
    inv, k = group.invariants, group.rank
    rows = [[d * (i == j) for j in range(k)] for i, d in enumerate(inv)]
    rows += map(list, dict.fromkeys(g.coords for g in gens))  # a repeat adds nothing
    s, v, w = smith_normal_form(rows, k)
    t = [[d * vjl // sl for vjl, sl in zip(vj, s)] for d, vj in zip(inv, v)]
    a, _, w2 = smith_normal_form(t, k)
    keep = [i for i in range(k) if a[i] > 1]
    basis = [[sum(w2[i][l] * s[l] * w[l][c] for l in range(k)) % inv[c] for c in range(k)]
             for i in keep]
    return FiniteAbelianGroup(tuple(a[i] for i in keep)), basis


def generated_order(group: FiniteAbelianGroup, gens: Sequence[GroupElement]) -> int:
    """|<gens>|, from the normal forms alone, without building any element."""
    return _generated_basis(group, gens)[0].order


def subgroup_generated(
    group: FiniteAbelianGroup, gens: Sequence[GroupElement]
) -> Subgroup:
    """The subgroup generated by ``gens`` (an empty list gives the trivial subgroup).

    A subgroup above ``_MAX_SUBGROUP_ORDER`` is refused before any element
    is built.
    """
    abstract, basis = _generated_basis(group, gens)
    if abstract.order > _MAX_SUBGROUP_ORDER:
        raise PreconditionError(
            f"subgroup order {abstract.order} exceeds the cap {_MAX_SUBGROUP_ORDER}")
    return Subgroup(group, gens, abstract, basis)


def full_subgroup(group: FiniteAbelianGroup) -> Subgroup:
    """The whole group, as a Subgroup.  G's invariants are in invariant-factor
    form, so its standard generators are the basis: ``abstract`` is G, and row
    i is G's i-th element in coordinate order, its own abstract coordinates."""
    return subgroup_generated(group, group.generators())


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

class Character:
    """A character of a subgroup, with exact rational angles.

    ``angle(g)`` returns the fraction of a full turn in [0, 1); ``value(g)``
    is the corresponding unit complex number.  The argument is an *ambient*
    element that must lie in the subgroup.
    """

    def __init__(
        self,
        domain: Subgroup,
        invariants: tuple[int, ...],
        coords: tuple[int, ...],
    ):
        self.domain = domain
        self.invariants = invariants
        self.coords = coords

    def angle(self, g: GroupElement) -> Fraction:
        """Exact angle at g, as a fraction of a full turn in [0, 1)."""
        i = self.domain.position(g)
        if i is None:
            raise InputError("element lies outside the character's subgroup")
        total = Fraction(0)
        for x, y, d in zip(self.coords, self.domain.abstract_coords[i].tolist(), self.invariants):
            total += Fraction(x * y, d)
        return total % 1

    def value(self, g: GroupElement) -> complex:
        return _cexp(2j * pi * float(self.angle(g)))



def characters_of(subgroup: Subgroup) -> list[Character]:
    """All |H| characters of the subgroup, lexicographic in abstract coordinates."""
    inv = subgroup.abstract.invariants
    chars = [
        Character(subgroup, inv, coords)
        for coords in itertools.product(*(range(d) for d in inv))
    ]
    if len(chars) != subgroup.order:
        raise InternalConsistencyError("character count != subgroup order")
    return chars


def character_angles(
    subgroup: Subgroup, elements: Sequence[GroupElement]
) -> tuple[int, Iterator[np.ndarray]]:
    """Integer angle numerators of every character of ``subgroup``, one
    element at a time.

    Returns ``(e, columns)`` with e the exponent of the subgroup and
    ``columns`` an iterator whose j-th item is the int64 array, of length
    |H|, with entry i = e * ``chi_i.angle(elements[j])``, an integer in
    [0, e); the characters come in :func:`characters_of` order, so entry 0
    is the trivial character.  A column is made only when it is drawn, but
    an element outside the subgroup is refused here, before any column.
    """
    rows = [subgroup.position(g) for g in elements]
    if None in rows:
        raise InputError("element lies outside the character's subgroup")
    inv = subgroup.abstract.invariants
    e = inv[-1] if inv else 1
    # chi_i has abstract coordinates np.indices(inv)[:, i] (lexicographic, as in
    # characters_of); each entry stays below rank * e**2 <= 20 * 10**12
    chars = np.indices(inv, dtype=np.int64).reshape(len(inv), subgroup.order).T
    scaled = chars * np.array([e // d for d in inv], dtype=np.int64)
    return e, ((scaled @ subgroup.abstract_coords[i]) % e for i in rows)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

@dataclass
class GroupFile:
    """A loaded group file: the group, and each ``subgroup NAME:`` line's
    generators, parsed and checked at load time.  No subgroup is built
    here, so a caller can size one first with :func:`generated_order`."""

    group: FiniteAbelianGroup
    generators: dict[str, list[GroupElement]]


def _parse_vector(token: str, rank: int, lineno: int) -> tuple[int, ...]:
    parts = token.split(",") if token else []
    if token == "" and rank == 0:
        parts = []
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise GroupFileError(lineno, f"bad coordinate vector {token!r}") from None
    if len(coords) != rank:
        raise GroupFileError(
            lineno, f"vector {token!r} has {len(coords)} coordinates, expected {rank}"
        )
    return coords


def parse_group_text(text: str) -> GroupFile:
    group: FiniteAbelianGroup | None = None
    generators: dict[str, list[GroupElement]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if group is None:
            if not line.startswith("invariants:"):
                raise GroupFileError(lineno, "first line must be 'invariants: ...'")
            body = line[len("invariants:"):].strip()
            try:
                inv = [int(x) for x in body.split()]
            except ValueError:
                raise GroupFileError(lineno, f"bad invariant list {body!r}") from None
            try:
                group = FiniteAbelianGroup(tuple(inv))
            except InputError as e:
                raise GroupFileError(lineno, str(e)) from None
            continue
        if line.startswith("subgroup "):
            head, _, body = line.partition(":")
            if not _:
                raise GroupFileError(lineno, "subgroup line needs ':'")
            name = head[len("subgroup "):].strip()
            if not name:
                raise GroupFileError(lineno, "subgroup needs a name")
            if name in generators:
                raise GroupFileError(lineno, f"duplicate subgroup {name!r}")
            rank = len(group.invariants)
            generators[name] = [group.element(_parse_vector(tok, rank, lineno))
                                for tok in body.split()]
            continue
        raise GroupFileError(lineno, f"unrecognized line {line!r}")
    if group is None:
        raise GroupFileError(1, "empty file: missing 'invariants:' line")
    return GroupFile(group, generators)


def load_group_file(path: str) -> GroupFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"group file {path} is not UTF-8: {e}") from None
    return parse_group_text(text)
