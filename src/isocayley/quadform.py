"""Binary quadratic forms and exact class groups of imaginary quadratic orders.

Only negative discriminants are served: the endomorphism ring of an ordinary
elliptic curve over F_p is an imaginary quadratic order, and its classes have
unique reduced representatives.  Composition is classical Gauss composition;
nothing here is asymptotically clever, everything is exact.

A form class is its canonical reduced form: :func:`reduce_form` is the one
way to get one, and :func:`compose`, :func:`inverse`, :func:`prime_form` and
:class:`ClassGroup` take and return reduced :class:`QuadForm` objects.

A class group is carried together with its invariant-factor structure and a
bijective dictionary between classes and group elements, so that Cayley
graphs can be built on (subgroups of) it; both come from the structure walk
:func:`isocayley.abelian.structure_of`, run over the classes under
:func:`compose`.  :func:`generating_multiset` is the one builder of the
prime-form generators S_B, labeled "ell:b" (split) or "ell" (ramified).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .abelian import FiniteAbelianGroup, GroupElement, Subgroup, structure_of
from .errors import InputError, InternalConsistencyError, PreconditionError
from .ntheory import fundamental_discriminant, is_prime, kronecker, primes_below, sqrt_mod_prime

__all__ = [
    "Discriminant",
    "QuadForm",
    "ClassGroup",
    "SBGenerator",
    "reduce_form",
    "compose",
    "inverse",
    "principal_form",
    "class_group",
    "prime_form",
    "generating_multiset",
    "check_prime_bound",
]

DEFAULT_DISC_BOUND = 10**7
# primes_below(B) sieves B bytes, so a prime-norm bound is checked against
# this cap before anything is allocated
PRIME_BOUND_CAP = 10**5


@dataclass(frozen=True)
class Discriminant:
    """A nonsquare integer D = 0 or 1 mod 4, split as D = f^2 * d_K."""

    value: int
    fundamental: int
    conductor: int

    @classmethod
    def of(cls, value: int) -> "Discriminant":
        d_k, f = fundamental_discriminant(value)
        return cls(value, d_k, f)

    def __int__(self) -> int:
        return self.value


def _as_disc(d: "Discriminant | int") -> Discriminant:
    return d if isinstance(d, Discriminant) else Discriminant.of(d)


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 and self.discriminant < 0:
            raise InputError(f"form {self.triple()} is not positive definite")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"QuadForm{self.triple()}"


def principal_form(disc: "Discriminant | int") -> QuadForm:
    """The principal (identity) form (1, k, (k^2-D)/4) with k = D mod 2."""
    d = _as_disc(disc).value
    k = d % 2
    return QuadForm(1, k, (k * k - d) // 4)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def _normalize_definite(a: int, b: int, c: int) -> tuple[int, int, int]:
    # shift b into (-a, a]
    r = b % (2 * a)
    if r > a:
        r -= 2 * a
    c = c + (r * r - b * b) // (4 * a)
    return a, r, c


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced form equivalent to f: |b| <= a <= c, b >= 0 on ties."""
    a, b, c = f.a, f.b, f.c
    d = b * b - 4 * a * c
    if d >= 0 or d % 4 not in (0, 1):
        raise InputError(f"form {f.triple()} has discriminant {d}, not a negative discriminant")
    a, b, c = _normalize_definite(a, b, c)
    while a > c or b <= -a:
        if a > c:
            a, b, c = c, -b, a
        a, b, c = _normalize_definite(a, b, c)
    if (b < 0) and (-b == a or a == c):
        b = -b
    return QuadForm(a, b, c)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def compose(x: QuadForm, y: QuadForm) -> QuadForm:
    """Gauss composition of form classes (classical algorithm, no shortcuts).

    Returns the reduced form of the product class.
    """
    a1, b1, c1 = x.a, x.b, x.c
    a2, b2, c2 = y.a, y.b, y.c
    disc = b1 * b1 - 4 * a1 * c1
    if b2 * b2 - 4 * a2 * c2 != disc:
        raise InputError(f"discriminant mismatch: {disc} vs {y.discriminant}")
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _ = _xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u, v = _xgcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    num = c2 * d1 + r * (b2 + v2 * r)
    if num % v1:
        raise InternalConsistencyError(f"composition failed on {x} * {y}")
    c3 = num // v1
    if b3 * b3 - 4 * a3 * c3 != disc:
        raise InternalConsistencyError(f"composition broke the discriminant on {x} * {y}")
    return reduce_form(QuadForm(a3, b3, c3))


def inverse(x: QuadForm) -> QuadForm:
    a, b, c = x.triple()
    return reduce_form(QuadForm(a, -b, c))


# ---------------------------------------------------------------------------
# Enumeration of reduced forms
# ---------------------------------------------------------------------------

def _reduced_definite_forms(d: int) -> Iterator[QuadForm]:
    """All primitive reduced forms of discriminant d < 0 (ascending a, then b).

    A leading coefficient a with an inert prime factor p is skipped: b^2 = d
    has no root mod p (mod 8 when p = 2), so it has none mod 4a either.
    """
    bound = isqrt(-d // 3)
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[0] = False
    for p in primes_below(bound + 1):
        if kronecker(d, p) == -1:
            sieve[p::p] = False
    for a in np.flatnonzero(sieve).tolist():
        # every -a < b <= a with b = d (mod 2) at once; b*b - d <= 4|d|/3
        b = np.arange(-a + 1 + (a + 1 + d) % 2, a + 1, 2, dtype=np.int64)
        b = b[(b * b - d) % (4 * a) == 0]
        c = (b * b - d) // (4 * a)
        # b > -a already, so the boundary sign rule only bites when a == c
        keep = (c >= a) & ((b >= 0) | (c > a))
        keep &= np.gcd(np.gcd(b, a), c) == 1
        for bb, cc in zip(b[keep].tolist(), c[keep].tolist()):
            yield QuadForm(a, bb, cc)


# ---------------------------------------------------------------------------
# Class groups
# ---------------------------------------------------------------------------

class ClassGroup:
    """A form class group with explicit abelian structure.

    ``classes`` holds the reduced forms, sorted by triple; ``to_element`` /
    ``from_element`` form the bijective dictionary with the invariant-factor
    group.  Construction checks bijectivity and the order; the exhaustive
    homomorphism check lives in the test suite.
    """

    def __init__(self, disc: Discriminant, classes: Sequence[QuadForm]):
        self.discriminant = disc
        self.classes = tuple(sorted(classes, key=lambda c: c.triple()))
        self.identity = reduce_form(principal_form(disc))
        group, to_elem = self._structure()
        self.group = group
        self.to_element = to_elem
        self.from_element = {e: c for c, e in to_elem.items()}
        if len(self.from_element) != len(self.classes):
            raise InternalConsistencyError("class -> element dictionary not bijective")

    @property
    def order(self) -> int:
        return len(self.classes)

    def _structure(self) -> tuple[FiniteAbelianGroup, dict[QuadForm, GroupElement]]:
        # the classes are sorted by triple, so the walk and the coordinates depend on D alone
        group, coords = structure_of(self.classes, self.identity, compose)
        if group.order != len(self.classes):
            raise InternalConsistencyError(
                f"structure of order {group.order} for {len(self.classes)} classes"
            )
        if len(coords) != len(self.classes):
            raise InternalConsistencyError("structure walk missed classes")
        return group, {cl: GroupElement(group, c) for cl, c in coords.items()}

    def element_of(self, cl: QuadForm) -> GroupElement:
        try:
            return self.to_element[cl]
        except KeyError:
            raise InputError(
                f"{cl} is not a reduced form of discriminant {self.discriminant.value}"
            ) from None

    def class_of(self, e: GroupElement) -> QuadForm:
        try:
            return self.from_element[e]
        except KeyError:
            raise InputError(f"{e} is not an element of {self.group}") from None

    def to_json(self) -> dict:
        return {
            "discriminant": self.discriminant.value,
            "conductor": self.discriminant.conductor,
            "fundamental": self.discriminant.fundamental,
            "order": self.order,
            "invariants": list(self.group.invariants),
            "classes": [
                {"form": list(c.triple()), "coords": list(self.to_element[c].coords)}
                for c in self.classes
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ClassGroup(D={self.discriminant.value}, h={self.order}, "
            f"invariants={list(self.group.invariants)})"
        )


def class_group(disc: "Discriminant | int") -> ClassGroup:
    """The class group of a negative discriminant D with |D| <= DEFAULT_DISC_BOUND."""
    d = _as_disc(disc)
    if d.value > 0:
        raise PreconditionError(f"class groups need a negative discriminant, got {d.value}")
    if d.value < -DEFAULT_DISC_BOUND:
        raise PreconditionError(f"|{d.value}| exceeds the configured bound {DEFAULT_DISC_BOUND}")
    return ClassGroup(d, list(_reduced_definite_forms(d.value)))


# ---------------------------------------------------------------------------
# Prime forms and S_B
# ---------------------------------------------------------------------------

def prime_form(disc: "Discriminant | int", ell: int) -> Optional[tuple[QuadForm, QuadForm, int]]:
    """The reduced form class(es) above the rational prime ell, if any.

    Returns None when ell is inert.  Otherwise returns (cls, cls_inverse, b)
    where (ell, b, .) is the prime form with 0 <= b < 2*ell; for ramified
    primes the two classes coincide.  Raises when ell divides the conductor.
    """
    d = _as_disc(disc)
    if not is_prime(ell):
        raise InputError(f"{ell} is not prime")
    if d.conductor % ell == 0:
        raise PreconditionError(
            f"prime {ell} divides the conductor {d.conductor}; the ideal is not invertible"
        )
    ds = d.value
    sym = kronecker(ds, ell)
    if sym == -1:
        return None
    if ell == 2:
        if sym == 1:  # ds = 1 mod 8
            b = 1
        else:  # ramified: ds = 0 or 4 mod 8
            b = 0 if ds % 8 == 0 else 2
    elif sym == 0:
        b = ell if ds % 2 else 0
    else:
        r = sqrt_mod_prime(ds % ell, ell)
        if r is None:
            raise InternalConsistencyError(f"split prime {ell} has no sqrt of {ds}")
        b = r if (r - ds) % 2 == 0 else r + ell
        b = min(b, 2 * ell - b)  # canonical root, so labels are deterministic
    num = b * b - ds
    if num % (4 * ell):
        raise InternalConsistencyError(f"prime form above {ell}: 4l does not divide b^2-D")
    cls = reduce_form(QuadForm(ell, b, num // (4 * ell)))
    return cls, inverse(cls), b


def check_prime_bound(bound: int) -> None:
    """Reject a prime-norm bound above PRIME_BOUND_CAP."""
    if bound > PRIME_BOUND_CAP:
        raise PreconditionError(f"prime bound {bound} exceeds the cap {PRIME_BOUND_CAP}")


@dataclass(frozen=True)
class SBGenerator:
    """One labeled member of the generating multiset S_B."""

    label: str
    ell: int
    b: int
    form_class: QuadForm
    element: GroupElement


def generating_multiset(cls_group: ClassGroup, bound: int, subgroup: Subgroup) -> list[SBGenerator]:
    """Labeled prime-form generators with prime norm below ``bound``.

    For each prime ell < bound coprime to the conductor, every prime form
    above ell whose class lies in ``subgroup`` enters the multiset: both
    conjugates when ell splits (labels "ell:b" and "ell:2*ell-b"), one entry
    labeled "ell" when ell ramifies.  The result is closed under inversion
    as a multiset.  Callers that want a subset of the primes filter it.
    """
    if subgroup.ambient != cls_group.group:
        raise InputError("subgroup does not live in the given class group")
    check_prime_bound(bound)
    disc = cls_group.discriminant
    out: list[SBGenerator] = []
    for ell in primes_below(bound):
        if disc.conductor % ell == 0:
            continue
        hit = prime_form(disc, ell)
        if hit is None:
            continue
        cls, cls_inv, b = hit
        elem = cls_group.element_of(cls)
        if elem not in subgroup:
            continue
        sym = kronecker(disc.value, ell)
        if sym == 0:
            out.append(SBGenerator(str(ell), ell, b, cls, elem))
        else:
            b_conj = (2 * ell - b) % (2 * ell)
            out.append(SBGenerator(f"{ell}:{b}", ell, b, cls, elem))
            out.append(
                SBGenerator(
                    f"{ell}:{b_conj}", ell, b_conj, cls_inv, cls_group.element_of(cls_inv)
                )
            )
    return out
