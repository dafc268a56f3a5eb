"""Binary quadratic forms and exact class groups of imaginary quadratic orders.

Only negative discriminants are served: the endomorphism ring of an ordinary
elliptic curve over F_p is an imaginary quadratic order, and its classes have
unique reduced representatives.  Everything is exact.

A form a x^2 + b xy + c y^2 is its int triple (a, b, c), and a form class
is its reduced triple: |b| <= a <= c, with b >= 0 when |b| = a or a = c.
:func:`reduce_form` checks a triple from outside the program (positive
definite, of a negative discriminant) and reduces it; :func:`compose`
(classical Gauss composition), :func:`inverse`, :func:`prime_form` and
:class:`ClassGroup` take and return reduced triples.

The reduced forms of D are enumerated from the square roots of D modulo 4a,
one leading coefficient a <= sqrt(|D|/3) at a time, so the enumeration
costs a few Python steps per root rather than one test per candidate b.

A class group is carried together with its invariant-factor structure and
each class's coordinates in it, so that Cayley graphs can be built on
(subgroups of) it; both come from the structure walk
:func:`isocayley.abelian.structure_of`, run over the classes under
:func:`compose`.  :func:`prime_forms` is the one builder of the
prime-form generators S_B, labeled "ell:b" (split) or "ell" (ramified), and
:func:`generating_multiset` gives them their elements in a subgroup.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor, gcd, isqrt, log, pi, sqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .abelian import FiniteAbelianGroup, GroupElement, Subgroup, full_subgroup, structure_of
from .abelian import _reduced_element
from .errors import InputError, InternalConsistencyError, PreconditionError
from .ntheory import (
    check_discriminant_shape,
    fundamental_discriminant,
    is_prime,
    kronecker,
    primes_below,
    sqrt_mod_prime,
)

__all__ = [
    "Discriminant",
    "ClassGroup",
    "SBGenerator",
    "reduce_form",
    "compose",
    "inverse",
    "principal_form",
    "check_discriminant",
    "class_group",
    "class_number",
    "class_number_bound",
    "form_named",
    "prime_form",
    "prime_forms",
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


def principal_form(disc: "Discriminant | int") -> tuple[int, int, int]:
    """The principal (identity) form (1, k, (k^2-D)/4) with k = D mod 2,
    reduced for D < 0."""
    d = _as_disc(disc).value
    k = d % 2
    return 1, k, (k * k - d) // 4


# ---------------------------------------------------------------------------
# Reduction and composition, on int triples
# ---------------------------------------------------------------------------

def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced triple of the positive definite form (a, b, c)."""
    while True:
        if not -a < b <= a:  # shift b into (-a, a]
            k = (a - b) // (2 * a)
            b, c = b + 2 * a * k, (a * k + b) * k + c
        if a > c:
            a, b, c = c, -b, a
        elif a == c and b < 0:
            return a, -b, c
        else:
            return a, b, c


def reduce_form(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """The unique reduced form equivalent to f: |b| <= a <= c, b >= 0 on ties.
    f is checked first, so a triple from outside the program reaches
    :func:`_reduce` only when it is positive definite."""
    a, b, c = f
    d = b * b - 4 * a * c
    if a <= 0 and d < 0:
        raise InputError(f"form {(a, b, c)} is not positive definite")
    if d >= 0 or d % 4 not in (0, 1):
        raise InputError(f"form {(a, b, c)} has discriminant {d}, not a negative discriminant")
    return _reduce(a, b, c)


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


def compose(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss composition of form classes: the reduced form of the product
    class of two triples of one negative discriminant (the classical
    algorithm, Cohen, GTM 138, section 5.4)."""
    a1, b1, c1 = x
    a2, b2, c2 = y
    disc = b1 * b1 - 4 * a1 * c1
    if b2 * b2 - 4 * a2 * c2 != disc:
        raise InputError(f"discriminant mismatch: {disc} vs {b2 * b2 - 4 * a2 * c2}")
    if disc >= 0:
        raise InputError(f"forms {x}, {y} have discriminant {disc}, not a negative discriminant")
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = _xgcd(a2, a1)
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, x2, v = _xgcd(s, d)
        y2 = -v
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
    return _reduce(a3, b3, c3)


def inverse(x: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = x
    return reduce_form((a, -b, c))


# ---------------------------------------------------------------------------
# Enumeration of reduced forms
# ---------------------------------------------------------------------------

def _reduced_definite_forms(d: int) -> Iterator[tuple[int, int, int]]:
    """All primitive reduced forms of discriminant d < 0 (ascending a, then b).

    For each leading coefficient a, the middle coefficients b are the square
    roots of d mod 4a, one in (-a, a] per root mod 2a (Cohen, GTM 138, 1.5
    and 5.3).  They come by CRT from the roots modulo the prime powers of
    4a: mod an odd p not dividing d, ``sqrt_mod_prime`` lifted by Hensel;
    mod a power of 2 or of a p dividing d, a direct search.  A leading
    coefficient with an inert prime factor p is skipped: b^2 = d has no
    root mod p (mod 8 when p = 2), so it has none mod 4a either.
    """
    bound = isqrt(-d // 3)
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[0] = False
    spf = np.zeros(bound + 1, dtype=np.int64)  # smallest prime factor
    for p in reversed(primes_below(bound + 1)):
        spf[p::p] = p
        if kronecker(d, p) == -1:
            sieve[p::p] = False
    spf = spf.tolist()

    def crt(m1: int, r1: list[int], m2: int, r2: list[int]) -> list[int]:
        u = pow(m1, -1, m2)
        return [x + m1 * ((y - x) * u % m2) for x in r1 for y in r2]

    # roots mod m of b^2 = d (mod m), m odd; then mod 2^(e+1) of b^2 = d (mod 2^(e+2))
    odd: dict[int, list[int]] = {1: [0]}
    two: dict[int, list[int]] = {}

    def odd_roots(m: int) -> list[int]:
        if m not in odd:
            p = q = spf[m]
            while m // q % p == 0:
                q *= p
            if q < m:
                odd[m] = crt(q, odd_roots(q), m // q, odd_roots(m // q))
            elif d % p:
                r = sqrt_mod_prime(d, p)
                if not r:
                    raise InternalConsistencyError(f"split prime {p} has no sqrt of {d}")
                k = p
                while k < q:
                    k *= p
                    r = (r - (r * r - d) * pow(2 * r, -1, k)) % k
                odd[m] = [r, q - r]
            else:
                odd[m] = [x for x in range(q) if (x * x - d) % q == 0]
        return odd[m]

    for a in np.flatnonzero(sieve).tolist():
        e = (a & -a).bit_length() - 1
        if e not in two:
            two[e] = [x for x in range(2 << e) if (x * x - d) % (4 << e) == 0]
        a2 = 2 * a
        roots = crt(2 << e, two[e], a >> e, odd_roots(a >> e))
        for b in sorted(r - a2 if r > a else r for r in roots):
            c = (b * b - d) // (4 * a)
            # b > -a already, so the boundary sign rule only bites when a == c
            if c > a or (c == a and b >= 0):
                if gcd(a, b, c) == 1:
                    yield a, b, c


# ---------------------------------------------------------------------------
# Class groups
# ---------------------------------------------------------------------------

class ClassGroup:
    """A form class group with explicit abelian structure.

    ``classes`` holds the reduced form triples, sorted, and
    ``element_of`` / ``class_of`` map them to and from the invariant-factor
    group.  ``whole`` is that group as a :class:`Subgroup`, held as
    coordinate arrays, and row i of ``triples``, an (h, 3) int64 array, is
    the form (a, b, c) of its vertex i, the class whose coordinates have
    code i.  Construction checks bijectivity and the order; the exhaustive
    homomorphism check lives in the test suite.
    """

    def __init__(self, disc: Discriminant, classes: Sequence[tuple[int, int, int]]):
        self.discriminant = disc
        self.classes = tuple(sorted(classes))
        self.identity = principal_form(disc)
        self.group, self._coords = self._structure()
        self.whole = full_subgroup(self.group)
        rows = np.array(list(self._coords.values()), dtype=np.int64)  # (h, rank), h >= 1
        codes = rows @ np.array(self.whole.radix, dtype=np.int64)
        if not np.array_equal(np.sort(codes), np.arange(self.order)):
            raise InternalConsistencyError("class -> element map not bijective")
        self.triples = np.empty((self.order, 3), dtype=np.int64)
        self.triples[codes] = list(self._coords)

    @property
    def order(self) -> int:
        return len(self.classes)

    def _structure(self) -> tuple[FiniteAbelianGroup, dict[tuple[int, int, int], tuple[int, ...]]]:
        # the classes are sorted, so the walk and the coordinates depend on D alone
        group, coords = structure_of(self.classes, self.identity, compose)
        if group.order != len(self.classes):
            raise InternalConsistencyError(
                f"structure of order {group.order} for {len(self.classes)} classes"
            )
        if len(coords) != len(self.classes):
            raise InternalConsistencyError("structure walk missed classes")
        return group, coords

    def element_of(self, cl: tuple[int, int, int]) -> GroupElement:
        try:
            return _reduced_element(self.group, self._coords[cl])
        except KeyError:
            raise InputError(
                f"{cl} is not a reduced form of discriminant {self.discriminant.value}"
            ) from None

    def class_of(self, e: GroupElement) -> tuple[int, int, int]:
        i = self.whole.position(e)
        if i is None:
            raise InputError(f"{e} is not an element of {self.group}")
        return tuple(self.triples[i].tolist())

    def to_json(self) -> dict:
        return {
            "discriminant": self.discriminant.value,
            "conductor": self.discriminant.conductor,
            "fundamental": self.discriminant.fundamental,
            "order": self.order,
            "invariants": list(self.group.invariants),
            "classes": [
                {"form": list(c), "coords": list(self._coords[c])}
                for c in self.classes
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ClassGroup(D={self.discriminant.value}, h={self.order}, "
            f"invariants={list(self.group.invariants)})"
        )


def check_discriminant(disc: "Discriminant | int") -> Discriminant:
    """D as a :class:`Discriminant`, checked as :func:`class_group` needs it:
    negative, with |D| <= DEFAULT_DISC_BOUND.  The O(1) checks come first,
    in the order that the factoring of D would make its own, so a huge D
    is refused before it is factored."""
    value = int(disc)
    check_discriminant_shape(value)
    if value > 0:
        raise PreconditionError(f"class groups need a negative discriminant, got {value}")
    if value < -DEFAULT_DISC_BOUND:
        raise PreconditionError(f"|{value}| exceeds the configured bound {DEFAULT_DISC_BOUND}")
    return _as_disc(disc)


def class_group(disc: "Discriminant | int") -> ClassGroup:
    """The class group of a negative discriminant D with |D| <= DEFAULT_DISC_BOUND."""
    d = check_discriminant(disc)
    return ClassGroup(d, list(_reduced_definite_forms(d.value)))


def class_number(d: int) -> int:
    """h(D), the number of reduced primitive forms of D < 0, counted without
    the structure walk."""
    return sum(1 for _ in _reduced_definite_forms(d))


def class_number_bound(d: int) -> int:
    """An upper bound on h(D) for D < 0: floor(sqrt|D| (2 + ln|D|) / pi).

    Dirichlet's class number formula h(D) = w sqrt|D| L(1, chi_D) / (2 pi)
    holds for every negative discriminant, fundamental or not, with chi_D
    the Kronecker symbol (D/.), a nonprincipal character mod |D|.  Then
    |L(1, chi_D)| <= 2 + ln|D|, w = 2 for D < -4, and h = 1 for D = -3, -4.
    """
    n = -d
    return floor(sqrt(n) * (2 + log(n)) / pi)


def form_named(d: int, name) -> tuple[int, int, int]:
    """The reduced primitive form of discriminant d that ``name`` spells as a
    vertex name spells it, ``a:b:c`` in canonical decimals; anything else,
    "0368:291:6851" or "+5:3:401" too, names no vertex."""
    parts = name.split(":") if isinstance(name, str) else ()
    try:
        a, b, c = map(int, parts)
    except ValueError:
        raise InputError(f"no vertex is named {name!r}") from None
    if (f"{a}:{b}:{c}" != name or b * b - 4 * a * c != d
            or not -a < b <= a <= c or (a == c and b < 0) or gcd(a, b, c) != 1):
        raise InputError(f"no vertex is named {name!r}")
    return a, b, c


# ---------------------------------------------------------------------------
# Prime forms and S_B
# ---------------------------------------------------------------------------

def prime_form(
    disc: "Discriminant | int", ell: int
) -> Optional[tuple[tuple[int, int, int], tuple[int, int, int], int]]:
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
    cls = reduce_form((ell, b, num // (4 * ell)))
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
    form_class: tuple[int, int, int]
    element: GroupElement


def prime_forms(
    disc: "Discriminant | int", bound: int
) -> list[tuple[str, int, int, tuple[int, int, int]]]:
    """(label, ell, b, form) of every prime form of norm ell < ``bound``.

    For each prime ell below the bound coprime to the conductor, both
    conjugates enter when ell splits (labels "ell:b" and "ell:2*ell-b"), one
    entry labeled "ell" when ell ramifies.  The list is closed under
    inversion as a multiset, and its labels are distinct.
    """
    check_prime_bound(bound)
    disc = _as_disc(disc)
    out = []
    for ell in primes_below(bound):
        if disc.conductor % ell == 0:
            continue
        hit = prime_form(disc, ell)
        if hit is None:
            continue
        cls, cls_inv, b = hit
        if kronecker(disc.value, ell) == 0:
            out.append((str(ell), ell, b, cls))
        else:
            b_conj = (2 * ell - b) % (2 * ell)
            out.append((f"{ell}:{b}", ell, b, cls))
            out.append((f"{ell}:{b_conj}", ell, b_conj, cls_inv))
    return out


def generating_multiset(cls_group: ClassGroup, bound: int, subgroup: Subgroup) -> list[SBGenerator]:
    """The labeled :func:`prime_forms` below ``bound`` whose classes lie in
    ``subgroup``, with their elements.  A conjugate pair lies in a subgroup
    together, so the result is closed under inversion as a multiset.
    Callers that want a subset of the primes filter it.
    """
    if subgroup.ambient != cls_group.group:
        raise InputError("subgroup does not live in the given class group")
    out: list[SBGenerator] = []
    for label, ell, b, form in prime_forms(cls_group.discriminant, bound):
        elem = cls_group.element_of(form)
        if elem in subgroup:
            out.append(SBGenerator(label, ell, b, form, elem))
    return out
