"""Ordinary elliptic-curve isogeny graphs over small prime fields.

Everything here is desk scale on purpose: point counts are naive O(p)
Legendre sums, and each kernel polynomial is one gcd with a division
polynomial per Frobenius eigenvalue.  A graph's isogeny codomains are
not counted again: each is checked to be F_p-isomorphic to a counted
model of its j (``_model_scale``), and isomorphic curves have equal point
counts.  ``rational_l_isogenies``, which has no such model, re-counts.
Vertices are j-invariants; for each j the unique twist with Frobenius
trace exactly +t is the working model.  Only fundamental Frobenius
discriminants t^2 - 4p are accepted, so the whole class sits at the
maximal order and every computed isogeny is horizontal.

The class has exactly h(D) j-invariants, and Cl(D) acts on it through
those horizontal isogenies (Galbraith's algorithm), so the graph is grown
by breadth-first search over the computed edges instead of by counting a
model for every j.  Seeds come from a scan of j in increasing order that
skips what a search has already reached and stops once h(D) vertices are
known.  The search goes one BFS level at a time: the division
polynomials, reduction tables, Frobenius powers and kernel gcds of a
level's curves are computed as stacked arrays, once per (level, ell), and
only Velu and the model checks run curve by curve.  A degree ell inert in
Q(sqrt(D)) has no rational kernel, so its division polynomial is never
built.  Point images (``isogeny_eval``, which carries a discrete log along
a path) need no polynomial arithmetic: Kohel's closed form of Velu's map
reads them off the kernel polynomial and its first three derivatives at x.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, replace
from math import gcd, isqrt

import numpy as np

from . import fppoly as fp
from .cayley import StepGraph, build as build_cayley
from .errors import InputError, InternalConsistencyError, PreconditionError
from .ntheory import (
    factorize,
    fundamental_discriminant,
    is_prime,
    kronecker,
    sqrt_mod_prime,
)
from .walks import PhiloxGenerator, _seed_key

__all__ = [
    "FIELD_CAP",
    "DEGREE_CAP",
    "Curve",
    "curve",
    "curve_with_j",
    "enumerate_isogeny_class",
    "division_polys",
    "IsogenyEdge",
    "rational_l_isogenies",
    "velu_codomain",
    "isogeny_eval",
    "IsogenyGraph",
    "build_isogeny_graph",
    "ComparisonReport",
    "compare_to_cayley",
    "comparison_to_json",
    "ec_add",
    "ec_neg",
    "ec_mul",
    "is_on_curve",
    "transfer_dlp",
    "edges_along",
    "run_dlp_demo",
]

FIELD_CAP = 10**4
DEGREE_CAP = 31
# largest gap between the sorted isogeny and Cayley spectra that compare_to_cayley accepts
SPECTRUM_TOL = 1e-6
# reduction-table entries (int64) that one stack of the kernel search may hold
_STACK_ENTRIES = 2**18


def _check_degree(ell: int, p: int) -> None:
    """Reject an isogeny degree before anything is built for it.

    The kernel search works modulo psi_ell, of degree n = (ell^2 - 1) / 2,
    through an n x (n - 1) int64 reduction table per curve, so time grows
    faster than ell^4.  Curves are searched in stacks whose tables hold at
    most ``_STACK_ENTRIES`` entries (2 MiB), so memory does not grow with
    the class; from ell = 29 on a stack is one curve.  The cap 31 (n = 480,
    a 1.8 MB table) sits far above every degree the demos use, and keeps
    the table's sums exact: n * p^2 < 2^63 at the field cap.
    """
    if ell > DEGREE_CAP:
        raise PreconditionError(f"degree {ell} exceeds the isogeny-degree cap {DEGREE_CAP}")
    if ell == 2 or not is_prime(ell):
        raise PreconditionError(f"degree {ell} is not an odd prime")
    if ell == p:
        raise PreconditionError(f"degree {ell} equals the field characteristic")


def _check_field(p: int) -> None:
    if p > FIELD_CAP:
        raise PreconditionError(f"p = {p} exceeds the naive-counting cap {FIELD_CAP}")
    if p < 3 or not is_prime(p):
        raise InputError(f"p = {p} is not an odd prime")


@functools.lru_cache(maxsize=16)
def _count_tables(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, x^3 mod p, and the Legendre symbol of every residue, as int64."""
    xs = np.arange(p, dtype=np.int64)
    legendre = np.full(p, -1, dtype=np.int64)
    legendre[(xs * xs) % p] = 1
    legendre[0] = 0
    return xs, (xs * xs % p) * xs % p, legendre


def _count(p: int, a: int, b: int) -> tuple[int, int]:
    xs, cubes, legendre = _count_tables(p)
    v = cubes + a * xs + b  # below p^2; v // p takes numpy's divide-by-scalar fast path, v % p does not
    order = p + 1 + int(legendre[v - v // p * p].sum())
    t = p + 1 - order
    if t * t > 4 * p:
        raise InternalConsistencyError(f"trace {t} violates the Hasse bound at p = {p}")
    return order, t


def _j_invariant(p: int, a: int, b: int) -> int:
    num = 4 * pow(a, 3, p) % p
    den = (num + 27 * b * b) % p
    return 1728 * num * pow(den, -1, p) % p


@dataclass(frozen=True)
class Curve:
    """Short Weierstrass model y^2 = x^3 + ax + b over F_p."""

    p: int
    a: int
    b: int
    j: int
    t: int

    @property
    def ordinary(self) -> bool:
        return self.t % self.p != 0

    @property
    def order(self) -> int:
        return self.p + 1 - self.t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Curve(p={self.p}, a={self.a}, b={self.b}, j={self.j}, t={self.t})"


def curve(p: int, a: int, b: int) -> Curve:
    _check_field(p)
    a, b = a % p, b % p
    if (4 * pow(a, 3, p) + 27 * b * b) % p == 0:
        raise InputError(f"singular model a = {a}, b = {b} over F_{p}")
    _, t = _count(p, a, b)
    return Curve(p, a, b, _j_invariant(p, a, b), t)


def curve_with_j(p: int, j: int) -> tuple[int, int]:
    """Some model (a, b) with the requested j-invariant."""
    j %= p
    if j == 0:
        return 0, 1
    if j == 1728 % p:
        return 1, 0
    k = j * pow((1728 - j) % p, -1, p) % p
    return 3 * k % p, 2 * k % p


def _non_residue(p: int) -> int:
    for n in range(2, p):
        if kronecker(n, p) == -1:
            return n
    raise InternalConsistencyError(f"no quadratic non-residue found modulo {p}")


def _twist_with_trace(p: int, j: int, t: int) -> Curve | None:
    base = curve(p, *curve_with_j(p, j))
    if base.t == t:
        return base
    if base.t == -t and t != 0:
        n = _non_residue(p)
        return curve(p, base.a * n * n % p, base.b * pow(n, 3, p) % p)
    if j % p == 0 or j % p == 1728 % p:
        # quartic/sextic twist families: scan the whole fiber
        for c in range(1, p):
            cand = curve(p, c if j % p == 1728 % p else 0, 0 if j % p == 1728 % p else c)
            if cand.t == t:
                return cand
    return None


def _frobenius_disc(p: int, t: int) -> int:
    if t % p == 0:
        raise PreconditionError(
            f"t = {t} vanishes mod p = {p}: supersingular classes are out of scope"
        )
    d = t * t - 4 * p
    if d >= 0:
        raise PreconditionError(f"t = {t} is outside the Hasse range for p = {p}")
    _, conductor = fundamental_discriminant(d)
    if conductor != 1:
        raise PreconditionError(
            f"Frobenius discriminant {d} has conductor {conductor}; only fundamental "
            f"discriminants are supported (vertical structure is out of scope)"
        )
    return d


def _class_scan(p: int, t: int, disc: int, reached=()):
    """Trace-t models over F_p in j order, skipping the j's in ``reached``.

    ``reached`` is read afresh at every j, so a caller that grows it while
    consuming the scan skips what it has found in the meantime.  j = 0 and
    j = 1728 carry CM by Z[zeta_3] and Z[i], so with a fundamental Frobenius
    discriminant D they belong to the class only when D = -3 and D = -4
    respectively; their twist fibers are scanned only then.
    """
    skip = {0: disc != -3, 1728 % p: disc != -4}
    for j in range(p):
        if j in reached or skip.get(j, False):
            continue
        c = _twist_with_trace(p, j, t)
        if c is not None:
            yield c


def _checked_class(p: int, t: int) -> tuple[int, int]:
    """(D, h(D)) for the trace-t class over F_p, once p and t are checked.
    h(D) is counted without Cl(D)'s structure walk."""
    from .quadform import class_number

    _check_field(p)
    if p < 5:
        raise InputError("isogeny classes need p >= 5")
    disc = _frobenius_disc(p, t)
    return disc, class_number(disc)


def enumerate_isogeny_class(p: int, t: int) -> list[int]:
    """All j-invariants over F_p admitting a twist with trace exactly t.

    The class of a fundamental discriminant D = t^2 - 4p has exactly h(D)
    j-invariants, so the scan over j in increasing order stops at the
    h(D)-th one instead of running on to p.
    """
    disc, h = _checked_class(p, t)
    js = []
    for c in _class_scan(p, t, disc):
        js.append(c.j)
        if len(js) == h:
            break
    return js


def division_polys(p: int, a, b, upto: int) -> list[np.ndarray]:
    """w[0..upto] for a stack of models y^2 = x^3 + a[i] x + b[i].

    psi_m = w_m for odd m and psi_m = y*w_m for even m.  w[m] is a (k, *)
    array with one row per model, of the formal width deg w_m + 1 (a
    leading coefficient that vanishes mod p stays as a zero).
    """
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    k = len(a)
    if upto < 4:
        upto = 4

    def const(c):
        return np.full((k, 1), c % p, dtype=np.int64)

    def coeffs(*cols):
        return np.stack([np.broadcast_to(c, (k,)) for c in cols], axis=1) % p

    def mul(u, v):
        return fp.stack_mul(u, v, p)

    w: list[np.ndarray] = [const(0)] * (upto + 1)
    w[1] = const(1)
    w[2] = const(2)
    w[3] = coeffs(-a * a, 12 * b, 6 * a, 0, 3)
    w[4] = coeffs(-4 * (8 * b * b + a**3), -16 * a * b, -20 * a * a, 80 * b, 20 * a, 0, 4)
    f_cubic = coeffs(b, a, 0, 1)
    f_sq = mul(f_cubic, f_cubic)
    inv2 = pow(2, -1, p)
    for n in range(5, upto + 1):
        m = n // 2
        if n % 2:
            left = mul(w[m + 2], mul(mul(w[m], w[m]), w[m]))
            right = mul(w[m - 1], mul(mul(w[m + 1], w[m + 1]), w[m + 1]))
            if m % 2 == 0:
                w[n] = fp.stack_sub(mul(f_sq, left), right, p)
            else:
                w[n] = fp.stack_sub(left, mul(f_sq, right), p)
        else:
            inner = fp.stack_sub(
                mul(w[m + 2], mul(w[m - 1], w[m - 1])),
                mul(w[m - 2], mul(w[m + 1], w[m + 1])),
                p,
            )
            w[n] = mul(w[m], inner) * inv2 % p
    return w


@dataclass(frozen=True)
class IsogenyEdge:
    """One rational cyclic ell-isogeny, with enough data to push points."""

    p: int
    ell: int
    source_j: int
    target_j: int
    kernel: tuple[int, ...]  # monic, degree (ell-1)/2, lowest degree first
    eigenvalue: int  # Frobenius eigenvalue on the kernel, mod ell
    source_model: tuple[int, int]
    velu_model: tuple[int, int]
    target_model: tuple[int, int]
    scale: int  # u with (x, y) -> (u^2 x, u^3 y) : velu model -> target model


def velu_codomain(c: Curve, kernel: np.ndarray) -> tuple[int, int]:
    """Codomain model of the isogeny with the given odd kernel polynomial."""
    p = c.p
    d = fp.degree(kernel)
    e1 = (-int(kernel[d - 1])) % p if d >= 1 else 0
    e2 = int(kernel[d - 2]) % p if d >= 2 else 0
    e3 = (-int(kernel[d - 3])) % p if d >= 3 else 0
    p1 = e1
    p2 = (e1 * p1 - 2 * e2) % p
    p3 = (e1 * p2 - e2 * p1 + 3 * e3) % p
    t_tot = (6 * p2 + 2 * c.a * d) % p
    w_tot = (10 * p3 + 6 * c.a * p1 + 4 * c.b * d) % p
    return (c.a - 5 * t_tot) % p, (c.b - 7 * w_tot) % p


def _psi_kernel_search(curves, ell: int, eigenvalues) -> list[list[IsogenyEdge]]:
    """Per curve, the rational ell-kernel on which Frobenius acts as lam, per lam.

    ``curves`` is a stack of models of one class (one p, one trace t),
    searched at once: the division polynomials, psi_ell, its reduction
    tables, x^p and the conditions below are stacked arrays with one row
    per curve.  The x-conditions of every lam are built first, and their
    gcds with psi_ell run as one ``fp.stack_gcd``; the y-condition gcds of
    every (lam, curve) pair that needs one run as a second lockstep, and
    Velu runs per curve.

    The kernel is E[ell] meet ker(pi - lam), and pi(P) = (x^p, y^p) with
    y^p = y * f^((p-1)/2) for f = x^3 + ax + b.  For m = min(lam, ell - lam),
    [lam]P = +-[m]P, the sign - when lam = ell - m, and at every P = (x, y)
    of order ell

        [m]P = (x - num/den, y * w_2m / (2 den^2)),

    where num = w_(m-1) w_(m+1) and den = w_m^2, f multiplying num for odd m
    and den for even m; den does not vanish there.  So pi(P) = [lam]P is two
    polynomial conditions on x, and the kernel polynomial is their gcd with
    psi_ell, as in the Elkies step of Schoof's algorithm.  The x-condition
    alone says pi(P) = +-[lam]P, so the y-condition (and f^((p-1)/2)) is
    needed only when -lam is a root of x^2 - t x + p too, which for a root
    lam means t = 0 (mod ell).  No degree law is assumed: a lam that is no
    eigenvalue gives gcd 1.  The Velu codomain is not counted here: the
    caller proves its trace, ``build_isogeny_graph`` by an F_p-isomorphism
    to a counted model and ``rational_l_isogenies`` by a recount.
    ``_isogenies_of`` passes the roots of x^2 - t x + p mod ell.
    """
    p, t = curves[0].p, curves[0].t
    d = (ell - 1) // 2
    w = division_polys(p, [c.a for c in curves], [c.b for c in curves], ell)
    # the leading coefficient of psi_ell is ell, whatever the model
    psi = w[ell] * pow(int(w[ell][0, -1]), -1, p) % p
    rows = fp._reduction_rows(psi, p)

    def mul(u, v):
        return fp.poly_mulmod(u, v, p, rows)

    f = np.array([[c.b, c.a, 0, 1] for c in curves], dtype=np.int64)
    xs = np.tile(fp.X, (len(curves), 1))
    x_shift = fp.stack_sub(xs, fp.poly_powmod(xs, p, psi, p, rows), p)  # x - x^p
    frob_y = None  # y^p / y, built on first need
    x_conds, y_conds = [], {}  # y_conds[k]: the y-condition of eigenvalues[k], if needed
    for k, lam in enumerate(eigenvalues):
        m = min(lam, ell - lam)
        num, den = mul(w[m - 1], w[m + 1]), mul(w[m], w[m])
        if m % 2:
            num = mul(f, num)
        else:
            den = mul(f, den)
        x_cond = fp.stack_sub(mul(x_shift, den), num, p)
        # a residue mod psi_ell, narrower than deg psi_ell when x^p is (p < deg psi_ell)
        x_conds.append(fp._widen(x_cond, psi.shape[1] - 1))
        if (lam * lam + t * lam + p) % ell == 0:  # -lam is an eigenvalue as well
            if frob_y is None:
                frob_y = fp.poly_powmod(f, (p - 1) // 2, psi, p, rows)
            sign = 1 if lam == m else -1
            y_conds[k] = fp.stack_sub(2 * mul(frob_y, mul(den, den)), sign * w[2 * m], p)
    # one lockstep Euclid of psi_ell against the x-condition of every (lam, curve)
    kernels = fp.stack_gcd(np.tile(psi, (len(x_conds), 1)), np.concatenate(x_conds), p)
    # and one more of each x-kernel against its y-condition, where it has one
    cut = [k * len(curves) + i for k in y_conds for i in range(len(curves))]
    if cut:
        x_width = max(len(kernels[j]) for j in cut)
        y_width = max(y.shape[1] for y in y_conds.values())
        x_kernels = np.array([fp._pad(kernels[j], x_width) for j in cut])
        y_stack = np.concatenate([fp._widen(y, y_width) for y in y_conds.values()])
        for j, kernel in zip(cut, fp.stack_gcd(x_kernels, y_stack, p)):
            kernels[j] = kernel
    found = [[] for _ in curves]
    for k, lam in enumerate(eigenvalues):
        for i, c in enumerate(curves):
            kernel = kernels[k * len(curves) + i]
            if fp.degree(kernel) == 0:
                continue  # lam is not an eigenvalue of Frobenius on E[ell]
            if fp.degree(kernel) != d:
                raise InternalConsistencyError(
                    f"eigenvalue {lam} cuts out a degree-{fp.degree(kernel)} factor of "
                    f"psi_{ell}, expected {d}"
                )
            va, vb = velu_codomain(c, kernel)
            found[i].append(
                IsogenyEdge(
                    p=p,
                    ell=ell,
                    source_j=c.j,
                    target_j=_j_invariant(p, va, vb),
                    kernel=tuple(int(x) for x in kernel),
                    eigenvalue=lam,
                    source_model=(c.a, c.b),
                    velu_model=(va, vb),
                    target_model=(va, vb),
                    scale=1,
                )
            )
    return found


def _isogenies_of(curves, ell: int) -> list[list[IsogenyEdge]]:
    """``rational_l_isogenies`` of each curve of one class, searched in stacks.

    A stack holds as many curves as keep its reduction tables, k n^2 int64
    entries for n = deg psi_ell, within ``_STACK_ENTRIES`` (at least one
    curve: at ell = 29 or 31 a stack is one curve).
    """
    c0 = curves[0]
    _check_degree(ell, c0.p)
    if not c0.ordinary:
        raise PreconditionError("supersingular curves are out of scope")
    expected = 1 + kronecker(c0.t * c0.t - 4 * c0.p, ell)
    if expected == 0:
        return [[] for _ in curves]
    roots = [z for z in range(1, ell) if (z * z - c0.t * z + c0.p) % ell == 0]
    n = (ell * ell - 1) // 2
    size = max(1, _STACK_ENTRIES // (n * n))
    found = []
    for s in range(0, len(curves), size):
        found.extend(_psi_kernel_search(curves[s : s + size], ell, roots))
    for edges in found:
        if len(edges) != expected:
            raise InternalConsistencyError(
                f"found {len(edges)} rational {ell}-kernels, splitting predicts {expected}"
            )
        edges.sort(key=lambda e: (e.target_j, e.kernel))
    return found


def rational_l_isogenies(c: Curve, ell: int) -> list[IsogenyEdge]:
    """All F_p-rational cyclic ell-isogenies from c (0, 1, or 2 of them).

    A rational ell-kernel is an eigenspace of Frobenius on E[ell], so when
    x^2 - t x + p has no root mod ell (ell inert in Q(sqrt(t^2 - 4p))) there
    is none, and psi_ell is not built at all.  This is the kernel search of
    ``build_isogeny_graph`` on a stack of one curve.  With no target model
    to check it against, the Velu codomain of each kernel is re-counted.
    """
    edges = _isogenies_of([c], ell)[0]
    for e in edges:
        _, vt = _count(c.p, *e.velu_model)
        if vt != c.t:
            raise InternalConsistencyError(f"Velu codomain recounts to trace {vt}, expected {c.t}")
    return edges


def _model_scale(p: int, src: tuple[int, int], dst: tuple[int, int]) -> int:
    """u with (u^4 src_a, u^6 src_b) = dst, i.e. the twist-free isomorphism."""
    sa, sb = src
    da, db = dst
    if sa and sb and da and db:
        u2 = db * sa % p * pow(sb * da % p, -1, p) % p
        u = sqrt_mod_prime(u2, p)
        if u is not None and (pow(u, 4, p) * sa - da) % p == 0:
            if (pow(u, 6, p) * sb - db) % p == 0:
                return u
    for u in range(1, p):
        if (pow(u, 4, p) * sa - da) % p == 0 and (pow(u, 6, p) * sb - db) % p == 0:
            return u
    raise InternalConsistencyError(
        f"models {src} and {dst} over F_{p} are not isomorphic"
    )


def isogeny_eval(edge: IsogenyEdge, point):
    """Image of a point under the edge's isogeny, landing on target_model.

    Velu's map (Velu 1971) in Kohel's closed form (Kohel, thesis 1996),
    evaluated at the point: for the kernel polynomial h, monic of degree
    (ell - 1)/2 with root sum sigma, f = x^3 + ax + b, and
    S_k = sum over the roots x_Q of h of (x - x_Q)^-k,

        x' = ell x - 2 sigma - 2 f'(x) S_1 + 4 f(x) S_2,
        y' = y (ell - 12 x S_1 + 6 f'(x) S_2 - 8 f(x) S_3).

    With h(x + e) = h_0 + h_1 e + h_2 e^2 + h_3 e^3 + ..., S_1 = h_1/h_0,
    S_2 = S_1^2 - 2 h_2/h_0 and S_3 = S_1^3 - 3 S_1 h_2/h_0 + 3 h_3/h_0, so
    a point needs four Horner sums and no polynomial arithmetic.  A point
    with h_0 = 0 is in the kernel and maps to None.
    """
    if point is None:
        return None
    p = edge.p
    a, b = edge.source_model
    x0, y0 = point[0] % p, point[1] % p
    f = (pow(x0, 3, p) + a * x0 + b) % p
    if (y0 * y0 - f) % p:
        raise InputError(f"({x0}, {y0}) is not on the source curve")
    h0 = h1 = h2 = h3 = 0
    for c in reversed(edge.kernel):
        h3 = (h3 * x0 + h2) % p
        h2 = (h2 * x0 + h1) % p
        h1 = (h1 * x0 + h0) % p
        h0 = (h0 * x0 + c) % p
    if h0 == 0:
        return None
    inv = pow(h0, -1, p)
    s1, r2, r3 = h1 * inv % p, h2 * inv % p, h3 * inv % p
    s2 = (s1 * s1 - 2 * r2) % p
    s3 = (s1 * s1 * s1 - 3 * s1 * r2 + 3 * r3) % p
    sigma = -edge.kernel[-2]
    df = (3 * x0 * x0 + a) % p
    x1 = (edge.ell * x0 - 2 * sigma - 2 * df * s1 + 4 * f * s2) % p
    y1 = y0 * (edge.ell - 12 * x0 * s1 + 6 * df * s2 - 8 * f * s3) % p
    u = edge.scale
    x1, y1 = pow(u, 2, p) * x1 % p, pow(u, 3, p) * y1 % p
    ta, tb = edge.target_model
    if (y1 * y1 - (pow(x1, 3, p) + ta * x1 + tb)) % p:
        raise InternalConsistencyError("isogeny image left the target curve")
    return (x1, y1)


class IsogenyGraph(StepGraph):
    """The ell-isogeny multigraph of one ordinary class, as a StepGraph.

    Vertices are j-invariants, named ``str(j)``.  Slots are (ell, Frobenius
    eigenvalue) pairs, which is exactly the ideal-class action, so stepping
    is globally consistent and a slot's inverse is the conjugate eigenvalue:
    walks, path search and certificates run on it as on the Cayley graph of
    Cl(D) it realizes.
    """

    def __init__(self, p, t, disc, vertices, curves, edges, ells):
        self.p = p
        self.t = t
        self.disc = disc
        self.curves = dict(curves)
        self.edges = list(edges)
        self.ells = tuple(sorted(ells))
        self._edge_by = {}
        for e in self.edges:
            key = (e.source_j, e.ell, e.eigenvalue)
            if key in self._edge_by:
                raise InternalConsistencyError(f"duplicate edge slot {key}")
            self._edge_by[key] = e
        self._index = {j: i for i, j in enumerate(vertices)}
        if len(self._index) != len(vertices):
            raise InternalConsistencyError("a j-invariant is listed twice")
        super().__init__(tuple(vertices), [str(j) for j in vertices], self._make_slots())
        self.step_table = self._make_table()
        self.inverse_slot = self._make_inverses()

    def edge_at(self, j: int, ell: int, eigenvalue: int) -> IsogenyEdge:
        try:
            return self._edge_by[(j, ell, eigenvalue)]
        except KeyError:
            raise InputError(
                f"no ({ell}, {eigenvalue}) edge at vertex j = {j}"
            ) from None

    def _make_slots(self):
        slots = []
        for ell in self.ells:
            lams = sorted({e.eigenvalue for e in self.edges if e.ell == ell})
            if not lams:
                continue  # inert prime: contributes nothing
            if len(lams) == 1:
                slots.append((str(ell), (ell, lams[0])))
            else:
                for lam in lams:
                    slots.append((f"{ell}:{lam}", (ell, lam)))
        return tuple(slots)

    def _make_table(self):
        table = np.zeros((len(self.generators), self.order), dtype=np.int64)
        for s, (_, (ell, lam)) in enumerate(self.generators):
            for i, j in enumerate(self.vertices):
                table[s, i] = self._index[self.edge_at(j, ell, lam).target_j]
        return table

    def _make_inverses(self):
        inv = np.zeros(len(self.generators), dtype=np.int64)
        slot_of = {key: s for s, (_, key) in enumerate(self.generators)}
        for s, (_, (ell, lam)) in enumerate(self.generators):
            partner = (ell, (self.t - lam) % ell)
            if partner not in slot_of:
                partner = (ell, lam)  # ramified: self-paired
            inv[s] = slot_of[partner]
        for s in range(len(self.generators)):
            if inv[inv[s]] != s:
                raise InternalConsistencyError("eigenvalue slots do not pair up")
        # stepping by a slot and then its partner must return home
        for s in range(len(self.generators)):
            back = self.step_table[inv[s], self.step_table[s]]
            if not np.array_equal(back, np.arange(self.order)):
                raise InternalConsistencyError("dual edges do not invert each step")
        return inv


def build_isogeny_graph(p: int, t: int, ells) -> IsogenyGraph:
    """The ell-isogeny graph of the trace-t class over F_p, for ell in ells.

    The class is grown by breadth-first search over the computed horizontal
    isogenies, seeded by the j-order class scan: each j the scan finds that
    no search has reached seeds a new component, and the scan stops once
    all h(D) vertices are known.  When the ells generate Cl(D) one seed
    suffices; an edgeless or non-generating L costs at most the full scan.
    The search runs one BFS level at a time, with one kernel search per
    (level, ell) on the level's curves stacked; new vertices are taken in
    FIFO order (curve, then ell, then edge), as a queue would take them.
    """
    ells = tuple(sorted(set(int(x) for x in ells)))
    for ell in ells:
        _check_degree(ell, p)
    disc, h = _checked_class(p, t)
    curves: dict[int, Curve] = {}
    edges = []
    for seed in _class_scan(p, t, disc, curves):
        curves[seed.j] = seed
        level = [seed]
        while level:
            found = [_isogenies_of(level, ell) for ell in ells]
            following = []
            for i, c in enumerate(level):
                for per_curve in found:
                    for e in per_curve[i]:
                        target = curves.get(e.target_j)
                        if target is None:
                            target = _twist_with_trace(p, e.target_j, t)
                            if target is None or target.j != e.target_j:
                                raise InternalConsistencyError(
                                    f"edge from j = {c.j} leaves the class "
                                    f"(target {e.target_j})"
                                )
                            curves[e.target_j] = target
                            following.append(target)
                        u = _model_scale(p, e.velu_model, (target.a, target.b))
                        edges.append(
                            replace(e, target_model=(target.a, target.b), scale=u)
                        )
            level = following
        if len(curves) >= h:
            break
    if not curves:
        raise InternalConsistencyError(f"empty isogeny class for p = {p}, t = {t}")
    directed = {}
    for e in edges:
        key = (e.source_j, e.target_j, e.ell)
        directed[key] = directed.get(key, 0) + 1
    for (src, tgt, ell), count in directed.items():
        if directed.get((tgt, src, ell), 0) != count:
            raise InternalConsistencyError(
                f"missing dual of the {ell}-isogeny {src} -> {tgt}"
            )
    edges.sort(key=lambda e: (e.source_j, e.ell, e.target_j, e.kernel))
    return IsogenyGraph(p, t, disc, sorted(curves), curves, edges, ells)


@dataclass(frozen=True)
class ComparisonReport:
    vertices_ok: bool
    spectrum_ok: bool
    degrees_ok: bool
    verdict: str
    failed: tuple[str, ...]
    isogeny_order: int
    cayley_order: int
    spectrum_gap: float


def compare_to_cayley(graph: IsogenyGraph) -> ComparisonReport:
    """Check the isogeny graph against Cay(Cl(D), prime forms above L).

    Three checks: equal vertex counts, equal sorted adjacency spectra
    (within SPECTRUM_TOL), and the per-ell local degree law
    1 + Kronecker(D, ell) together with dual-edge symmetry.
    """
    from .quadform import class_group, generating_multiset

    cl = class_group(graph.disc)
    gens = [(g.label, g.element)
            for g in generating_multiset(cl, max(graph.ells, default=1) + 1, cl.whole)
            if g.ell in graph.ells]
    cayley_order = cl.order
    if gens:
        cg = build_cayley(cl.whole, gens)
        cayley_spec = np.sort(np.linalg.eigvalsh(cg.adjacency().astype(float)))
    else:
        cayley_spec = np.zeros(cayley_order)

    failed = []
    vertices_ok = graph.order == cayley_order
    if not vertices_ok:
        failed.append("vertices")

    mat = graph.adjacency()
    symmetric = bool((mat == mat.T).all())
    iso_spec = np.sort(np.linalg.eigvalsh(((mat + mat.T) / 2).astype(float)))
    if vertices_ok:
        gap = float(np.max(np.abs(iso_spec - cayley_spec))) if graph.order else 0.0
    else:
        gap = float("inf")
    spectrum_ok = gap <= SPECTRUM_TOL
    if not spectrum_ok:
        failed.append("spectrum")

    out_degree = Counter((e.source_j, e.ell) for e in graph.edges)
    want = {ell: 1 + kronecker(graph.disc, ell) for ell in graph.ells}
    degrees_ok = symmetric and all(
        out_degree[(j, ell)] == want[ell] for j in graph.vertices for ell in graph.ells
    )
    if not degrees_ok:
        failed.append("degrees")

    verdict = "PASS" if not failed else "FAIL"
    return ComparisonReport(
        vertices_ok=vertices_ok,
        spectrum_ok=spectrum_ok,
        degrees_ok=degrees_ok,
        verdict=verdict,
        failed=tuple(failed),
        isogeny_order=graph.order,
        cayley_order=cayley_order,
        spectrum_gap=gap,
    )


def comparison_to_json(report: ComparisonReport) -> dict:
    return {
        "verdict": report.verdict,
        "failed_checks": list(report.failed),
        "vertices": {
            "ok": report.vertices_ok,
            "isogeny": report.isogeny_order,
            "cayley": report.cayley_order,
        },
        "spectrum": {"ok": report.spectrum_ok, "max_gap": report.spectrum_gap},
        "degrees": {"ok": report.degrees_ok},
    }


# ---------------------------------------------------------------------------
# affine point arithmetic and the DLP transfer


def is_on_curve(point, a: int, b: int, p: int) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - (pow(x, 3, p) + a * x + b)) % p == 0


def ec_neg(point, p: int):
    if point is None:
        return None
    return (point[0], (-point[1]) % p)


def ec_add(q1, q2, a: int, p: int):
    if q1 is None:
        return q2
    if q2 is None:
        return q1
    x1, y1 = q1
    x2, y2 = q2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if q1 == q2:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def ec_mul(k: int, point, a: int, p: int):
    if k < 0:
        return ec_mul(-k, ec_neg(point, p), a, p)
    acc = None
    addend = point
    while k:
        if k & 1:
            acc = ec_add(acc, addend, a, p)
        addend = ec_add(addend, addend, a, p)
        k >>= 1
    return acc


def _bsgs(point_p, point_q, n: int, a: int, p: int):
    """r in [0, n) with Q = rP in the cyclic group generated by P, or None."""
    m = isqrt(n - 1) + 1
    baby = {}
    step = None
    for jj in range(m):
        baby.setdefault(step, jj)
        step = ec_add(step, point_p, a, p)
    giant = ec_neg(ec_mul(m, point_p, a, p), p)
    cur = point_q
    for i in range(m + 1):
        if cur in baby:
            r = (i * m + baby[cur]) % n
            if ec_mul(r, point_p, a, p) == point_q:
                return r
        cur = ec_add(cur, giant, a, p)
    return None


def transfer_dlp(path, point_p, point_q, n: int, source: Curve | None = None) -> int:
    """Push (P, Q = rP) through a chain of isogenies and read off r there.

    The degree of every edge must be coprime to n = ord(P); the recovered
    exponent is verified back on the source curve before being returned.
    """
    return _transfer(path, point_p, point_q, n, source)[0]


def _transfer(path, point_p, point_q, n: int, source: Curve | None):
    """:func:`transfer_dlp`'s exponent, and the images of (P, Q) on each
    curve of the path, the source curve's first."""
    if n < 1:
        raise InputError(f"order n = {n} must be positive")
    if path:
        p = path[0].p
        a, b = path[0].source_model
    elif source is not None:
        p, a, b = source.p, source.a, source.b
    else:
        raise InputError("an empty path needs an explicit source curve")
    for e in path:
        if gcd(e.ell, n) != 1:
            raise PreconditionError(
                f"isogeny degree {e.ell} divides the point order {n}"
            )
    if not is_on_curve(point_p, a, b, p) or not is_on_curve(point_q, a, b, p):
        raise InputError("P and Q must lie on the source curve")
    images = [(point_p, point_q)]
    for e in path:
        cur_p, cur_q = images[-1]
        images.append((isogeny_eval(e, cur_p), isogeny_eval(e, cur_q)))
    cur_p, cur_q = images[-1]
    if path:
        ta, _ = path[-1].target_model
    else:
        ta = a
    if cur_p is None:
        raise InputError("P died along the path; its order was not coprime after all")
    r = _bsgs(cur_p, cur_q, n, ta, p)
    if r is None:
        raise InputError("no discrete log found at the far end: inconsistent inputs")
    if ec_mul(r, point_p, a, p) != point_q:
        raise InternalConsistencyError("recovered exponent fails on the source curve")
    return r, images


def edges_along(graph: IsogenyGraph, cert) -> list[IsogenyEdge]:
    """Resolve a path certificate into the actual isogeny edges it crossed."""
    idx = graph.vertex_index(cert.start)
    out = []
    for step in cert.steps:
        s = graph.slot_of(step.label)
        if step.inverted:
            s = int(graph.inverse_slot[s])
        ell, lam = graph.generators[s][1]
        edge = graph.edge_at(graph.vertices[idx], ell, lam)
        out.append(edge)
        idx = graph.vertex_index(edge.target_j)
    if graph.vertices[idx] != cert.end:
        raise InternalConsistencyError("certificate does not replay to its endpoint")
    return out


def _random_point(c: Curve, rng) -> tuple[int, int]:
    p = c.p
    while True:
        x = int(rng.integers(0, p))
        rhs = (pow(x, 3, p) + c.a * x + c.b) % p
        y = sqrt_mod_prime(rhs, p)
        if y is None:
            continue
        if y and rng.integers(0, 2):
            y = p - y
        return (x, y)


def _point_of_prime_order(c: Curve, n: int, rng):
    cof = c.order // n
    for _ in range(256):
        pt = ec_mul(cof, _random_point(c, rng), c.a, c.p)
        if pt is not None:
            return pt
    raise InternalConsistencyError(f"no point of order {n} found on {c}")


def run_dlp_demo(
    p: int,
    t: int,
    ells,
    seed: int,
    planted: int | None = None,
    graph: IsogenyGraph | None = None,
) -> dict:
    """Plant Q = rP on one curve, walk to another, and recover r there."""
    from .pathfind import exhaustive_path, find_path

    if graph is None:
        graph = build_isogeny_graph(p, t, ells)
    elif (graph.p, graph.t) != (p, t):
        raise InputError("prebuilt graph does not match the requested (p, t)")
    rng = PhiloxGenerator(*_seed_key(seed))  # the draws of numpy's Generator(Philox(seed))
    if graph.degree == 0:
        raise PreconditionError(
            "the chosen primes give an edgeless graph; pick split primes"
        )
    if graph.order >= 2:
        pick = rng.choice(graph.order, size=2, replace=False)
        start, end = graph.vertices[int(pick[0])], graph.vertices[int(pick[1])]
    else:
        start = end = graph.vertices[0]
    if graph.order >= 9:
        cert, _stats = find_path(graph, start, end, seed)
        method = "random-walk"
    else:
        cert = exhaustive_path(graph, start, end)
        method = "exhaustive"
    path = edges_along(graph, cert)

    source = graph.curves[start]
    group_order = source.order
    choices = [q for q in sorted(factorize(group_order), reverse=True)
               if all(q != e for e in graph.ells)]
    if not choices:
        raise PreconditionError(
            f"every prime factor of |E(F_p)| = {group_order} occurs among the degrees"
        )
    n = choices[0]
    point_p = _point_of_prime_order(source, n, rng)
    r = int(rng.integers(0, n)) if planted is None else planted % n
    point_q = ec_mul(r, point_p, source.a, source.p)

    recovered, images = _transfer(path, point_p, point_q, n, source)
    stages = [
        {"j": j, "P": list(cur_p) if cur_p else None, "Q": list(cur_q) if cur_q else None}
        for j, (cur_p, cur_q) in zip([start] + [e.target_j for e in path], images)
    ]
    return {
        "p": p,
        "t": t,
        "L": list(graph.ells),
        "seed": seed,
        "discriminant": graph.disc,
        "class_number": graph.order,
        "start_j": start,
        "end_j": end,
        "method": method,
        "path": [[s.label, s.inverted] for s in cert.steps],
        "order": n,
        "planted_r": r,
        "stages": stages,
        "recovered_r": recovered,
        "verified": recovered == r,
    }
