"""Dense univariate polynomial arithmetic over a prime field F_p.

Coefficients are numpy int64 vectors, lowest degree first, reduced into
[0, p).  The zero polynomial is the empty vector.  Arithmetic modulo a
fixed polynomial works on stacks: k residues modulo k moduli of one degree
n are one (k, n) array, and ``_reduction_rows`` builds the moduli's
reduction tables at once, which ``poly_mulmod`` and ``poly_powmod`` share.
Products are row-wise convolutions (``stack_mul``); each reduction is one
stacked product against the tables.  A single polynomial is a stack of
one.  The isogeny-kernel search needs no factoring; the partial factoring
routines below (distinct-degree, seeded equal-degree, and their
combination) are kept only while ``bench/tracer.py`` names them.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, InternalConsistencyError

__all__ = [
    "X",
    "ONE",
    "poly",
    "trim",
    "degree",
    "poly_add",
    "poly_sub",
    "poly_scale",
    "poly_mul",
    "stack_mul",
    "stack_sub",
    "make_monic",
    "poly_divmod",
    "poly_mod",
    "poly_gcd",
    "poly_mulmod",
    "poly_powmod",
    "poly_deriv",
    "poly_eval",
    "distinct_degree_split",
    "equal_degree_factors",
    "low_degree_factors",
]

X = np.array([0, 1], dtype=np.int64)
ONE = np.array([1], dtype=np.int64)
_ZERO = np.array([], dtype=np.int64)


def trim(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.int64)
    n = len(u)
    while n > 0 and u[n - 1] == 0:
        n -= 1
    return u[:n]


def poly(coeffs, p: int) -> np.ndarray:
    return trim(np.asarray(list(coeffs), dtype=np.int64) % p)


def degree(u) -> int:
    return len(u) - 1


def _pad(u, n):
    if len(u) >= n:
        return u
    return np.concatenate([u, np.zeros(n - len(u), dtype=np.int64)])


def poly_add(u, v, p):
    n = max(len(u), len(v))
    return trim((_pad(u, n) + _pad(v, n)) % p)


def poly_sub(u, v, p):
    n = max(len(u), len(v))
    return trim((_pad(u, n) - _pad(v, n)) % p)


def poly_scale(u, k, p):
    return trim(u * (k % p) % p)


def poly_mul(u, v, p):
    if len(u) == 0 or len(v) == 0:
        return _ZERO
    # max summand count times (p-1)^2 stays well inside int64 for p <= 10^4
    return np.convolve(u, v) % p


def make_monic(u, p):
    u = trim(u)
    if len(u) == 0:
        return u
    lead = int(u[-1])
    if lead == 1:
        return u
    return u * pow(lead, -1, p) % p


def poly_divmod(u, g, p):
    g = trim(g)
    if len(g) == 0:
        raise InputError("polynomial division by zero")
    u = trim(u).copy()
    dg = len(g) - 1
    if len(u) - 1 < dg:
        return _ZERO, u
    inv_lead = pow(int(g[-1]), -1, p)
    q = np.zeros(len(u) - dg, dtype=np.int64)
    for i in range(len(u) - len(g), -1, -1):
        c = int(u[i + dg]) * inv_lead % p
        if c:
            q[i] = c
            u[i : i + len(g)] = (u[i : i + len(g)] - c * g) % p
    return trim(q), trim(u)


def poly_mod(u, g, p):
    return poly_divmod(u, g, p)[1]


def _int_coeffs(u, p) -> list[int]:
    out = [int(c) % p for c in u]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_gcd(u, v, p):
    """Monic gcd by one Euclid loop over Python-int coefficient lists.

    Most remainder steps of the kernel search have a quotient of one or two
    terms, so per-step numpy overhead would dominate; here a step costs
    one pass over the divisor's coefficients per quotient term.
    """
    a, b = _int_coeffs(u, p), _int_coeffs(v, p)
    while b:
        inv_lead = pow(b[-1], -1, p)
        db = len(b) - 1
        low = b[:db]
        while len(a) > db:
            c = a.pop() * inv_lead % p
            shift = len(a) - db
            a[shift:] = [(x - c * y) % p for x, y in zip(a[shift:], low)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if not a:
        return _ZERO
    inv_lead = pow(a[-1], -1, p)
    return np.array([c * inv_lead % p for c in a], dtype=np.int64)


def stack_mul(u, v, p):
    """Row-wise products of two stacks of polynomials, (k, a) by (k, b).

    Each row is one ``np.convolve``; the product has the formal width
    a + b - 1 and is not trimmed, so one row's leading zeros stay.
    """
    k = len(u)
    if u.shape[1] == 0 or v.shape[1] == 0:
        return np.zeros((k, 0), dtype=np.int64)
    out = np.empty((k, u.shape[1] + v.shape[1] - 1), dtype=np.int64)
    for i in range(k):
        out[i] = np.convolve(u[i], v[i])
    out %= p
    return out


def stack_sub(u, v, p):
    """Row-wise u - v of two stacks of polynomials, padded to one width."""
    out = np.zeros((len(u), max(u.shape[1], v.shape[1])), dtype=np.int64)
    out[:, : u.shape[1]] = u
    out[:, : v.shape[1]] -= v
    out %= p
    return out


def _reduction_rows(g, p):
    """Reduction tables for a stack g of k polynomials of one degree n.

    g has shape (k, n + 1) with nonzero last column.  The result has shape
    (k, n, n - 1), and its column j in table i is x^(n+j) mod g[i], the
    layout in which ``poly_mulmod`` folds with one stacked product.  The
    columns are built by shift-and-subtract on every polynomial at once:
    x^n = -(g[:n] / lead) mod g, and each next power is x times the
    previous one with its x^n term folded back in.
    """
    k, n = g.shape[0], g.shape[1] - 1
    rows = np.zeros((k, max(n - 1, 0), n), dtype=np.int64)
    if n >= 2:
        inv_lead = np.array([pow(int(c), -1, p) for c in g[:, -1]], dtype=np.int64)
        top = (-g[:, :n]) % p * inv_lead[:, None] % p
        rows[:, 0] = top
        for j in range(1, n - 1):
            prev = rows[:, j - 1]
            rows[:, j, 1:] = prev[:, :-1]
            rows[:, j] = (rows[:, j] + prev[:, -1:] * top) % p
    return np.ascontiguousarray(rows.transpose(0, 2, 1))


def poly_mulmod(u, v, p, rows):
    """Row-wise u * v mod g for stacks of residues, given rows = _reduction_rows(g, p).

    u and v have k rows of width at most n = deg g, and so has the result.
    Each product is one ``np.convolve`` per row; its coefficients from x^n
    up are folded back with one stacked product against the tables.  Every
    entry of the convolution and of the fold is a sum of at most n terms
    below p^2, so n * p^2 < 2^63 keeps the int64 arithmetic exact (n = 480,
    p = 10^4 at the caps of ``ecgraph``).
    """
    n = rows.shape[1]
    prod = stack_mul(u, v, p)
    high = prod.shape[1] - n
    if high <= 0:
        return prod
    fold = np.einsum("kji,ki->kj", rows[:, :, :high], prod[:, n:])
    return (prod[:, :n] + fold) % p


def poly_powmod(u, e: int, g, p, rows=None):
    """Row-wise u^e mod g by square-and-multiply with ``poly_mulmod``.

    u is a (k, *) stack and g a (k, n + 1) stack of moduli of degree n, one
    per row (a single polynomial is a stack of one).  The result has width
    at most n, except that e = 0 gives ONE in every row whatever g is, as
    repeated multiplication from ONE would.  A caller that works modulo one
    stack many times passes ``rows = _reduction_rows(g, p)`` so the tables
    are built once.
    """
    if e < 0:
        raise InputError("negative polynomial exponent")
    k, n = g.shape[0], g.shape[1] - 1
    if u.shape[1] <= n:
        base = u % p
    else:
        base = np.stack([_pad(poly_mod(ui, gi, p), n) for ui, gi in zip(u, g)])
    if e == 0:
        return np.ones((k, 1), dtype=np.int64)
    if rows is None:
        rows = _reduction_rows(g, p)
    result = None
    while True:
        if e & 1:
            result = base if result is None else poly_mulmod(result, base, p, rows)
        e >>= 1
        if not e:
            return result
        base = poly_mulmod(base, base, p, rows)


def poly_deriv(u, p):
    if len(u) <= 1:
        return _ZERO
    return trim(u[1:] * np.arange(1, len(u), dtype=np.int64) % p)


def poly_eval(u, x: int, p: int) -> int:
    acc = 0
    for c in reversed(u):
        acc = (acc * x + int(c)) % p
    return acc


def distinct_degree_split(f, p, max_degree):
    """Split monic squarefree f into (d, product of its degree-d factors).

    Stops after max_degree; whatever is left over (all factors strictly
    larger) is returned as the second element.
    """
    f = make_monic(f, p)[None]
    rows = _reduction_rows(f, p)
    blocks = []
    r = X
    remaining = f[0]
    for d in range(1, max_degree + 1):
        if degree(remaining) <= 0:
            break
        r = trim(poly_powmod(r[None], p, f, p, rows)[0])
        block = poly_gcd(poly_sub(r, X, p), remaining, p)
        if degree(block) > 0:
            blocks.append((d, block))
            remaining = poly_divmod(remaining, block, p)[0]
    return blocks, remaining


def equal_degree_factors(f, p, d, rng):
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    f = make_monic(f, p)
    n = degree(f)
    if n == d:
        return [f]
    if n % d:
        raise InputError(f"degree {n} is not a multiple of the block degree {d}")
    exp = (p**d - 1) // 2
    rows = _reduction_rows(f[None], p)
    for _ in range(128):
        r = trim(rng.integers(0, p, size=n, dtype=np.int64))
        if degree(r) < 1:
            continue
        s = poly_sub(poly_powmod(r[None], exp, f[None], p, rows)[0], ONE, p)
        g = poly_gcd(s, f, p)
        if 0 < degree(g) < n:
            left = equal_degree_factors(g, p, d, rng)
            right = equal_degree_factors(poly_divmod(f, g, p)[0], p, d, rng)
            return left + right
    raise InternalConsistencyError(
        f"equal-degree splitting stalled on a degree-{n} block (p = {p}, d = {d})"
    )


def low_degree_factors(f, p, max_degree, seed):
    """Monic irreducible factors of degree <= max_degree of squarefree f."""
    rng = np.random.Generator(np.random.Philox(seed))
    blocks, _rest = distinct_degree_split(f, p, max_degree)
    out = []
    for d, block in blocks:
        out.extend(equal_degree_factors(block, p, d, rng))
    out.sort(key=lambda g: (degree(g), tuple(int(c) for c in g)))
    return out
