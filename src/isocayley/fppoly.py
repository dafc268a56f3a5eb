"""Dense univariate polynomial arithmetic over a prime field F_p.

Coefficients are numpy int64 vectors, lowest degree first, reduced into
[0, p).  The zero polynomial is the empty vector.  Factorisation here is
deliberately partial: it only splits off irreducible factors up to a
caller-chosen degree, which is all the isogeny-kernel search needs, and
the probabilistic splitter takes an explicit seed so runs are repeatable.
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
    "make_monic",
    "poly_divmod",
    "poly_mod",
    "poly_gcd",
    "poly_xgcd",
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


def poly_xgcd(u, v, p):
    """Monic g = gcd(u, v) together with s, t satisfying s*u + t*v = g."""
    r0, r1 = trim(u), trim(v)
    s0, s1 = ONE.copy(), _ZERO
    t0, t1 = _ZERO, ONE.copy()
    while len(r1):
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if len(r0) == 0:
        return r0, s0, t0
    scale = pow(int(r0[-1]), -1, p)
    return (
        poly_scale(r0, scale, p),
        poly_scale(s0, scale, p),
        poly_scale(t0, scale, p),
    )


def _reduction_rows(g, p):
    """(n-1) x n table whose row k is x^(n+k) mod g, for n = deg g >= 1.

    Built by shift-and-subtract: x^n = -(g[:n] / lead) mod g, and each next
    row is x times the previous one with its x^n term folded back in.
    """
    n = len(g) - 1
    rows = np.zeros((max(n - 1, 0), n), dtype=np.int64)
    if n < 2:
        return rows
    top = (-g[:n]) * pow(int(g[-1]), -1, p) % p
    rows[0] = top
    for k in range(1, n - 1):
        prev = rows[k - 1]
        rows[k, 1:] = prev[:-1]
        rows[k] = (rows[k] + int(prev[-1]) * top) % p
    return rows


def poly_powmod(u, e: int, g, p, rows=None):
    """u^e mod g by square-and-multiply, reducing by a fixed table.

    Each product of two residues (degree < n = deg g) has degree <= 2n - 2;
    its high coefficients are folded back with one matrix product against
    the rows x^(n..2n-2) mod g.  Every entry of the convolution and of the
    matrix product is a sum of at most n terms below p^2, so n * p^2 < 2^63
    keeps the int64 arithmetic exact (n = 480, p = 10^4 at the caps of
    ``ecgraph``).  e = 0 gives ONE whatever g is, as repeated multiplication
    from ONE would.  A caller that powers many residues mod one g passes
    ``rows = _reduction_rows(g, p)`` so the table is built once.
    """
    if e < 0:
        raise InputError("negative polynomial exponent")
    result = ONE
    base = poly_mod(u, g, p)
    if e == 0:
        return result
    g = trim(g)
    n = len(g) - 1
    if rows is None:
        rows = _reduction_rows(g, p)

    def mulmod(v, w):
        if len(v) == 0 or len(w) == 0:
            return _ZERO
        prod = np.convolve(v, w) % p
        if len(prod) <= n:
            return trim(prod)
        return trim((prod[:n] + prod[n:] @ rows[: len(prod) - n]) % p)

    while True:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if not e:
            return result
        base = mulmod(base, base)


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
    f = make_monic(f, p)
    rows = _reduction_rows(f, p)
    blocks = []
    r = X
    remaining = f
    for d in range(1, max_degree + 1):
        if degree(remaining) <= 0:
            break
        r = poly_powmod(r, p, f, p, rows)
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
    rows = _reduction_rows(f, p)
    for _ in range(128):
        r = trim(rng.integers(0, p, size=n, dtype=np.int64))
        if degree(r) < 1:
            continue
        s = poly_sub(poly_powmod(r, exp, f, p, rows), ONE, p)
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
