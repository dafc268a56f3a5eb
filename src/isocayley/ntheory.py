"""Small exact number-theory helpers shared by the form and curve modules.

Everything here works on plain Python integers at desk scale (arguments up to
a few times 10^7); no probabilistic primality, no clever factoring.
"""
from __future__ import annotations

from math import isqrt

from .errors import InputError


def primes_below(n: int) -> list[int]:
    """All primes p < n, by sieve of Eratosthenes."""
    if n <= 2:
        return []
    mark = bytearray([1]) * n
    mark[0] = mark[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(2, n) if mark[p]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, as {prime: exponent}."""
    if n < 1:
        raise InputError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # strip factors of 2 from n; (a|2) = 0, 1, -1 for a even, ±1 mod 8, ±3 mod 8
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol loop for odd n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None if a is a non-residue.

    Tonelli--Shanks; returns the root in [0, p).
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s * m^2 with s squarefree; returns (s, m). Sign stays on s."""
    if n == 0:
        raise InputError("0 has no squarefree decomposition")
    sign = -1 if n < 0 else 1
    s, m = 1, 1
    for p, e in factorize(abs(n)).items():
        if e % 2:
            s *= p
        m *= p ** (e // 2)
    return sign * s, m


def check_discriminant_shape(disc: int) -> None:
    """Raise unless disc is nonzero, a non-square, and 0 or 1 mod 4."""
    if disc == 0 or disc % 4 not in (0, 1):
        raise InputError(f"{disc} is not a discriminant")
    if disc > 0 and isqrt(disc) ** 2 == disc:
        raise InputError(f"{disc} is a perfect square")


def fundamental_discriminant(disc: int) -> tuple[int, int]:
    """Split a discriminant as disc = f^2 * d_K with d_K fundamental.

    Returns (d_K, f). Raises on values that are not discriminants
    (disc must be nonzero, a non-square, and 0 or 1 mod 4).
    """
    check_discriminant_shape(disc)
    s, m = squarefree_part(disc)
    if s % 4 == 1:
        return s, m
    # s = 2,3 mod 4: the fundamental part is 4s, which forces m even
    return 4 * s, m // 2
