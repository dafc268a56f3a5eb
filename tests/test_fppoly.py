import numpy as np
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocayley import fppoly as fp
from isocayley.errors import InputError

PRIMES = [3, 5, 7, 11, 13, 101]

x = sympy.symbols("x")


def to_sympy(u, p):
    return sympy.Poly(list(reversed([int(c) for c in u])) or [0], x, modulus=p)


coeff_lists = st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=9)


@given(coeff_lists, coeff_lists, st.sampled_from(PRIMES))
@settings(max_examples=150, deadline=None)
def test_divmod_round_trip(u_c, v_c, p):
    u, v = fp.poly(u_c, p), fp.poly(v_c, p)
    if len(v) == 0:
        with pytest.raises(InputError):
            fp.poly_divmod(u, v, p)
        return
    q, r = fp.poly_divmod(u, v, p)
    assert fp.degree(r) < fp.degree(v)
    back = fp.poly_add(fp.poly_mul(q, v, p), r, p)
    assert np.array_equal(back, u)


@given(coeff_lists, coeff_lists, st.sampled_from(PRIMES))
@settings(max_examples=100, deadline=None)
def test_gcd_matches_sympy(u_c, v_c, p):
    u, v = fp.poly(u_c, p), fp.poly(v_c, p)
    ours = fp.poly_gcd(u, v, p)
    theirs = sympy.gcd(to_sympy(u, p), to_sympy(v, p))
    if theirs.is_zero:
        assert len(ours) == 0
    else:
        want = [c % p for c in reversed(theirs.monic().all_coeffs())]
        assert [int(c) for c in ours] == want


@pytest.mark.parametrize(
    "u_c, v_c, p",
    [
        ([], [], 5),  # both zero: the gcd is zero
        ([], [2, 4], 7),  # u = 0: the gcd is v made monic
        ([3, 0, 6], [], 11),  # v = 0
        ([3], [5], 7),  # two constants
        ([4], [2, 3, 5], 13),  # a constant against a quadratic
        ([3, 3], [1, 1, 5, 5], 7),  # deg u < deg v; 3(x + 1) and 5(x + 1)(x^2 + 3)
        ([0, 4, 6, 2], [0, 4, 5, 7], 11),  # non-monic, common factor x(x + 2)
        ([2, 2, 2, 2], [0, 2, 0, 2], 3),  # p = 3; 2(x^2 + 1)(x + 1) and 2x(x^2 + 1)
    ],
)
def test_gcd_pinned_cases_match_sympy(u_c, v_c, p):
    u, v = fp.poly(u_c, p), fp.poly(v_c, p)
    theirs = sympy.gcd(to_sympy(u, p), to_sympy(v, p))
    want = [] if theirs.is_zero else [c % p for c in reversed(theirs.monic().all_coeffs())]
    got = fp.poly_gcd(u, v, p)
    assert got.dtype == np.int64
    assert [int(c) for c in got] == want


def powmod(u, e, g, p):
    """poly_powmod of one polynomial, as a stack of one, trimmed."""
    return fp.trim(fp.poly_powmod(u[None], e, g[None], p)[0])


def test_powmod_matches_repeated_multiplication():
    p = 101
    g = fp.poly([2, 0, 1], p)
    u = fp.poly([3, 5], p)
    acc = fp.ONE
    for e in range(40):
        assert np.array_equal(acc, powmod(u, e, g, p))
        acc = fp.poly_mod(fp.poly_mul(acc, u, p), g, p)


@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=12),
    st.integers(min_value=0, max_value=24),
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=8),
    st.sampled_from(PRIMES),
)
@example([], 0, [5], 13)  # zero base, e = 0, constant modulus
@example([], 5, [3, 7], 13)  # zero base, linear modulus
@example([4, 1], 9, [2, 0, 0, 7], 13)  # non-monic modulus
@settings(max_examples=300, deadline=None)
def test_powmod_matches_repeated_mulmod(u_c, e, g_c, p):
    """Zero bases, e = 0, constant and linear moduli, and non-monic moduli
    all agree with multiplying e times from ONE."""
    u, g = fp.poly(u_c, p), fp.poly(g_c, p)
    if len(g) == 0:
        with pytest.raises(InputError):
            powmod(u, e, g, p)
        return
    acc = fp.ONE
    for _ in range(e):
        acc = fp.poly_mod(fp.poly_mul(acc, u, p), g, p)
    got = powmod(u, e, g, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, acc)


@given(st.data(), st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=7),
       st.integers(min_value=0, max_value=30), st.sampled_from(PRIMES))
@settings(max_examples=100, deadline=None)
def test_stacked_powmod_matches_each_row(data, k, n, e, p):
    """k bases modulo k different moduli of one degree n, as one stack,
    agree row by row with repeated multiplication."""
    coeffs = st.integers(min_value=0, max_value=p - 1)
    width = data.draw(st.integers(min_value=0, max_value=n + 3))
    us = [data.draw(st.lists(coeffs, min_size=width, max_size=width)) for _ in range(k)]
    gs = [data.draw(st.lists(coeffs, min_size=n, max_size=n))
          + [data.draw(st.integers(min_value=1, max_value=p - 1))] for _ in range(k)]
    got = fp.poly_powmod(np.array(us, dtype=np.int64).reshape(k, width), e,
                         np.array(gs, dtype=np.int64), p)
    assert len(got) == k
    for u_c, g_c, row in zip(us, gs, got):
        u, g = fp.poly(u_c, p), fp.poly(g_c, p)
        acc = fp.ONE
        for _ in range(e):
            acc = fp.poly_mod(fp.poly_mul(acc, u, p), g, p)
        assert np.array_equal(fp.trim(row), acc)


@given(
    st.lists(st.integers(min_value=0, max_value=10**4), min_size=0, max_size=40),
    st.lists(st.integers(min_value=0, max_value=10**4), min_size=2, max_size=40),
    st.integers(min_value=0, max_value=10**12),
)
@settings(max_examples=60, deadline=None)
def test_powmod_large_exponent_matches_sympy(u_c, g_c, e):
    p = 9973
    u, g = fp.poly(u_c, p), fp.poly(g_c, p)
    if len(g) == 0:
        return
    want = gf_pow_mod(
        [int(c) for c in reversed(u)], e, [int(c) for c in reversed(g)], p, ZZ
    )
    assert [int(c) for c in reversed(powmod(u, e, g, p))] == want


def test_eval_and_derivative():
    p = 13
    u = fp.poly([1, 2, 3], p)  # 3x^2 + 2x + 1
    assert fp.poly_eval(u, 2, p) == (3 * 4 + 4 + 1) % p
    d = fp.poly_deriv(u, p)
    assert [int(c) for c in d] == [2, 6]
    assert len(fp.poly_deriv(fp.ONE, p)) == 0


def test_factor_known_product():
    p = 7
    f = fp.poly_mul(fp.poly([6, 1], p), fp.poly([5, 1], p), p)
    f = fp.poly_mul(f, fp.poly([1, 0, 1], p), p)  # x^2 + 1 is irreducible mod 7
    fac = fp.low_degree_factors(f, p, 2, seed=9)
    assert [[int(c) for c in g] for g in fac] == [[5, 1], [6, 1], [1, 0, 1]]


def test_factorization_deterministic_and_complete():
    rng = np.random.default_rng(3)
    done = 0
    while done < 15:
        p = int(rng.choice([5, 7, 11, 31]))
        coeffs = [int(c) for c in rng.integers(0, p, size=6)] + [1]
        f = fp.poly(coeffs, p)
        if fp.degree(fp.poly_gcd(f, fp.poly_deriv(f, p), p)) > 0:
            continue  # squarefree inputs only
        first = fp.low_degree_factors(f, p, 6, seed=done)
        again = fp.low_degree_factors(f, p, 6, seed=done)
        assert [list(g) for g in first] == [list(g) for g in again]
        prod = fp.ONE
        for g in first:
            prod = fp.poly_mul(prod, g, p)
        assert np.array_equal(prod, f)
        # degrees match sympy's factorization
        want = sorted(
            gg.degree() for gg, mult in to_sympy(f, p).factor_list()[1] for _ in range(mult)
        )
        assert sorted(fp.degree(g) for g in first) == want
        done += 1


def test_distinct_degree_respects_cap():
    p = 5
    # x^6 - 1 over F_5: roots of unity structure, factors of degree 1 and 2
    f = fp.poly([-1, 0, 0, 0, 0, 0, 1], p)
    blocks, rest = fp.distinct_degree_split(f, p, 1)
    assert all(d == 1 for d, _ in blocks)
    assert fp.degree(rest) > 0  # the quadratic part stays unsplit
