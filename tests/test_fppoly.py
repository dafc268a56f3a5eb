import numpy as np
import pytest
import sympy
from hypothesis import given, settings
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


@given(coeff_lists, coeff_lists, st.sampled_from(PRIMES))
@settings(max_examples=100, deadline=None)
def test_xgcd_bezout_identity(u_c, v_c, p):
    u, v = fp.poly(u_c, p), fp.poly(v_c, p)
    g, s, t = fp.poly_xgcd(u, v, p)
    lhs = fp.poly_add(fp.poly_mul(s, u, p), fp.poly_mul(t, v, p), p)
    assert np.array_equal(lhs, g)
    if len(g):
        assert int(g[-1]) == 1


def test_powmod_matches_repeated_multiplication():
    p = 101
    g = fp.poly([2, 0, 1], p)
    u = fp.poly([3, 5], p)
    acc = fp.ONE
    for e in range(40):
        assert np.array_equal(acc, fp.poly_powmod(u, e, g, p))
        acc = fp.poly_mod(fp.poly_mul(acc, u, p), g, p)


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
