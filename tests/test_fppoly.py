import numpy as np
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isocayley import fppoly as fp
from isocayley.errors import InputError

PRIMES = [3, 5, 7, 11, 13, 101]

x = sympy.symbols("x")


def poly(coeffs, p):
    """The coefficients, lowest degree first, reduced mod p and trimmed."""
    return fp.trim(np.asarray(list(coeffs), dtype=np.int64) % p)


def to_sympy(u, p):
    return sympy.Poly(list(reversed([int(c) for c in u])) or [0], x, modulus=p)


def sympy_gcd(u, v, p) -> list[int]:
    """The monic gcd of u and v by sympy, [] when both are zero."""
    theirs = sympy.gcd(to_sympy(u, p), to_sympy(v, p))
    return [] if theirs.is_zero else [c % p for c in reversed(theirs.monic().all_coeffs())]


def gcd(u, v, p):
    """stack_gcd of one pair, as a stack of one."""
    return fp.stack_gcd(u[None], v[None], p)[0]


coeff_lists = st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=9)


@given(coeff_lists, coeff_lists, st.sampled_from(PRIMES))
@settings(max_examples=150, deadline=None)
def test_divmod_round_trip(u_c, v_c, p):
    u, v = poly(u_c, p), poly(v_c, p)
    if len(v) == 0:
        with pytest.raises(InputError):
            fp.poly_divmod(u, v, p)
        return
    q, r = fp.poly_divmod(u, v, p)
    assert fp.degree(r) < fp.degree(v)
    assert np.array_equal(fp.poly_sub(u, r, p), fp.poly_mul(q, v, p))


@given(coeff_lists, coeff_lists, st.sampled_from(PRIMES))
@settings(max_examples=100, deadline=None)
def test_gcd_matches_sympy(u_c, v_c, p):
    u, v = poly(u_c, p), poly(v_c, p)
    assert gcd(u, v, p).tolist() == sympy_gcd(u, v, p)


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
    u, v = poly(u_c, p), poly(v_c, p)
    got = gcd(u, v, p)
    assert got.dtype == np.int64
    assert got.tolist() == sympy_gcd(u, v, p)


def powmod(u, e, g, p):
    """poly_powmod of one polynomial, as a stack of one, trimmed."""
    return fp.trim(fp.poly_powmod(u[None], e, g[None], p)[0])


def test_powmod_matches_repeated_multiplication():
    p = 101
    g = poly([2, 0, 1], p)
    u = poly([3, 5], p)
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
    u, g = poly(u_c, p), poly(g_c, p)
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
        u, g = poly(u_c, p), poly(g_c, p)
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
    u, g = poly(u_c, p), poly(g_c, p)
    if len(g) == 0:
        return
    want = gf_pow_mod(
        [int(c) for c in reversed(u)], e, [int(c) for c in reversed(g)], p, ZZ
    )
    assert [int(c) for c in reversed(powmod(u, e, g, p))] == want


def convolve_rows(u, v, p):
    """stack_mul's reference: one np.convolve per row pair."""
    if u.shape[1] == 0 or v.shape[1] == 0:
        return np.zeros((len(u), 0), dtype=np.int64)
    return np.array([np.convolve(a, b) % p for a, b in zip(u, v)],
                    dtype=np.int64).reshape(len(u), u.shape[1] + v.shape[1] - 1)


# widths 0, at most the outer-product bound, and past it
stack_widths = st.one_of(st.just(0), st.integers(1, fp._NARROW),
                         st.integers(fp._NARROW + 1, fp._NARROW + 24))


@given(st.data(), st.integers(0, 6), stack_widths, stack_widths,
       st.sampled_from([3, 2003, 9973]))
@settings(max_examples=200, deadline=None)
def test_stack_mul_matches_per_row_convolve(data, k, a, b, p):
    """Both branches of stack_mul, the outer product of narrow stacks and
    the per-row calls past ``_NARROW``, on stacks of 0 to 6 rows."""
    coeffs = st.integers(0, p - 1)
    u = data.draw(arrays(np.int64, (k, a), elements=coeffs))
    v = data.draw(arrays(np.int64, (k, b), elements=coeffs))
    got = fp.stack_mul(u, v, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, convolve_rows(u, v, p))


@pytest.mark.parametrize("k, a, b", [(6, 481, 481), (6, 40, 481), (6, 40, 40), (200, 40, 40)])
def test_stack_mul_at_the_int64_limit(k, a, b):
    """Every entry p - 1 at p = 9973, so coefficient c sums one (p - 1)^2 per
    pair i + j = c: up to 481 of them, 4.8e10, in the per-row branch.  The
    narrow branch takes (6, 40, 40) as one outer product and (200, 40, 40)
    in three chunks of its buffer."""
    p = 9973
    got = fp.stack_mul(np.full((k, a), p - 1), np.full((k, b), p - 1), p)
    pairs = [min(c, a - 1, b - 1, a + b - 2 - c) + 1 for c in range(a + b - 1)]
    assert np.array_equal(got, np.tile([n * (p - 1) ** 2 % p for n in pairs], (k, 1)))


def test_factor_known_product():
    p = 7
    f = fp.poly_mul(poly([6, 1], p), poly([5, 1], p), p)
    f = fp.poly_mul(f, poly([1, 0, 1], p), p)  # x^2 + 1 is irreducible mod 7
    fac = fp.low_degree_factors(f, p, 2, seed=9)
    assert [[int(c) for c in g] for g in fac] == [[5, 1], [6, 1], [1, 0, 1]]


def test_factorization_deterministic_and_complete():
    rng = np.random.default_rng(3)
    done = 0
    while done < 15:
        p = int(rng.choice([5, 7, 11, 31]))
        coeffs = [int(c) for c in rng.integers(0, p, size=6)] + [1]
        f = poly(coeffs, p)
        derivative = poly([i * c for i, c in enumerate(coeffs)][1:], p)
        if fp.degree(gcd(f, derivative, p)) > 0:
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
    f = poly([-1, 0, 0, 0, 0, 0, 1], p)
    blocks, rest = fp.distinct_degree_split(f, p, 1)
    assert all(d == 1 for d, _ in blocks)
    assert fp.degree(rest) > 0  # the quadratic part stays unsplit


@st.composite
def gcd_stacks(draw):
    """A prime and two stacks whose row pairs share a random factor; any of
    the factors may be zero, so zero rows occur on either side."""
    p = draw(st.sampled_from([3, 7, 2003, 9973]))
    coeffs = st.lists(st.integers(0, p - 1), max_size=6)
    rows = draw(st.lists(st.tuples(coeffs, coeffs, coeffs), min_size=1, max_size=8))
    us, vs = [], []
    for common, cu, cv in rows:
        g = poly([1] if not common else common, p)
        us.append(fp.poly_mul(g, poly(cu, p), p))
        vs.append(fp.poly_mul(g, poly(cv, p), p))
    width = max(len(w) for w in us + vs)
    return p, np.array([fp._pad(u, width) for u in us]), np.array([fp._pad(v, width) for v in vs])


@given(gcd_stacks())
@settings(max_examples=300, deadline=None)
def test_stack_gcd_matches_poly_gcd(case):
    p, u, v = case
    got = fp.stack_gcd(u, v, p)
    assert len(got) == len(u)
    for i in range(len(u)):
        assert got[i].dtype == np.int64
        assert got[i].tolist() == sympy_gcd(u[i], v[i], p), (p, u[i].tolist(), v[i].tolist())


@pytest.fixture
def steps(monkeypatch):
    """(rows, deg a, deg b) of every group step ``stack_gcd`` takes, in order."""
    seen = []
    step = fp._pseudo_remainders

    def spy(a, b, p):
        seen.append((len(a), a.shape[1] - 1, b.shape[1] - 1))
        return step(a, b, p)

    monkeypatch.setattr(fp, "_pseudo_remainders", spy)
    return seen


def test_stack_gcd_rows_leave_the_lockstep(steps):
    """Four rows of one (deg 4, deg 3) group at p = 9973.  Row 0 stays in
    lockstep down to gcd 1 and row 1 down to its shared factor x^2 + 1;
    row 2's remainder vanishes at once, so its gcd is the divisor made
    monic; row 3's first remainder x + 1 drops two degrees, so that row
    leaves the group, steps alone at (3, 1), and rejoins row 0 at (1, 0)."""
    p = 9973

    def mul(*factors):
        out = fp.ONE
        for f in factors:
            out = fp.poly_mul(out, poly(f, p), p)
        return out

    u = [[2, 0, 0, 0, 1], mul([1, 0, 1], [3, 0, 1]), mul([0, 2, 0, 4], [1, 1]), [1, 1, 0, 0, 1]]
    v = [[1, 1, 0, 1], mul([1, 0, 1], [5, 1]), [0, 2, 0, 4], [0, 0, 0, 1]]
    u, v = np.array([fp._pad(np.array(r), 5) for r in u]), np.array(v)
    want = [sympy_gcd(a, b, p) for a, b in zip(u, v)]
    assert [g.tolist() for g in fp.stack_gcd(u, v, p)] == want
    assert steps == [(4, 4, 3), (2, 3, 2), (1, 3, 1), (1, 2, 1), (2, 1, 0)]
    assert want[0] == [1] and want[1] == [1, 0, 1] and want[3] == [1]
    assert want[2] == fp.make_monic(v[2], p).tolist()


def test_stack_gcd_group_drops_two_degrees_together(steps):
    """Every row of a (deg 6, deg 5) group has a remainder of degree 3, as
    the l = 5 rows of ``ecgraph -p 9973 -t 1`` drop from degree 10 to 8 at
    one step: the whole group moves on to (5, 3) as one.  The rows that are
    zero on entry finish without a step, as the other operand made monic,
    or as zero."""
    p, k = 2003, 5
    rng = np.random.default_rng(7)
    v = rng.integers(1, p, size=(k, 6))
    q = rng.integers(1, p, size=(k, 2))
    r = np.concatenate([rng.integers(0, p, size=(k, 3)), rng.integers(1, p, size=(k, 1))], axis=1)
    u = (fp.stack_mul(q, v, p) + fp._widen(r, 7)) % p  # u = q v + r, deg r = 3
    zero = np.zeros((1, 7), dtype=np.int64)
    v = fp._widen(v, 7)
    u, v = np.concatenate([u, zero, u[:1], zero]), np.concatenate([v, v[:1], zero, zero])
    got = fp.stack_gcd(u, v, p)
    assert [g.tolist() for g in got] == [sympy_gcd(a, b, p) for a, b in zip(u, v)]
    assert got[k + 2].tolist() == [] and v[k, 5] != 1  # so row k is made monic
    assert steps[:2] == [(k, 6, 5), (k, 5, 3)]
    assert all(rows <= k for rows, _, _ in steps)
