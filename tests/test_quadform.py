import hashlib
import random
from collections import Counter, deque
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import legendre_symbol

from isocayley import quadform
from isocayley.abelian import full_subgroup, op_mul, subgroup_generated
from isocayley.cli import _dumps
from isocayley.errors import InputError, PreconditionError
from isocayley.ntheory import factorize, is_prime, kronecker, primes_below
from isocayley.quadform import (
    PRIME_BOUND_CAP,
    ClassGroup,
    Discriminant,
    class_group,
    class_number,
    class_number_bound,
    compose,
    form_named,
    generating_multiset,
    inverse,
    prime_form,
    principal_form,
    reduce_form,
    _reduced_definite_forms,
)

# class numbers from the Dirichlet formula h = |sum kron(D,a)*a| / |D|
# (fundamental D < -4); frozen after computing them independently of the
# reduced-form enumeration under test
KNOWN_H = {
    -23: 3,
    -47: 5,
    -71: 7,
    -199: 9,
    -479: 25,
    -1003: 4,
    -10007: 77,
}


def dirichlet_h(d):
    assert d < -4
    return abs(sum(kronecker(d, a) * a for a in range(1, -d))) // (-d)


def sl2_equivalent(f, g, depth=9):
    """Breadth-first search over S/T moves; an equivalence oracle for tests."""
    def s_move(t):
        a, b, c = t
        return (c, -b, a)

    def t_move(t, k):
        a, b, c = t
        return (a, b + 2 * a * k, a * k * k + b * k + c)

    seen = {f}
    queue = deque([(f, 0)])
    while queue:
        cur, dist = queue.popleft()
        if cur == g:
            return True
        if dist == depth:
            continue
        for nxt in (s_move(cur), t_move(cur, 1), t_move(cur, -1)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    return False


class TestReduce:
    def test_example_disc_minus_23(self):
        red = reduce_form((3, 1, 2))
        assert red == (2, -1, 3)
        assert sl2_equivalent((3, 1, 2), red)

    def test_example_disc_minus_20(self):
        assert reduce_form((6, 2, 1)) == (1, 0, 5)

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            a = rng.randint(1, 30)
            b = rng.randint(-30, 30)
            c = rng.randint(1, 30)
            if b * b - 4 * a * c >= 0:
                continue
            red = reduce_form((a, b, c))
            assert reduce_form(red) == red
            assert red[1] ** 2 - 4 * red[0] * red[2] == b * b - 4 * a * c

    def test_degenerate_disc_rejected(self):
        with pytest.raises(InputError):
            reduce_form((1, 3, 2))  # disc 1, a square

    def test_positive_discriminant_rejected(self):
        with pytest.raises(InputError):
            reduce_form((1, 8, -3))  # disc 76

    def test_negative_definite_rejected(self):
        with pytest.raises(InputError, match=r"^form \(-1, 1, -6\) is not positive definite$"):
            reduce_form((-1, 1, -6))  # disc -23


class TestCompose:
    def test_example_square_of_order_three_class(self):
        x = reduce_form((2, 1, 3))
        assert compose(x, x) == (2, -1, 3)

    def test_identity_law(self):
        cg = class_group(-71)
        e = cg.identity
        for cl in cg.classes:
            assert compose(e, cl) == cl

    def test_inverse_law(self):
        cg = class_group(-71)
        for cl in cg.classes:
            assert compose(cl, inverse(cl)) == cg.identity

    def test_group_laws_exhaustive_minus_47(self):
        cg = class_group(-47)
        cs = cg.classes
        for x in cs:
            for y in cs:
                assert compose(x, y) == compose(y, x)
        for x in cs[:3]:
            for y in cs:
                for z in cs:
                    assert compose(compose(x, y), z) == compose(x, compose(y, z))

    def test_discriminant_mismatch(self):
        with pytest.raises(InputError):
            compose(reduce_form((1, 1, 6)), reduce_form((1, 0, 5)))


def scalar_reduced_forms(d):
    """Primitive reduced forms of d < 0, one (a, b) pair at a time."""
    out = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - d) % 2 or (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (b < 0 and (-b == a or a == c)) or gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    return out


def test_enumeration_matches_scalar_loop():
    # -9999995 = 5 (mod 8) makes 2 inert; -9999999 has conductor 3
    discs = [d for d in range(-3000, -2) if d % 4 in (0, 1)]
    discs += [-9999991, -9999960, -9999995, -9999999]
    # -1021020 = 2^2 * -255255 (seven ramified primes), -999900 = 30^2 * -1111
    sample = [-1021020, -999900]
    rng = random.Random(14)
    while len(sample) < 12:  # log-uniform in |D| down to -10^7
        d = -int(10 ** rng.uniform(3.5, 7))
        if d % 4 in (0, 1):
            sample.append(d)
    assert min(sample) < -4 * 10**6
    assert any(d % 2 == 0 and Discriminant.of(d).conductor == 1 for d in sample)
    assert sum(Discriminant.of(d).conductor > 1 for d in sample) >= 5
    assert max(len(factorize(-d)) for d in sample) == 7  # primes dividing D
    for d in discs + sample:
        got = list(_reduced_definite_forms(d))
        assert got == scalar_reduced_forms(d), f"D={d}"
        assert all(type(x) is int for f in got for x in f)


def test_class_number_bound_holds():
    # the D of the enumeration oracle, fundamental and not, and large conductors
    discs = [d for d in range(-3000, -2) if d % 4 in (0, 1)]
    discs += [-9999991, -9999960, -9999995, -9999999, -1021020, -999900,
              -4 * 1000**2, -3 * 1155**2, -7 * 1195**2]
    for d in discs:
        assert class_number(d) <= class_number_bound(d), f"D={d}"
    for d, h in KNOWN_H.items():
        assert class_number(d) == h


def test_form_named_takes_only_vertex_spellings():
    d = -9999991
    assert form_named(d, "368:291:6851") == (368, 291, 6851)
    assert form_named(d, "368:-291:6851") == (368, -291, 6851)
    for name in ["0368:291:6851", "+368:291:6851", "368:+291:6851", " 368:291:6851",
                 "368:291:6851:", "368:291", "368:291:6852", "6851:-291:368",
                 "368:1027:7510", "", 368, None]:
        with pytest.raises(InputError):
            form_named(d, name)
    # a form of D = -36 that is reduced but not primitive names no vertex
    assert form_named(-36, "1:0:9") == (1, 0, 9)
    with pytest.raises(InputError):
        form_named(-36, "3:0:3")


@lru_cache(maxsize=None)
def cached_class_group(d):
    return class_group(d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-9999991, -9999960, -1021020, -999900, -3299]), st.data())
def test_compose_is_the_triple_composition_and_a_group_law(d, data):
    cg = cached_class_group(d)
    x, y, z = (data.draw(st.sampled_from(cg.classes)) for _ in range(3))
    k = data.draw(st.integers(-5, 5))
    # a translate of x, not reduced: the product depends on the classes alone
    a, b, c = x
    moved = (a, b + 2 * a * k, a * k * k + b * k + c)
    xy = compose(moved, y)
    assert xy == compose(y, x) == reduce_form(xy)
    assert compose(xy, z) == compose(x, compose(y, z))
    assert compose(x, cg.identity) == x
    assert compose(x, inverse(x)) == cg.identity
    assert cg.element_of(xy) == op_mul(cg.element_of(x), cg.element_of(y))


class TestClassGroup:
    def test_cl_minus_23(self):
        cg = class_group(-23)
        assert cg.order == 3
        assert list(cg.group.invariants) == [3]
        assert set(cg.classes) == {(1, 1, 6), (2, -1, 3), (2, 1, 3)}

    def test_known_class_numbers(self):
        for d, h in KNOWN_H.items():
            assert class_group(d).order == h, f"h({d})"

    def test_dirichlet_formula_agrees(self):
        rng = random.Random(99)
        count = 0
        while count < 12:
            d = -rng.randrange(3, 3000)
            if d % 4 not in (0, 1):
                continue
            disc = Discriminant.of(d)
            if disc.conductor != 1 or d >= -4:
                continue
            assert class_group(d).order == dirichlet_h(d), f"D={d}"
            count += 1

    def test_dictionary_is_isomorphism(self):
        cg = class_group(-479)  # cyclic of order 25
        for x in cg.classes[:6]:
            for y in cg.classes:
                lhs = cg.element_of(compose(x, y))
                rhs = op_mul(cg.element_of(x), cg.element_of(y))
                assert lhs == rhs

    def test_classes_sorted(self):
        cg = class_group(-479)
        assert list(cg.classes) == sorted(cg.classes)

    def test_json_export(self):
        cg = class_group(-23)
        data = cg.to_json()
        assert data["discriminant"] == -23
        assert data["invariants"] == [3]
        forms = [tuple(entry["form"]) for entry in data["classes"]]
        assert forms == sorted(forms)

    def test_coordinates_pinned_below_4000(self):
        """One digest over the JSON of every Cl(D) with -4000 < D <= -3: the
        structure walk may change how it works, not where a class lands."""
        h = hashlib.sha256()
        discs = [d for d in range(-3, -4000, -1) if d % 4 in (0, 1)]
        assert len(discs) == 1999
        for d in discs:
            h.update(_dumps(class_group(d).to_json()).encode())
        assert h.hexdigest() == "fc175dc7eeb1e273c1c6c86a00f776c674d2fe8ede281ad98b947bff6ec7da0c"

    def test_structure_walk_composes_by_compose(self, monkeypatch):
        """The walk looks ``compose`` up when it runs, so a wrapper put in
        its place (as a tracer installs one) sees every product."""
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return compose(x, y)

        monkeypatch.setattr(quadform, "compose", counted)
        assert class_group(-23).order == 3
        assert calls

    def test_bound_enforced(self):
        with pytest.raises(PreconditionError):
            class_group(-10**7 - 111)

    def test_positive_discriminant_rejected(self, monkeypatch):
        def unreachable(d):
            raise AssertionError("enumerated forms of a positive discriminant")

        monkeypatch.setattr(quadform, "_reduced_definite_forms", unreachable)
        with pytest.raises(PreconditionError):
            class_group(60)

    def test_bad_discriminant(self):
        with pytest.raises(InputError):
            Discriminant.of(-5)  # 3 mod 4
        with pytest.raises(InputError):
            Discriminant.of(16)  # square
        with pytest.raises(InputError):
            Discriminant.of(0)


class TestPrimeForm:
    def test_split_two(self):
        cls, cls_inv, b = prime_form(-23, 2)
        assert cls == (2, 1, 3)
        assert cls_inv == (2, -1, 3)
        assert b == 1

    def test_split_seven_disc_minus_115(self):
        cls, cls_inv, b = prime_form(-115, 7)
        assert b == 5
        assert cls == reduce_form((7, 5, 5))
        assert cls_inv == reduce_form((7, -5, 5))
        assert cls_inv == inverse(cls)

    def test_inert(self):
        assert prime_form(-23, 5) is None

    def test_split_three_disc_minus_20(self):
        # -20 = 1 mod 3, so 3 splits; both conjugate ideals land in the
        # unique non-principal class (it has order two)
        hit = prime_form(-20, 3)
        assert hit is not None
        cls, cls_inv, b = hit
        assert b == 2
        assert cls == (2, 2, 3)
        assert cls == cls_inv

    def test_ramified(self):
        cls, cls_inv, b = prime_form(-20, 2)
        assert cls == cls_inv
        assert compose(cls, cls) == reduce_form(principal_form(-20))

    def test_conductor_prime_rejected(self):
        with pytest.raises(PreconditionError):
            prime_form(-12, 2)  # -12 = (-3) * 2^2

    def test_trichotomy_against_independent_symbol(self):
        # odd ell: library kronecker must match sympy's Legendre symbol;
        # ell = 2 checked against the residue of D mod 8
        rng = random.Random(424242)
        discs = []
        while len(discs) < 50:
            d = -rng.randrange(3, 10**6)
            if d % 4 in (0, 1):
                discs.append(d)
        ells = primes_below(10**4)
        for d in discs:
            for ell in ells[:60] + ells[-10:]:
                if ell == 2:
                    want = 0 if d % 2 == 0 else (1 if d % 8 == 1 else -1)
                else:
                    want = 0 if d % ell == 0 else legendre_symbol(d % ell, ell)
                assert kronecker(d, ell) == want, (d, ell)
                disc = Discriminant.of(d)
                if disc.conductor % ell == 0:
                    continue
                hit = prime_form(d, ell)
                if want == -1:
                    assert hit is None
                else:
                    assert hit is not None
                    cls, cls_inv, b = hit
                    assert 0 <= b < 2 * ell
                    assert (b * b - d) % (4 * ell) == 0
                    if want == 0:
                        assert cls == cls_inv


class TestGeneratingMultiset:
    def test_full_subgroup_minus_115(self):
        cg = class_group(-115)
        s = generating_multiset(cg, 10, full_subgroup(cg.group))
        labels = sorted(g.label for g in s)
        assert labels == ["5", "7:5", "7:9"]

    def test_invariants(self):
        cg = class_group(-479)
        h = subgroup_generated(cg.group, [cg.group.element((5,))])  # C5 inside C25
        assert h.order == 5
        bound = 150
        s = [g for g in generating_multiset(cg, bound, h) if g.ell != 109]
        assert s, "expected at least one generator below the bound"
        by_class = Counter(g.form_class for g in s)
        for g in s:
            assert g.element in h
            assert g.ell < bound and is_prime(g.ell)
            assert g.ell != 109
            assert cg.discriminant.conductor % g.ell != 0
            # multiset closed under inversion
            assert by_class[inverse(g.form_class)] == by_class[g.form_class]

    def test_wrong_subgroup_rejected(self):
        cg23 = class_group(-23)
        cg115 = class_group(-115)
        with pytest.raises(InputError):
            generating_multiset(cg23, 10, full_subgroup(cg115.group))

    def test_bound_cap(self, monkeypatch):
        def unreachable(n):
            raise AssertionError("sieved past the prime-bound cap")

        cg = class_group(-23)
        monkeypatch.setattr(quadform, "primes_below", unreachable)
        with pytest.raises(PreconditionError):
            generating_multiset(cg, PRIME_BOUND_CAP + 1, full_subgroup(cg.group))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-2500, max_value=-3))
def test_reduction_reaches_unique_representative(d):
    if d % 4 not in (0, 1):
        return
    try:
        disc = Discriminant.of(d)
    except InputError:
        return
    cg = class_group(disc)
    rng = random.Random(d)
    # random translations/flips must land back on the canonical representative
    for cl in cg.classes[:4]:
        a, b, c = cl
        k = rng.randint(-4, 4)
        shifted = (a, b + 2 * a * k, a * k * k + b * k + c)
        assert reduce_form(shifted) == cl
        assert reduce_form((c, -b, a)) == cl
