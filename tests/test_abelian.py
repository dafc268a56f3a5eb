import itertools
import random
import unittest
import unittest.mock
from collections import Counter
from fractions import Fraction
from math import prod

import numpy as np
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from isocayley import abelian
from isocayley.abelian import (
    FiniteAbelianGroup,
    GroupFileError,
    character_angles,
    characters_of,
    full_subgroup,
    generated_order,
    group_from_relations,
    op_inv,
    op_mul,
    parse_group_text,
    smith_normal_form,
    subgroup_generated,
)
from isocayley.errors import InputError, PreconditionError
from isocayley.quadform import class_group


def all_elements(g):
    """Every element of G in lexicographic coordinate order."""
    return [g.element(c) for c in itertools.product(*(range(d) for d in g.invariants))]


def op_pow(g, e):
    """g^e by |e| multiplications by g or by its inverse."""
    out = g.group.identity
    for _ in range(abs(e)):
        out = op_mul(out, g if e > 0 else op_inv(g))
    return out


def snf_oracle(rows, ncols):
    if not rows:
        return []
    m = sympy_snf(Matrix(rows), domain=ZZ)
    diag = [abs(int(m[i, i])) for i in range(min(m.shape))]
    return [d for d in diag if d != 0]


class SmithNormalFormTest(unittest.TestCase):
    def check_decomposition(self, rows, ncols):
        diag, v, w = smith_normal_form(rows, ncols)
        self.assertEqual(Matrix(v) * Matrix(w), Matrix.eye(ncols), "W is not the inverse of V")
        # V is unimodular and maps the row lattice of A into diag(d) * Z^n;
        # with the same nonzero invariants (test_against_sympy) the two
        # lattices have the same rank and covolume, hence are equal
        self.assertIn(Matrix(v).det(), (1, -1), "V is not unimodular")
        for i, row in enumerate(rows):
            for j in range(ncols):
                entry = sum(row[t] * v[t][j] for t in range(ncols))
                if diag[j]:
                    self.assertEqual(entry % diag[j], 0, f"entry ({i},{j}) of A V")
                else:
                    self.assertEqual(entry, 0, f"entry ({i},{j}) of A V")
        nonzero = [d for d in diag if d != 0]
        self.assertEqual(diag[: len(nonzero)], nonzero, "zeros must trail")
        for a, b in zip(nonzero, nonzero[1:]):
            self.assertEqual(b % a, 0, "divisibility chain broken")
        return diag

    def test_known_matrix(self):
        diag = self.check_decomposition([[2, 1], [0, 3]], 2)
        self.assertEqual(diag, [1, 6])

    def test_zero_matrix(self):
        diag, _, _ = smith_normal_form([[0, 0], [0, 0]], 2)
        self.assertEqual(diag, [0, 0])

    def test_against_sympy(self):
        rng = random.Random(20260815)
        for _ in range(60):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
            got = self.check_decomposition(rows, ncols)
            self.assertEqual(
                [d for d in got if d != 0], snf_oracle(rows, ncols), f"matrix {rows}"
            )


class GroupFromRelationsTest(unittest.TestCase):
    def test_documented_example(self):
        group, images = group_from_relations(2, [[2, 1], [0, 3]])
        self.assertEqual(group.invariants, (6,))
        # some image must generate the cyclic group of order 6
        self.assertTrue(any(img.order == 6 for img in images))

    def test_trivial_quotient(self):
        group, images = group_from_relations(1, [[1]])
        self.assertEqual(group.order, 1)
        self.assertFalse(any(images[0].coords))

    def test_infinite_quotient_rejected(self):
        with self.assertRaises(InputError):
            group_from_relations(2, [[2, 0]])

    def test_no_generators(self):
        group, images = group_from_relations(0, [])
        self.assertEqual(group.order, 1)
        self.assertEqual(images, [])


class ElementOpsTest(unittest.TestCase):
    def setUp(self):
        self.g = FiniteAbelianGroup((2, 4))

    def test_orders(self):
        self.assertEqual(self.g.element((1, 0)).order, 2)
        self.assertEqual(self.g.element((0, 1)).order, 4)
        self.assertEqual(self.g.element((1, 2)).order, 2)
        self.assertEqual(self.g.identity.order, 1)

    def test_elements_are_slotted(self):
        self.assertFalse(hasattr(self.g.element((1, 3)), "__dict__"))

    def test_mul_inv_pow(self):
        a = self.g.element((1, 3))
        self.assertEqual(op_mul(a, op_inv(a)), self.g.identity)
        self.assertEqual(op_pow(a, 4), self.g.identity)
        self.assertEqual(op_pow(a, -1), op_inv(a))

    def test_cross_group_rejected(self):
        other = FiniteAbelianGroup((8,))
        with self.assertRaises(InputError):
            op_mul(self.g.element((1, 1)), other.element((1,)))

    def test_invariant_chain_enforced(self):
        with self.assertRaises(InputError):
            FiniteAbelianGroup((4, 2))


class SubgroupTest(unittest.TestCase):
    def test_cyclic_subgroup(self):
        g = FiniteAbelianGroup((12,))
        h = subgroup_generated(g, [g.element((2,))])
        self.assertEqual(h.order, 6)
        self.assertEqual(h.index, 2)
        self.assertIn(g.element((10,)), h)
        self.assertNotIn(g.element((3,)), h)

    def test_abstract_structure_example(self):
        g = FiniteAbelianGroup((6,))
        h = subgroup_generated(g, [g.element((2,))])
        self.assertEqual(h.abstract.invariants, (3,))
        self.assertEqual(h.abstract_coords.shape, (3, 1))
        self.assertEqual(h.coords.tolist(), [[0], [2], [4]])
        self.assertEqual(h.abstract_coords[0].tolist(), list(h.abstract.identity.coords))
        # the map must be a bijection H -> abstract coordinates
        self.assertEqual(len(set(map(tuple, h.abstract_coords.tolist()))), 3)

    def test_lagrange_random(self):
        rng = random.Random(7)
        for _ in range(25):
            inv = []
            d = 1
            for _ in range(rng.randint(1, 3)):
                d *= rng.randint(1, 4)
                if d > 1:
                    inv.append(d)
            if not inv:
                continue
            g = FiniteAbelianGroup(tuple(inv))
            gens = [
                g.element(tuple(rng.randrange(di) for di in g.invariants))
                for _ in range(rng.randint(1, 2))
            ]
            h = subgroup_generated(g, gens)
            self.assertEqual(h.order * h.index, g.order)
            self.assertEqual(h.abstract.order, h.order)
            self.assertEqual(h.abstract_coords.shape, (h.order, h.abstract.rank))
            self.assertEqual(h.coords.shape, (h.order, g.rank))

    def test_abstract_structure_is_an_isomorphism(self):
        """phi: H -> abstract group is a bijection with phi(x+y) = phi(x) + phi(y)."""
        rng = random.Random(13)
        kinds = Counter()
        for _ in range(120):
            g = random_group(rng)
            gens = [random_element(rng, g) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.3:  # the whole group, generators in random order
                gens += g.generators()
                rng.shuffle(gens)
            h = subgroup_generated(g, gens)
            if h.order > 1024:
                continue  # the all-pairs check below is quadratic in |H|
            abstract = h.abstract
            kinds["trivial"] += h.order == 1
            kinds["rank 4"] += abstract.rank == 4
            kinds["first element not a generator"] += (
                h.order > 1 and h.elements[1] not in gens
            )
            xs, ys = h.coords, h.abstract_coords
            # the rows are H's elements in coordinate order, each once, and
            # the abstract rows are every element of the abstract group once
            radix = np.array([prod(g.invariants[i + 1:]) for i in range(g.rank)], dtype=np.int64)
            codes = xs @ radix
            self.assertTrue(np.array_equal(codes, h.codes))
            self.assertTrue(np.all(codes[1:] > codes[:-1]))
            self.assertEqual({tuple(x) for x in xs.tolist()}, {x.coords for x in h})
            self.assertEqual(sorted(map(tuple, ys.tolist())), [e.coords for e in all_elements(abstract)])
            # all pairs at once: x + y located by its mixed-radix code
            amb = np.array(g.invariants, dtype=np.int64)
            sums = (xs[:, None, :] + xs[None, :, :]) % amb
            where = np.searchsorted(codes, sums @ radix)
            self.assertTrue(np.array_equal(codes[where], sums @ radix))
            want = (ys[:, None, :] + ys[None, :, :]) % np.array(abstract.invariants, dtype=np.int64)
            self.assertTrue(np.array_equal(ys[where], want))
        self.assertTrue(all(kinds[k] for k in ("trivial", "rank 4", "first element not a generator")), kinds)

    def test_closure_matches_breadth_first_search(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_group(rng)
            gens = [random_element(rng, g) for _ in range(rng.randint(0, 4))]
            gens += gens[: rng.randint(0, len(gens))]  # repeats change nothing
            seen = {g.identity.coords}
            frontier = [g.identity]
            while frontier:
                step = {op_mul(x, s) for x in frontier for s in gens}
                frontier = [x for x in step if x.coords not in seen]
                seen.update(x.coords for x in frontier)
            self.assertEqual(generated_order(g, gens), len(seen))
            h = subgroup_generated(g, gens)
            self.assertEqual({x.coords for x in h}, seen)
            self.assertEqual(h.generators, tuple(gens))

    def test_full_subgroup_is_the_walk_over_the_standard_generators(self):
        groups = [class_group(-9999991).group, class_group(-9999960).group,
                  parse_group_text("invariants: 4 12\n").group,
                  FiniteAbelianGroup(()), FiniteAbelianGroup((1, 6))]
        for g in groups:
            got = full_subgroup(g)
            lex = [e.coords for e in all_elements(g)]
            # the elements of G, each once, in lexicographic coordinate order
            self.assertEqual(list(got.elements), list(all_elements(g)))
            self.assertEqual(list(map(tuple, got.coords.tolist())), lex)
            self.assertTrue(np.array_equal(got.codes, np.arange(g.order)))
            self.assertEqual(got.generators, tuple(g.generators()))
            # the standard generators are the basis: G is its own abstract
            # form and every element its own abstract coordinate vector
            self.assertEqual(got.abstract, g)
            self.assertTrue(np.array_equal(got.abstract_coords, got.coords))
            # any generating set gives the same elements in the same order
            other = subgroup_generated(g, g.generators()[::-1] + [g.identity])
            self.assertEqual(got, other)
            self.assertTrue(np.array_equal(got.coords, other.coords))

    def test_full_subgroup_cap_checked_before_any_element(self):
        def unreachable(*args, **kwargs):
            raise AssertionError("a subgroup was built before the order cap was checked")

        with unittest.mock.patch.object(abelian.Subgroup, "__init__", unreachable):
            with self.assertRaises(PreconditionError):
                full_subgroup(FiniteAbelianGroup((10, 100, 10000)))  # order 10^7


def random_group(rng, max_rank=4):
    """Z/d_1 x ... x Z/d_k with d_i | d_(i+1), k <= max_rank, each d_(i+1)/d_i <= 4."""
    inv, d = [], 1
    for _ in range(rng.randint(0, max_rank)):
        d *= rng.choice((1, 2, 2, 3, 4))
        inv.append(d)
    return FiniteAbelianGroup(tuple(inv))


def random_element(rng, g):
    return g.element(tuple(rng.randrange(d) for d in g.invariants))


class CharacterTest(unittest.TestCase):
    def test_angle_table_matches_fraction_angles(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_group(rng)
            h = subgroup_generated(g, [random_element(rng, g) for _ in range(rng.randint(0, 3))])
            elems = [rng.choice(h.elements) for _ in range(rng.randint(0, 6))]
            e, columns = character_angles(h, elems)
            chars = characters_of(h)
            columns = list(columns)
            self.assertEqual(len(columns), len(elems))
            for col in columns:
                self.assertEqual((col.dtype, col.shape), (np.int64, (len(chars),)))
            table = np.array(columns, dtype=np.int64).reshape(len(elems), len(chars)).T
            for i, chi in enumerate(chars):
                for j, x in enumerate(elems):
                    self.assertEqual(Fraction(int(table[i, j]), e), chi.angle(x))
            self.assertTrue(all(x.order <= e and e % x.order == 0 for x in h))

    def test_angle_table_rejects_outsiders(self):
        g = FiniteAbelianGroup((6,))
        h = subgroup_generated(g, [g.element((2,))])
        with self.assertRaises(InputError):
            character_angles(h, [g.element((2,)), g.element((3,))])
        other = FiniteAbelianGroup((2, 6))
        with self.assertRaises(InputError):
            character_angles(full_subgroup(g), [other.element((0, 2))])

    def test_full_character_count_and_orthogonality(self):
        g = FiniteAbelianGroup((6,))
        chars = characters_of(full_subgroup(g))
        self.assertEqual(len(chars), 6)
        for chi in chars:
            total = sum(chi.value(x) for x in all_elements(g))
            if not any(chi.coords):
                self.assertAlmostEqual(abs(total - 6), 0, places=9)
            else:
                self.assertAlmostEqual(abs(total), 0, places=9)

    def test_subgroup_character_angle(self):
        g = FiniteAbelianGroup((6,))
        h = subgroup_generated(g, [g.element((2,))])
        chars = characters_of(h)
        self.assertEqual(len(chars), 3)
        angles = sorted(chi.angle(g.element((2,))) for chi in chars)
        self.assertEqual(angles, [Fraction(0), Fraction(1, 3), Fraction(2, 3)])

    def test_character_multiplicativity(self):
        g = FiniteAbelianGroup((2, 8))
        chars = characters_of(full_subgroup(g))
        self.assertEqual(len(chars), 16)
        rng = random.Random(3)
        elems = list(all_elements(g))
        some = rng.sample(list(chars), 5)
        for chi in some:
            for _ in range(10):
                x, y = rng.choice(elems), rng.choice(elems)
                lhs = chi.angle(op_mul(x, y))
                rhs = (chi.angle(x) + chi.angle(y)) % 1
                self.assertEqual(lhs, rhs)


def filter_sum(g, h, x):
    """Sum at x of the characters of G that are trivial on H, rounded."""
    quotient = [
        chi for chi in characters_of(full_subgroup(g))
        if all(chi.angle(y) == 0 for y in h.generators)
    ]
    assert len(quotient) == h.index
    total = sum(chi.value(x) for chi in quotient)
    assert abs(total.imag) < 1e-9 and abs(total.real - round(total.real)) < 1e-9
    return round(total.real)


class FilterSumTest(unittest.TestCase):
    """Quotient characters sum to [G:H] on H and to 0 off it."""

    def test_documented_values(self):
        g = FiniteAbelianGroup((6,))
        h = subgroup_generated(g, [g.element((2,))])
        self.assertEqual(filter_sum(g, h, g.element((2,))), 2)
        self.assertEqual(filter_sum(g, h, g.element((1,))), 0)
        self.assertEqual(filter_sum(g, h, g.identity), 2)

    def test_bracket_identity_exhaustive(self):
        g = FiniteAbelianGroup((2, 12))
        h = subgroup_generated(g, [g.element((0, 3)), g.element((1, 0))])
        for x in all_elements(g):
            want = h.index if x in h else 0
            self.assertEqual(filter_sum(g, h, x), want)


class GroupFileTest(unittest.TestCase):
    GOOD = """\
# a small test group
invariants: 2 4
subgroup H: 1,2 0,2
"""

    def test_parse_good(self):
        gf = parse_group_text(self.GOOD)
        self.assertEqual(gf.group.invariants, (2, 4))
        self.assertEqual(len(gf.generators), 1)
        h = subgroup_generated(gf.group, gf.generators["H"])
        self.assertEqual(h.order, 4)

    def test_bad_line_reported(self):
        bad = "invariants: 2 4\nsubgroup H: 1\n"  # wrong arity
        with self.assertRaises(GroupFileError) as ctx:
            parse_group_text(bad)
        self.assertEqual(ctx.exception.line, 2)
        self.assertIn("line 2", str(ctx.exception))

    def test_missing_invariants(self):
        with self.assertRaises(GroupFileError):
            parse_group_text("subgroup H: 1\n")

    def test_non_chain_invariants(self):
        with self.assertRaises(GroupFileError) as ctx:
            parse_group_text("invariants: 4 2\n")
        self.assertEqual(ctx.exception.line, 1)


if __name__ == "__main__":
    unittest.main()
