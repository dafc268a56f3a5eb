import math
import random
import tracemalloc

import numpy as np
import pytest
from scipy.special import expi

from isocayley import abelian
from isocayley.abelian import (
    FiniteAbelianGroup,
    characters_of,
    full_subgroup,
    op_inv,
    op_mul,
    parse_group_text,
    subgroup_generated,
)
from isocayley.cayley import (
    SCAN_CSV_HEADER,
    build,
    component_of,
    expansion,
    find_expander_bound,
    log_integral,
    scan_table_csv,
    spectrum_by_characters,
    to_dot,
    to_json_adjacency,
)
from isocayley.errors import InputError, PreconditionError
from isocayley.ntheory import primes_below
from isocayley.quadform import class_group, generating_multiset
from isocayley.walks import mixing_length


def connected_components(graph):
    """Component count, one component_of search per component."""
    seen = np.zeros(graph.order, dtype=bool)
    count = 0
    while not seen.all():
        seen |= component_of(graph, int(seen.argmin()))
        count += 1
    return count


def cyclic(n):
    g = FiniteAbelianGroup((n,))
    return g, full_subgroup(g)


def pair_gens(group, *values):
    """Labeled generator list with inverses appended where needed."""
    gens = []
    for v in values:
        e = group.element(v)
        gens.append((str(v), e))
        if op_inv(e) != e:
            gens.append((f"{v}^-1", op_inv(e)))
    return gens


def random_graph(rng):
    choices = [(2,), (4,), (6,), (2, 4), (3, 9), (12,), (2, 2, 4), (16,), (5,)]
    inv = rng.choice(choices)
    group = FiniteAbelianGroup(inv)
    h = full_subgroup(group)
    gens = []
    for _ in range(rng.randint(1, 3)):
        coords = tuple(rng.randrange(d) for d in inv)
        gens += pair_gens(group, coords)
    if rng.random() < 0.3:
        gens.append(("e", group.identity))
        gens.append(("e", group.identity))
    return build(h, gens)


class TestBuild:
    def test_triangle(self, adjacency):
        g, h = cyclic(3)
        tri = build(h, [("1", g.element((1,))), ("2", g.element((2,)))])
        assert tri.order == 3 and tri.degree == 2
        a = adjacency(tri)
        assert (a == np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])).all()

    def test_double_identity_gives_two_loops(self, adjacency):
        g, h = cyclic(3)
        loops = build(h, [("e", g.identity), ("e", g.identity)])
        a = adjacency(loops)
        assert (a == 2 * np.eye(3, dtype=int)).all()

    def test_class_group_three_cycle(self):
        cg = class_group(-23)
        h = full_subgroup(cg.group)
        s = generating_multiset(cg, 3, h)
        cay = build(h, [(x.label, x.element) for x in s])
        assert cay.degree == 2 and cay.order == 3
        assert connected_components(cay) == 1

    def test_generator_outside_subgroup(self):
        g = FiniteAbelianGroup((4,))
        h = subgroup_generated(g, [g.element((2,))])
        with pytest.raises(InputError):
            build(h, [("1", g.element((1,))), ("3", g.element((3,)))])

    def test_not_inversion_closed(self):
        g, h = cyclic(5)
        with pytest.raises(InputError):
            build(h, [("1", g.element((1,)))])

    def test_step_table_matches_group_products(self):
        rng = random.Random(5)
        graphs = [random_graph(rng) for _ in range(20)]
        g = FiniteAbelianGroup((4, 12))
        h = subgroup_generated(g, [g.element((1, 2)), g.element((0, 3))])
        graphs.append(build(h, pair_gens(g, (1, 2), (0, 3))))
        trivial = FiniteAbelianGroup(())
        graphs.append(build(full_subgroup(trivial), [("e", trivial.identity)]))
        for graph in graphs:
            for j, (_, s) in enumerate(graph.generators):
                for i, v in enumerate(graph.vertices):
                    assert graph.step_table[j, i] == graph.vertex_index(op_mul(s, v))

    def test_ambient_order_beyond_int64_codes_rejected(self):
        g = FiniteAbelianGroup((2**32, 2**32))
        with pytest.raises(PreconditionError):
            h = subgroup_generated(g, [g.element((2**31, 0))])
            build(h, pair_gens(g, (2**31, 0)))

    def test_inverse_slot_is_a_correct_involution(self):
        rng = random.Random(77)
        for _ in range(20):
            graph = random_graph(rng)
            pairing = graph.inverse_slot
            for j, (_, s) in enumerate(graph.generators):
                assert pairing[pairing[j]] == j
                assert graph.generators[pairing[j]][1] == op_inv(s)


class TestSpectrum:
    def test_triangle_values(self, numeric_spectrum):
        g, h = cyclic(3)
        tri = build(h, [("1", g.element((1,))), ("2", g.element((2,)))])
        spec = spectrum_by_characters(tri)
        assert spec.lambda_triv == pytest.approx(2.0, abs=1e-12)
        assert sorted(spec.sorted_values()) == pytest.approx([-1.0, -1.0, 2.0], abs=1e-9)
        assert numeric_spectrum(tri) == pytest.approx([2.0, -1.0, -1.0], abs=1e-9)

    def test_z4_values(self):
        g, h = cyclic(4)
        c4 = build(h, [("1", g.element((1,))), ("3", g.element((3,)))])
        assert spectrum_by_characters(c4).sorted_values() == pytest.approx(
            [2.0, 0.0, 0.0, -2.0], abs=1e-9
        )

    def test_char_vs_numeric_random(self, numeric_spectrum):
        rng = random.Random(20260815)
        for _ in range(50):
            graph = random_graph(rng)
            if graph.order > 512:
                continue
            exact = spectrum_by_characters(graph).sorted_values()
            numeric = numeric_spectrum(graph)
            assert len(exact) == graph.order
            assert exact == pytest.approx(numeric, abs=1e-9)

    def test_trace_identity(self):
        rng = random.Random(4)
        for _ in range(25):
            graph = random_graph(rng)
            spec = spectrum_by_characters(graph)
            loops = sum(1 for _, s in graph.generators if not any(s.coords))
            total = sum(spec.eigenvalues)
            assert abs(total - graph.order * loops) < 1e-6

    def test_trivial_multiplicity_counts_components(self):
        g, h = cyclic(4)
        dis = build(h, pair_gens(g, (2,)))
        spec = spectrum_by_characters(dis)
        mult = sum(1 for lam in spec.eigenvalues if abs(lam - spec.lambda_triv) < 1e-9)
        assert mult == connected_components(dis) == 2

    def test_no_character_objects(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Character was built")

        g = FiniteAbelianGroup((4, 12))
        graph = build(full_subgroup(g), pair_gens(g, (1, 0), (0, 1), (1, 1)))
        monkeypatch.setattr(abelian.Character, "__init__", refuse)
        spec = spectrum_by_characters(graph)
        assert expansion(spec)[2] == spec.c
        assert mixing_length(graph, 1) >= 1

    def test_memory_of_an_order_62500_group_file_graph(self):
        # the (h, 4) angle table, one complex sum and one float per
        # character: about 6 MiB
        grp = parse_group_text("invariants: 250 250\n").group
        gens = pair_gens(grp, (1, 0), (0, 1))
        graph = build(subgroup_generated(grp, [e for _, e in gens]), gens)
        tracemalloc.start()
        try:
            expansion(spectrum_by_characters(graph))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak / 2**20

    def test_memory_of_building_an_order_62500_group_file_graph(self):
        # coordinate arrays, codes, the 4 x 62,500 step table and the vertex
        # names: about 9 MiB
        grp = parse_group_text("invariants: 250 250\n").group
        gens = pair_gens(grp, (1, 0), (0, 1))
        tracemalloc.start()
        try:
            graph = build(subgroup_generated(grp, [e for _, e in gens]), gens)
            assert graph.step_table.shape == (4, 62500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak / 2**20


class TestExpansion:
    def test_triangle(self):
        g, h = cyclic(3)
        tri = build(h, [("1", g.element((1,))), ("2", g.element((2,)))])
        d1, d2, c = expansion(spectrum_by_characters(tri))
        assert c == pytest.approx(1.0, abs=1e-9)
        assert d2 == pytest.approx(0.5, abs=1e-9)
        assert d1 == pytest.approx(1.5, abs=1e-9)

    def test_bipartite_z2(self):
        g, h = cyclic(2)
        k2 = build(h, [("1", g.element((1,)))])
        d1, d2, c = expansion(spectrum_by_characters(k2))
        assert d2 == pytest.approx(0.0, abs=1e-12)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_empty_generators(self):
        g, h = cyclic(3)
        empty = build(h, [])
        with pytest.raises(PreconditionError):
            expansion(spectrum_by_characters(empty))


def li_series(x):
    # Li(x) = gamma + ln ln x + sum_k (ln x)^k / (k * k!), independent oracle
    gamma = 0.5772156649015329
    def entire(y):
        ly = math.log(y)
        total, term = 0.0, 1.0
        for k in range(1, 200):
            term *= ly / k
            total += term / k
            if abs(term / k) < 1e-16:
                break
        return gamma + math.log(ly) + total
    return entire(x) - entire(2.0)


class TestPrediction:
    def test_li_against_series(self):
        for b in (2.5, 3, 10, 100, 1000, 9973):
            assert log_integral(b) == pytest.approx(li_series(b), abs=1e-6)

    def test_li_matches_scipy_on_the_scan_grid(self):
        # the B-scan evaluates li at B = p + 1 and writes li/index to 12
        # digits; where the series and scipy differ in the last bit, those
        # digits must still agree for every index up to 2000
        mismatched = 0
        for p in primes_below(10**5):
            b = p + 1
            ours = log_integral(b)
            ref = float(expi(math.log(b)) - expi(math.log(2.0)))
            if ours != ref:
                mismatched += 1
                for index in range(1, 2001):
                    assert f"{ours / index:.12g}" == f"{ref / index:.12g}", (b, index)
        assert mismatched < 10

    def test_li_documented_value(self):
        assert log_integral(100) == pytest.approx(29.081, abs=5e-4)

    def test_li_at_two(self):
        assert log_integral(2) == 0.0

    def test_prediction_terms(self):
        # every scan row's two estimate columns: li(B)/index for the trivial
        # character, and the envelope n sqrt(B) ln(B d_K Nfm) with n = 2
        for d, d_k, nfm, power, index in [(-23, 23, 1, 1, 1), (-92, 23, 4, 1, 1),
                                          (-1760, 440, 4, 2, 8)]:
            cg = class_group(d)
            sub = subgroup_of_powers(cg, power)
            assert sub.index == index
            _, rows = find_expander_bound(cg, sub, 0.0, 120)
            assert [r.b for r in rows] == [p + 1 for p in primes_below(120)]
            for r in rows:
                assert r.li_over_index == log_integral(r.b) / index
                assert r.error_envelope == 2 * math.sqrt(r.b) * math.log(r.b * d_k * nfm)
                if r.b == 98:  # one row against scipy's Ei
                    li = expi(math.log(98)) - expi(math.log(2))
                    assert r.li_over_index == pytest.approx(li / index)


def subgroup_of_powers(cg, power):
    """The class group's subgroup of power-th powers (all of it for power 1)."""
    if power == 1:
        return full_subgroup(cg.group)
    powers = [x.group.element([power * c for c in x.coords]) for x in cg.group.generators()]
    sub = subgroup_generated(cg.group, powers)
    assert sub.index > 1
    return sub


def reference_eigenvalues(graph):
    """lambda_chi summed from Character.value over the slots, in slot order."""
    out = []
    for chi in characters_of(graph.subgroup):
        total = 0j
        for _, s in graph.generators:
            total += chi.value(s)
        out.append(total.real)
    return out


def reference_scan(cg, sub, b_max):
    """(B, k, c, delta2) per grid point, by Character.value as primes enter."""
    s_all = generating_multiset(cg, b_max, sub)
    chars = characters_of(sub)
    acc = [0j] * len(chars)
    k = 0
    rows = []
    for p in primes_below(b_max):
        for g in (g for g in s_all if g.ell == p):
            k += 1
            for i, chi in enumerate(chars):
                acc[i] += chi.value(g.element)
        c = 0.0
        for chi, a in zip(chars, acc):
            if k and any(chi.coords):
                c = max(c, abs(a.real))
        rows.append((p + 1, k, c, 1.0 - c / k if k else 0.0))
    return rows


class TestCharacterSums:
    """The angle-table sums are the very floats Character.value sums give."""

    def test_random_groups_and_subgroups(self):
        rng = random.Random(2024)
        for _ in range(60):
            inv = [rng.choice((1, 2, 3, 4, 5))]
            for _ in range(rng.randint(0, 3)):
                inv.append(inv[-1] * rng.choice((1, 1, 2, 3)))
            group = FiniteAbelianGroup(tuple(inv))
            some = [group.element([rng.randrange(d) for d in group.invariants])
                    for _ in range(rng.randint(0, 3))]
            sub = subgroup_generated(group, some)
            gens = []
            for _ in range(rng.randint(1, 4)):
                e = rng.choice(sub.elements)
                gens += [(str(e.coords), e), (f"{e.coords}^-1", op_inv(e))]
            gens += gens[: 2 * rng.randint(0, len(gens) // 2)]  # repeated pairs
            graph = build(sub, gens)
            spec = spectrum_by_characters(graph)
            ref = reference_eigenvalues(graph)
            assert list(spec.eigenvalues) == ref
            assert spec.lambda_triv == ref[0] == len(gens)
            assert spec.c == max(map(abs, ref[1:]), default=0.0)

    def test_trivial_subgroup(self):
        group = FiniteAbelianGroup((2, 6))
        triv = subgroup_generated(group, [])
        graph = build(triv, [("e", group.identity)] * 3)
        spec = spectrum_by_characters(graph)
        assert list(spec.eigenvalues) == reference_eigenvalues(graph) == [3.0]
        assert spec.c == 0.0

    @pytest.mark.parametrize("d, b_max, power", [(-1760, 300, 1), (-1760, 400, 2), (-9999960, 60, 1)])
    def test_scan_matches_reference_loop(self, d, b_max, power):
        cg = class_group(d)
        assert cg.group.rank >= 3
        sub = subgroup_of_powers(cg, power)
        _, rows = find_expander_bound(cg, sub, 0.0, b_max)
        assert [(r.b, r.lambda_triv, r.c, r.delta2) for r in rows] == reference_scan(cg, sub, b_max)

    @pytest.mark.parametrize("d, b_max, power", [(-23, 50, 1), (-47, 284, 1), (-1760, 264, 1),
                                                 (-1760, 402, 2), (-9999960, 60, 1)])
    def test_last_scan_row_is_the_spectrum(self, d, b_max, power):
        # the scan's last cut sums all of S_B, which is the graph's generating set
        cg = class_group(d)
        sub = subgroup_of_powers(cg, power)
        s_b = generating_multiset(cg, b_max, sub)
        assert s_b[-1].ell == primes_below(b_max)[-1]  # the last prime adds forms
        spec = spectrum_by_characters(build(sub, [(g.label, g.element) for g in s_b]))
        _, rows = find_expander_bound(cg, sub, 0.0, b_max)
        assert rows[-1].lambda_triv == spec.lambda_triv == len(s_b)
        assert rows[-1].c == spec.c


class TestExpanderScan:
    def test_documented_bound(self):
        cg = class_group(-23)
        h = full_subgroup(cg.group)
        b, rows = find_expander_bound(cg, h, 0.4, 50)
        assert b == 3
        assert rows[0].b == 3 and rows[0].lambda_triv == 2
        assert rows[0].delta2 == pytest.approx(0.5, abs=1e-9)

    def test_stricter_delta_needs_larger_bound(self):
        cg = class_group(-23)
        h = full_subgroup(cg.group)
        b4, _ = find_expander_bound(cg, h, 0.4, 200)
        b6, rows = find_expander_bound(cg, h, 0.6, 200)
        assert b6 > b4
        # the first row at or past b6 on the grid must clear the target
        hit = next(r for r in rows if r.b == b6)
        assert hit.delta2 >= 0.6
        for r in rows:
            if r.b < b6 and r.lambda_triv > 0:
                assert r.delta2 < 0.6

    def test_scan_rows_consistent(self):
        cg = class_group(-47)
        h = full_subgroup(cg.group)
        _, rows = find_expander_bound(cg, h, 0.1, 300)
        for r in rows:
            assert r.b >= 3
            if r.lambda_triv:
                assert r.delta2 == pytest.approx(1 - r.c / r.lambda_triv, abs=1e-12)
            assert r.li_over_index == pytest.approx(log_integral(r.b), abs=1e-7)
            assert r.error_envelope > 0

    def test_trivial_subgroup_vacuous(self):
        cg = class_group(-23)
        triv = subgroup_generated(cg.group, [])
        assert find_expander_bound(cg, triv, 0.9, 10) == (2, [])

    def test_subgroup_not_generated(self):
        cg = class_group(-479)
        h5 = subgroup_generated(cg.group, [cg.group.element((5,))])
        with pytest.raises(PreconditionError):
            find_expander_bound(cg, h5, 0.1, 60)  # no prime forms below 60 in C5

    def test_unreachable_delta(self):
        cg = class_group(-23)
        with pytest.raises(PreconditionError):
            find_expander_bound(cg, full_subgroup(cg.group), 0.99, 30)

    def test_csv_shape(self):
        cg = class_group(-23)
        _, rows = find_expander_bound(cg, full_subgroup(cg.group), 0.4, 60)
        text = scan_table_csv(rows)
        lines = text.splitlines()
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) == len(rows) + 1
        assert all(len(line.split(",")) == 6 for line in lines[1:])


class TestExports:
    def test_dot_deterministic_and_complete(self):
        g, h = cyclic(4)
        c4 = build(h, [("1", g.element((1,))), ("3", g.element((3,)))])
        dot = to_dot(c4, title="c4")
        assert dot == to_dot(c4, title="c4")
        edge_lines = [l for l in dot.splitlines() if "--" in l]
        assert len(edge_lines) == 4  # 4-cycle
        assert dot.startswith('graph "c4" {')

    def test_dot_names(self):
        cg = class_group(-23)
        h = full_subgroup(cg.group)
        s = generating_multiset(cg, 3, h)
        gens = [(x.label, x.element) for x in s]
        names = [str(cg.class_of(v)) for v in h]
        dot = to_dot(build(h, gens, names))
        assert "(1, 1, 6)" in dot
        with pytest.raises(InputError):
            build(h, gens, ["just-one"])
        with pytest.raises(InputError):
            build(h, gens, ["same"] * 3)

    def test_json_adjacency(self):
        g, h = cyclic(3)
        tri = build(h, [("1", g.element((1,))), ("2", g.element((2,)))])
        data = to_json_adjacency(tri)
        assert data["order"] == 3 and data["degree"] == 2
        rows = data["adjacency"]
        assert rows.labels == ("1", "2") and rows.table[:, 0].tolist() == [1, 2]
        # labeled slots at each vertex exactly k
        assert len(rows) == 3 and rows.table.shape == (2, 3)
