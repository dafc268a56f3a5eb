"""Ordinary isogeny graphs: construction, the class-group comparison, and DLP transfer."""

import hashlib
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
import sympy

from isocayley import ecgraph as eg
from isocayley import pathfind, quadform
from isocayley.abelian import subgroup_generated
from isocayley.ntheory import fundamental_discriminant
from isocayley.errors import (
    InputError,
    InternalConsistencyError,
    PreconditionError,
)


@lru_cache(maxsize=None)
def graph(p, t, ells):
    return eg.build_isogeny_graph(p, t, list(ells))


# ---------------------------------------------------------------- counting


def naive_count(p, a, b):
    n = 1  # infinity
    squares = {(y * y) % p for y in range(p)}
    for xv in range(p):
        rhs = (xv * xv * xv + a * xv + b) % p
        if rhs == 0:
            n += 1
        elif rhs in squares:
            n += 2
    return n


def test_point_count_brute_force_f7():
    c = eg.curve(7, 1, 1)
    assert c.order == naive_count(7, 1, 1) == 5
    assert c.t == 3
    assert c.ordinary


def test_point_count_all_models_f5():
    for a in range(5):
        for b in range(5):
            if (4 * a**3 + 27 * b**2) % 5 == 0:
                with pytest.raises(InputError):
                    eg.curve(5, a, b)
                continue
            c = eg.curve(5, a, b)
            assert c.order == naive_count(5, a, b)
            assert abs(c.t) ** 2 <= 4 * 5


def test_point_count_near_the_field_cap():
    """Large residues, a = b = p - 1 among them, against Euler's criterion."""
    p = 9973
    for a, b in [(1, 1), (p - 1, p - 1), (0, 7), (4321, 1234)]:
        legendre = 0
        for xv in range(p):
            s = pow((xv**3 + a * xv + b) % p, (p - 1) // 2, p)
            legendre += -1 if s == p - 1 else s
        assert eg._count(p, a, b) == (p + 1 + legendre, -legendre)


def test_supersingular_flagged():
    c = eg.curve(3, 1, 0)  # trace 0 over F_3
    assert not c.ordinary


def test_field_validation():
    with pytest.raises(InputError):
        eg.curve(4, 1, 1)
    with pytest.raises(InputError):
        eg.curve(2, 1, 1)
    with pytest.raises(PreconditionError):
        eg.curve(10007, 1, 1)  # just past the supported field size


def test_curve_with_j_round_trip():
    for j in [0, 1728 % 31, 5, 12, 20]:
        a, b = eg.curve_with_j(31, j)
        assert eg.curve(31, a, b).j == j % 31


# ------------------------------------------------- isogeny class enumeration


def test_enumerate_verified_classes():
    assert sorted(eg.enumerate_isogeny_class(31, 3)) == [8, 27]
    assert sorted(eg.enumerate_isogeny_class(31, 1)) == [10, 24]
    for j in eg.enumerate_isogeny_class(31, 3):
        c = eg._twist_with_trace(31, j, 3)
        assert c.t == 3 and c.ordinary and c.j == j


def test_enumerate_rejects_non_fundamental():
    with pytest.raises(PreconditionError) as ei:
        eg.enumerate_isogeny_class(13, 4)  # 16 - 52 = -36 = 3^2 * (-4)
    assert "conductor" in str(ei.value)


def test_enumerate_rejects_supersingular_and_hasse():
    with pytest.raises(PreconditionError):
        eg.enumerate_isogeny_class(7, 0)
    with pytest.raises(PreconditionError):
        eg.enumerate_isogeny_class(7, 8)


@pytest.mark.parametrize(
    "p,t,h",
    [(31, 3, 2), (31, 1, 2), (23, 3, 3), (41, 3, 4), (101, 3, 8)],
)
def test_class_size_equals_class_number(p, t, h):
    d = t * t - 4 * p
    assert len(eg.enumerate_isogeny_class(p, t)) == h
    assert quadform.class_group(d).order == h


def full_fiber_traces(p):
    """{(j, t)} over every nonsingular model y^2 = x^3 + ax + b over F_p.

    Counts all p^2 models, so no twist theory (quadratic, quartic or
    sextic) is assumed: every fiber is scanned in full.
    """
    xs = np.arange(p)
    legendre = np.full(p, -1)
    legendre[xs * xs % p] = 1
    legendre[0] = 0
    inverse = np.array([pow(int(v), -1, p) if v else 0 for v in xs])
    a, b = np.meshgrid(xs, xs, indexing="ij")
    four_a3 = 4 * a**3 % p
    disc = (four_a3 + 27 * b * b) % p
    traces = np.empty((p, p), dtype=np.int64)
    for ai in range(p):
        rhs = (xs**3 + ai * xs)[None, :] + xs[:, None]  # rows are b
        traces[ai] = -legendre[rhs % p].sum(axis=1)
    js = 1728 * four_a3 % p * inverse[disc] % p
    ok = disc != 0
    return set(zip(js[ok].tolist(), traces[ok].tolist()))


def fundamental_traces(p):
    for t in range(-isqrt(4 * p), isqrt(4 * p) + 1):
        d = t * t - 4 * p
        if t % p and d < 0 and fundamental_discriminant(d)[1] == 1:
            yield t


def test_enumeration_matches_full_fiber_scan():
    """Every class with p < 200, including the D = -3 and D = -4 classes
    whose j = 0 and j = 1728 fibers the enumeration alone scans."""
    checked = set()
    for p in sympy.primerange(5, 200):
        pairs = full_fiber_traces(p)
        for t in fundamental_traces(p):
            want = sorted(j for j in range(p) if (j, t) in pairs)
            assert eg.enumerate_isogeny_class(p, t) == want, (p, t)
            checked.add((p, t))
    assert len(checked) == 964
    assert (7, 5) in checked and eg.enumerate_isogeny_class(7, 5) == [0]
    assert (5, 4) in checked and eg.enumerate_isogeny_class(5, 4) == [1728 % 5]


# ---------------------------------------------------------- division polys


def rational_torsion_x(p, a, b, m):
    xs = set()
    for xv in range(p):
        for yv in range(p):
            if (yv * yv - xv**3 - a * xv - b) % p:
                continue
            pt, q, k = (xv, yv), (xv, yv), 1
            while q is not None and k < m:
                q = eg.ec_add(q, pt, a, p)
                k += 1
            if q is None and m % k == 0:
                xs.add(xv)
    return xs


@pytest.mark.parametrize("m", [3, 5, 7])
def test_division_poly_roots_are_torsion(m):
    # Roots of the m-th division polynomial over F_p are the x-coordinates of
    # m-division points.  Those whose y lives upstairs appear as rational
    # torsion on the quadratic twist at x' = d * x, which completes the oracle.
    p, a, b = 31, 1, 3
    d = eg._non_residue(p)
    w = eg.division_polys(p, [a], [b], m)[m][0]
    assert len(w) - 1 == (m * m - 1) // 2

    def value(xv):  # w(xv) mod p by Horner
        acc = 0
        for c in reversed(w.tolist()):
            acc = (acc * xv + c) % p
        return acc

    roots = {xv for xv in range(p) if value(xv) == 0}
    here = rational_torsion_x(p, a, b, m)
    upstairs = rational_torsion_x(p, a * d * d % p, b * pow(d, 3, p), m)
    assert roots == here | {xv for xv in range(p) if (d * xv) % p in upstairs}


def test_division_poly_leading_coefficients():
    ws = eg.division_polys(11, [2], [3], 6)
    assert int(ws[5][0, -1]) == 5
    assert int(ws[6][0, -1]) == 6


# ----------------------------------------------------------- single isogeny


def test_edge_count_follows_kronecker():
    checked = 0
    for p, t in [(31, 3), (31, 1), (23, 3), (37, 3), (41, 3)]:
        d = t * t - 4 * p
        j = eg.enumerate_isogeny_class(p, t)[0]
        c = eg._twist_with_trace(p, j, t)
        for ell in (3, 5, 7):
            if ell == p:
                continue
            edges = eg.rational_l_isogenies(c, ell)
            assert len(edges) == 1 + sympy.jacobi_symbol(d, ell)
            checked += 1
    assert checked >= 12


def test_kernel_divides_division_poly():
    from isocayley import fppoly as fp

    cc = eg._twist_with_trace(31, 8, 3)
    w = eg.division_polys(cc.p, [cc.a], [cc.b], 7)[7][0]
    for edge in eg.rational_l_isogenies(cc, 7):
        k = np.array(edge.kernel, dtype=np.int64)
        assert len(k) - 1 == 3  # (ell - 1) / 2
        _, r = fp.poly_divmod(fp.make_monic(w, 31), k, 31)
        assert len(r) == 0


def test_velu_codomain_trace_preserved():
    cc = eg._twist_with_trace(31, 8, 3)
    for edge in eg.rational_l_isogenies(cc, 7):
        ca, cb = edge.velu_model
        assert eg.curve(31, ca, cb).t == 3


def test_isogeny_rejects_bad_degree():
    c = eg._twist_with_trace(31, 8, 3)
    with pytest.raises(PreconditionError) as ei:
        eg.rational_l_isogenies(c, 2)
    assert "odd prime" in str(ei.value)
    with pytest.raises(PreconditionError) as ei:
        eg.rational_l_isogenies(c, 31)
    assert "characteristic" in str(ei.value)
    with pytest.raises(PreconditionError):
        eg.rational_l_isogenies(c, 9)
    with pytest.raises(PreconditionError) as ei:
        eg.rational_l_isogenies(c, 37)
    assert "cap" in str(ei.value)


# ------------------------------------------------------------- whole graphs


def test_graph_31_3_shape():
    g = graph(31, 3, (7,))
    assert g.order == 2
    assert sorted(g.vertices) == [8, 27]
    assert g.degree == 2
    # Frobenius satisfies z^2 - 3z + 31 = (z - 4)(z - 6) mod 7
    assert [lbl for lbl, _ in g.generators] == ["7:4", "7:6"]
    # each vertex has one out-edge per slot and the slots invert each other
    assert list(g.inverse_slot) == [1, 0]
    tbl = g.step_table
    for v in range(2):
        for s in range(2):
            assert tbl[g.inverse_slot[s], tbl[s, v]] == v


def test_graph_ramified_prime_gives_single_slot():
    g = graph(31, 3, (5,))  # -115 = -5 * 23, so 5 ramifies
    assert [lbl for lbl, _ in g.generators] == ["5"]
    assert list(g.inverse_slot) == [0]
    assert [(e.source_j, e.target_j, e.ell) for e in g.edges] == [
        (8, 27, 5),
        (27, 8, 5),
    ]


def test_graph_inert_prime_is_edgeless():
    g = graph(31, 3, (11,))
    assert g.order == 2 and g.degree == 0 and g.edges == []


@pytest.mark.parametrize(
    "p, error, message",
    [
        (3, InputError, "p >= 5"),
        (-7, InputError, "odd prime"),
        (9, InputError, "odd prime"),
        (10007, PreconditionError, "cap"),
    ],
)
def test_graph_checks_the_field_first(p, error, message):
    with pytest.raises(error) as ei:
        eg.build_isogeny_graph(p, 1, (5,))
    assert message in str(ei.value)


def test_graph_empty_ell_list():
    g = graph(31, 3, ())
    assert g.degree == 0 and g.order == 2


def test_graph_dual_symmetry():
    g = graph(101, 3, (3, 7))
    fwd = sorted((e.source_j, e.target_j, e.ell) for e in g.edges)
    rev = sorted((e.target_j, e.source_j, e.ell) for e in g.edges)
    assert fwd == rev


def test_adjacency_is_symmetric():
    mat = graph(101, 3, (3, 7)).adjacency()
    assert np.array_equal(mat, mat.T)


# the (p, t) instances of acceptance criterion 7
CRITERION_7 = [
    (31, 3), (31, 1), (23, 3), (23, 1), (37, 3), (41, 3), (43, 3),
    (47, 1), (53, 5), (59, 5), (61, 7), (71, 5), (83, 5), (101, 3),
]


@pytest.mark.parametrize("p, t", CRITERION_7)
def test_adjacency_counts_the_edge_list(p, t):
    # the step table yields adjacency(); every isogeny edge must fill one slot
    g = graph(p, t, tuple(ell for ell in (3, 5, 7, 11, 13) if ell != p))
    mat = np.zeros((g.order, g.order), dtype=np.int64)
    for e in g.edges:
        mat[g.vertex_index(e.source_j), g.vertex_index(e.target_j)] += 1
    assert np.array_equal(g.adjacency(), mat)


def test_psi_search_finds_exactly_the_frobenius_eigenvalues():
    """Searching every lam in F_ell^* on every criterion-7 curve finds a
    kernel exactly for the roots of x^2 - t x + p mod ell, so none for an
    inert ell.  Every rational kernel is a Frobenius eigenspace for some
    lam, so this checks the degree law that rational_l_isogenies assumes."""
    searches = kernels = 0
    cases = set()
    for p, t in CRITERION_7:
        curves = [eg._twist_with_trace(p, j, t) for j in eg.enumerate_isogeny_class(p, t)]
        for ell in (3, 5, 7, 11, 13):
            if ell == p:
                continue
            roots = [z for z in range(1, ell) if (z * z - t * z + p) % ell == 0]
            found = eg._psi_kernel_search(curves, ell, range(1, ell))
            assert len(found) == len(curves)
            for c, edges in zip(curves, found):
                assert [e.eigenvalue for e in edges] == roots, (p, t, c.j, ell)
                assert all(e.source_j == c.j for e in edges)
                assert all(len(e.kernel) == (ell + 1) // 2 for e in edges)
                searches += 1
                kernels += len(edges)
            for lam in roots:
                m = min(lam, ell - lam)
                cases.add("lam = +-1" if m == 1 else ("odd m > 1" if m % 2 else "even m"))
            if len(roots) == 1:
                cases.add("ramified")
            if len(roots) == 2 and t % ell == 0:
                cases.add("split, t = 0 mod ell")
    assert cases == {"lam = +-1", "odd m > 1", "even m", "ramified", "split, t = 0 mod ell"}
    assert (searches, kernels) == (215, 236)


@pytest.mark.parametrize("p, t, ell", [(41, 3, 3), (41, 5, 5), (41, 7, 7), (41, 5, 7)])
def test_y_condition_exactly_when_ell_divides_the_trace(monkeypatch, p, t, ell):
    """The x-condition alone holds on the eigenspaces of lam and -lam, and
    -lam is an eigenvalue too exactly when t = 0 (mod ell).  Then each kernel
    needs the y-condition, and its f^((p-1)/2) is the search's second
    poly_powmod; otherwise x^p is the only one.  Both are taken once per
    stack of curves, whatever its size."""
    powmods = []
    powmod = eg.fp.poly_powmod
    monkeypatch.setattr(eg.fp, "poly_powmod", lambda *a: powmods.append(len(a[0])) or powmod(*a))
    divides = t % ell == 0
    curves = [eg._twist_with_trace(p, j, t) for j in eg.enumerate_isogeny_class(p, t)]
    roots = [z for z in range(1, ell) if (z * z - t * z + p) % ell == 0]
    assert len(roots) == 2 and len(curves) > 1
    for stack in (curves, curves[:1]):
        powmods.clear()
        found = eg._psi_kernel_search(stack, ell, roots)
        assert powmods == [len(stack)] * (2 if divides else 1)
        assert len(found) == len(stack)
        for edges in found:
            assert [e.eigenvalue for e in edges] == roots
            assert all(len(e.kernel) == (ell + 1) // 2 for e in edges)
            assert edges[0].kernel != edges[1].kernel
    assert (roots[0] + roots[1]) % ell == (0 if divides else t % ell)


def test_inert_degree_builds_no_division_polynomial(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("psi_ell built for an inert ell")

    c = eg._twist_with_trace(31, 8, 3)  # 11 is inert for -115
    monkeypatch.setattr(eg, "division_polys", unreachable)
    assert eg.rational_l_isogenies(c, 11) == []


def reference_edges(p, t, ells):
    """rational_l_isogenies from every vertex of the enumerated class."""
    out = []
    for j in eg.enumerate_isogeny_class(p, t):
        c = eg._twist_with_trace(p, j, t)
        for ell in ells:
            out.extend(eg.rational_l_isogenies(c, ell))
    return sorted(
        (e.source_j, e.ell, e.target_j, e.kernel, e.eigenvalue, e.source_model, e.velu_model)
        for e in out
    )


@pytest.mark.parametrize(
    "p, t, ells, generated",
    [
        (67, 2, (3, 11), 4),  # both ramified; h = 8
        (131, 6, (5, 13), 1),  # both inert; h = 10
        (139, 2, (3, 5, 7), 4),  # ramified, inert and split; h = 8
        (67, 2, (3, 5, 7, 11, 13), 8),  # generates Cl(D); h = 8
    ],
)
def test_isogeny_search_reaches_the_enumerated_class(p, t, ells, generated):
    d = t * t - 4 * p
    cl = quadform.class_group(d)
    forms = [quadform.prime_form(d, ell) for ell in ells]
    gens = [cl.element_of(f[0]) for f in forms if f is not None]
    assert subgroup_generated(cl.group, gens).order == generated
    g = eg.build_isogeny_graph(p, t, ells)
    assert list(g.vertices) == eg.enumerate_isogeny_class(p, t)
    assert len(g.vertices) == cl.order
    got = [(e.source_j, e.ell, e.target_j, e.kernel, e.eigenvalue, e.source_model, e.velu_model)
           for e in g.edges]
    assert got == reference_edges(p, t, ells)
    for e in g.edges:
        assert e.target_model == (g.curves[e.target_j].a, g.curves[e.target_j].b)


@pytest.mark.parametrize("entries", [1, 3 * 24**2])
def test_stacks_match_the_per_curve_oracle(monkeypatch, entries):
    """Stacks of one curve, and BFS levels of 4, 8 and 10 curves split into
    stacks of at most 3 at ell = 7 (n = 24), find the edges that
    rational_l_isogenies finds curve by curve."""
    sizes = []
    search = eg._psi_kernel_search

    def recorded(curves, ell, eigenvalues):
        sizes.append((ell, len(curves)))
        return search(curves, ell, eigenvalues)

    monkeypatch.setattr(eg, "_STACK_ENTRIES", entries)
    monkeypatch.setattr(eg, "_psi_kernel_search", recorded)
    g = eg.build_isogeny_graph(2003, 1, (5, 7))
    assert max(k for ell, k in sizes if ell == 7) == (1 if entries == 1 else 3)
    assert len(sizes) > 10  # one search per (level, ell) would be 10
    got = [(e.source_j, e.ell, e.target_j, e.kernel, e.eigenvalue, e.source_model, e.velu_model)
           for e in g.edges]
    assert got == reference_edges(2003, 1, (5, 7))
    assert list(g.vertices) == eg.enumerate_isogeny_class(2003, 1)


def test_stack_memory_stays_within_the_budget():
    """At ell = 29 (n = 420) a stack is one curve, so the search over two
    curves peaks near one reduction table and its transposed copy (2.7 MiB),
    where one stack of both would take 5.5 MiB."""
    import tracemalloc

    curves = [eg._twist_with_trace(113, j, 19) for j in eg.enumerate_isogeny_class(113, 19)]
    assert len(curves) == 2
    tracemalloc.start()
    try:
        found = eg._isogenies_of(curves, 29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(edges) for edges in found] == [2, 2]
    assert peak < 4 * 2**20


def test_isogeny_search_stops_early(monkeypatch):
    calls = []
    count = eg._count

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(eg, "_count", counted)
    g = eg.build_isogeny_graph(2003, 1, (5, 7))
    assert g.order == 25
    assert len(calls) < 2003 // 4


def test_a_twisted_codomain_is_caught(monkeypatch):
    """A kernel search whose Velu codomain were the quadratic twist (trace
    -t, same j) is caught without a recount in build_isogeny_graph, where
    _model_scale finds no F_p-isomorphism to the counted target model, and
    by the recount of rational_l_isogenies, which has no target model."""
    velu = eg.velu_codomain

    def twisted(c, kernel):
        a, b = velu(c, kernel)
        n = eg._non_residue(c.p)
        return a * n * n % c.p, b * pow(n, 3, c.p) % c.p

    monkeypatch.setattr(eg, "velu_codomain", twisted)
    with pytest.raises(InternalConsistencyError, match="not isomorphic"):
        eg.build_isogeny_graph(2003, 1, (5, 7))
    c = eg._twist_with_trace(2003, eg.enumerate_isogeny_class(2003, 1)[0], 1)
    with pytest.raises(InternalConsistencyError, match="recounts to trace -1"):
        eg.rational_l_isogenies(c, 5)


# ------------------------------------------------------------- comparison


def test_compare_pass_on_verified_instances():
    for p, t, ells in [(31, 3, (7,)), (31, 3, (5, 7)), (23, 3, (3, 7)), (101, 3, (3, 7))]:
        rep = eg.compare_to_cayley(graph(p, t, ells))
        assert rep.verdict == "PASS" and rep.failed == ()
        assert rep.spectrum_gap < 1e-9


def test_compare_pass_edgeless():
    rep = eg.compare_to_cayley(graph(43, 3, (3,)))  # h(-163) = 1, 3 inert
    assert rep.verdict == "PASS"
    assert rep.isogeny_order == rep.cayley_order == 1


def test_compare_fail_names_checks():
    from dataclasses import replace

    g = graph(31, 3, (7,))
    # turn every edge into a loop; steps stay consistent but the spectrum
    # becomes {2, 2} instead of {2, -2}
    loops = [replace(e, target_j=e.source_j) for e in g.edges]
    bad = eg.IsogenyGraph(g.p, g.t, g.disc, g.vertices, g.curves, loops, g.ells)
    rep = eg.compare_to_cayley(bad)
    assert rep.verdict == "FAIL"
    assert "spectrum" in rep.failed
    assert eg.comparison_to_json(rep)["verdict"] == "FAIL"


def test_compare_reports_a_broken_degree_law():
    import copy

    g = graph(101, 3, (3, 7))
    # one edge listed twice: the step table, and so the spectrum, is unchanged
    bad = copy.copy(g)
    bad.edges = g.edges + [g.edges[0]]
    rep = eg.compare_to_cayley(bad)
    assert rep.verdict == "FAIL"
    assert rep.failed == ("degrees",)
    assert rep.vertices_ok and rep.spectrum_ok and not rep.degrees_ok


def test_compare_json_serializable():
    import json

    rep = eg.compare_to_cayley(graph(31, 3, (7,)))
    data = json.loads(json.dumps(eg.comparison_to_json(rep)))
    assert data["verdict"] == "PASS"
    assert data["spectrum"]["ok"] is True
    assert data["failed_checks"] == []


# --------------------------------------------------------- point evaluation


def curve_points(c):
    pts = [None]
    for xv in range(c.p):
        for yv in range(c.p):
            if (yv * yv - xv**3 - c.a * xv - c.b) % c.p == 0:
                pts.append((xv, yv))
    return pts


def test_isogeny_eval_kills_kernel_points():
    g = graph(23, 3, (7,))  # group order 21: one 7-kernel is pointwise rational
    v = g.vertices[0]
    kills = {}
    for edge in g.edges:
        if edge.source_j != v:
            continue
        c = eg.curve(23, *edge.source_model)
        assert eg.isogeny_eval(edge, None) is None
        dead = [
            pt
            for pt in curve_points(c)
            if pt is not None and eg.isogeny_eval(edge, pt) is None
        ]
        for pt in dead:
            assert eg.ec_mul(7, pt, c.a, c.p) is None
        kills[edge.eigenvalue] = len(dead)
    # the eigenvalue-1 kernel is the rational one; its twin lives upstairs
    assert sorted(kills.values()) == [0, 6]
    assert kills[1] == 6


def test_isogeny_eval_is_homomorphism():
    g = graph(31, 3, (7,))
    edge = g.edges[0]
    c = eg.curve(31, *edge.source_model)
    ct = eg.curve(31, *edge.target_model)
    pts = [pt for pt in curve_points(c) if pt is not None]
    rng = np.random.default_rng(17)
    for _ in range(100):
        P = pts[rng.integers(len(pts))]
        Q = pts[rng.integers(len(pts))]
        lhs = eg.isogeny_eval(edge, eg.ec_add(P, Q, c.a, c.p))
        rhs = eg.ec_add(
            eg.isogeny_eval(edge, P), eg.isogeny_eval(edge, Q), ct.a, ct.p
        )
        assert lhs == rhs


def test_isogeny_eval_rejects_off_curve():
    g = graph(31, 3, (7,))
    with pytest.raises(InputError):
        eg.isogeny_eval(g.edges[0], (1, 1))


X = sympy.symbols("x")


def velu_by_polynomials(edge):
    """The oracle: Velu's rational map built as polynomials in x over F_p,
    x' = N/h^2 and y' = y (N' h - 2 N h')/h^3, where
    N = x h^2 + (t h' mod h) h + (u h' mod h) h' - (u h' mod h)' h for
    t = 6x^2 + 2a and u = 4f, then evaluated at a point and scaled onto
    the target model."""
    p, (a, b), s = edge.p, edge.source_model, edge.scale

    def poly(expr):
        return sympy.Poly(expr, X, modulus=p)

    h = poly(sum(c * X**i for i, c in enumerate(edge.kernel)))
    hp = h.diff(X)
    t_part = (poly(6 * X**2 + 2 * a) * hp).rem(h)
    u_part = (poly(4 * (X**3 + a * X + b)) * hp).rem(h)
    num = poly(X) * h**2 + t_part * h + u_part * hp - u_part.diff(X) * h
    dnum = num.diff(X)

    def image(point):
        if point is None:
            return None
        x0, y0 = point

        def at(f):
            return int(f.eval(x0)) % p

        hv = at(h)
        if hv == 0:
            return None
        x1 = at(num) * pow(hv * hv, -1, p) % p
        y1 = y0 * (at(dnum) * hv - 2 * at(num) * at(hp)) * pow(hv**3, -1, p) % p
        return s * s * x1 % p, s**3 * y1 % p

    return image


@pytest.mark.parametrize("p, t, ells, killed", [
    (101, 3, (3, 5, 7), 16),  # order 99: every curve has one pointwise-rational 3-kernel
    (131, 6, (3,), 20),  # 3 divides t: the y-condition splits eigenvalue 1 from 2
    (23, 3, (7,), 18),  # order 21: every curve has one pointwise-rational 7-kernel
], ids=["101-3", "131-6-y-condition", "23-3-rational-kernel"])
def test_isogeny_eval_matches_polynomial_velu(p, t, ells, killed):
    """Kohel's closed form agrees with the polynomial map on every affine
    point of every edge, kernel points (None on both sides) included."""
    dead = []
    for edge in graph(p, t, ells).edges:
        oracle = velu_by_polynomials(edge)
        for pt in curve_points(eg.curve(p, *edge.source_model))[1:]:
            got = eg.isogeny_eval(edge, pt)
            assert got == oracle(pt), (edge.ell, edge.source_j, pt)
            if got is None:
                dead.append((edge.ell, pt, edge.source_model[0]))
    assert len(dead) == killed
    assert all(eg.ec_mul(ell, pt, a, p) is None for ell, pt, a in dead)


def test_isogeny_eval_matches_polynomial_velu_at_degrees_29_and_31():
    """At p = 2003 every 29- and 31-edge pushes sampled points through a
    kernel of degree 14 or 15; the closed form agrees with the oracle."""
    p = 2003
    rng = np.random.default_rng(29)
    for edge in graph(p, 1, (29, 31)).edges:
        a, b = edge.source_model
        oracle = velu_by_polynomials(edge)
        seen = 0
        while seen < 4:
            x0 = int(rng.integers(p))
            y0 = eg.sqrt_mod_prime((x0**3 + a * x0 + b) % p, p)
            if y0 is None:
                continue
            assert eg.isogeny_eval(edge, (x0, y0)) == oracle((x0, y0))
            seen += 1


# ------------------------------------------------------------ ec arithmetic


def test_ec_arithmetic_group_laws():
    p, a, b = 23, 1, 1
    pts = curve_points(eg.curve(p, a, b))
    rng = np.random.default_rng(5)
    for _ in range(60):
        P = pts[rng.integers(len(pts))]
        Q = pts[rng.integers(len(pts))]
        assert eg.ec_add(P, Q, a, p) == eg.ec_add(Q, P, a, p)
        assert eg.ec_add(P, eg.ec_neg(P, p), a, p) is None
        assert eg.ec_add(P, None, a, p) == P
    n = len(pts)
    for P in pts:
        assert eg.ec_mul(n, P, a, p) is None


def test_ec_mul_matches_repeated_addition():
    p, a, b = 31, 1, 3
    P = next(pt for pt in curve_points(eg.curve(p, a, b)) if pt is not None)
    acc = None
    for k in range(12):
        assert eg.ec_mul(k, P, a, p) == acc
        acc = eg.ec_add(acc, P, a, p)


# ---------------------------------------------------------------- transfer


def transfer_fixture():
    g = graph(31, 3, (7,))
    cert = pathfind.exhaustive_path(g, 8, 27)
    c = g.curves[8]
    n = 29  # the group order over F_31 with trace 3
    P = eg._point_of_prime_order(c, n, np.random.default_rng(1))
    return g, cert, c, P, n


def test_transfer_dlp_recovers_planted_logs():
    g, cert, c, P, n = transfer_fixture()
    for r in [0, 1, 7, 28]:
        Q = eg.ec_mul(r, P, c.a, c.p)
        assert eg.transfer_dlp(eg.edges_along(g, cert), P, Q, n) == r


def test_transfer_dlp_empty_path_needs_source():
    g, cert, c, P, n = transfer_fixture()
    Q = eg.ec_mul(5, P, c.a, c.p)
    with pytest.raises(InputError):
        eg.transfer_dlp([], P, Q, n)
    assert eg.transfer_dlp([], P, Q, n, source=c) == 5


def test_transfer_dlp_rejects_shared_factor():
    g = graph(23, 3, (7,))  # order 21 shares the factor 7 with ell
    cert = pathfind.exhaustive_path(g, g.vertices[0], g.vertices[-1])
    c = g.curves[g.vertices[0]]
    P = eg._point_of_prime_order(c, 7, np.random.default_rng(2))
    with pytest.raises(PreconditionError):
        eg.transfer_dlp(eg.edges_along(g, cert), P, P, 7)


def test_transfer_dlp_no_log_raises():
    g = graph(23, 3, (7,))
    c = g.curves[g.vertices[0]]
    rng = np.random.default_rng(3)
    P = eg._point_of_prime_order(c, 7, rng)
    Q = eg._point_of_prime_order(c, 3, rng)  # outside <P>
    with pytest.raises(InputError):
        eg.transfer_dlp([], P, Q, 7, source=c)


def test_edges_along_respects_inversion():
    g = graph(101, 3, (3, 7))
    a, b = g.vertices[0], g.vertices[3]
    cert = pathfind.exhaustive_path(g, a, b)
    edges = eg.edges_along(g, cert)
    assert edges[0].source_j == a
    assert edges[-1].target_j == b
    for e1, e2 in zip(edges, edges[1:]):
        assert e1.target_j == e2.source_j


def test_edges_along_rejects_foreign_label():
    g = graph(31, 3, (7,))
    cert = pathfind.exhaustive_path(g, 8, 27)
    bad = pathfind.PathCertificate(
        start=cert.start,
        end=cert.end,
        steps=(pathfind.PathStep("13:1", False),),
    )
    with pytest.raises(InputError):
        eg.edges_along(g, bad)


# --------------------------------------------------------------- full demo


def test_run_dlp_demo_small_class():
    out = eg.run_dlp_demo(31, 3, [7], seed=5)
    assert out["method"] == "exhaustive"
    assert out["class_number"] == 2
    assert out["order"] == 29
    assert out["verified"] is True
    assert out["recovered_r"] == out["planted_r"]
    assert len(out["stages"]) == len(out["path"]) + 1


def test_run_dlp_demo_deterministic():
    a = eg.run_dlp_demo(31, 3, [7], seed=11)
    b = eg.run_dlp_demo(31, 3, [7], seed=11)
    assert a == b
    c = eg.run_dlp_demo(31, 3, [7], seed=12)
    assert c["planted_r"] != a["planted_r"] or c["stages"] != a["stages"]


def test_run_dlp_demo_planted_value():
    out = eg.run_dlp_demo(31, 3, [7], seed=5, planted=17)
    assert out["planted_r"] == 17 and out["recovered_r"] == 17


def test_run_dlp_demo_rejects_edgeless():
    with pytest.raises(PreconditionError):
        eg.run_dlp_demo(31, 3, [11], seed=1)  # 11 inert in Q(sqrt(-115))


def test_run_dlp_demo_random_walk_branch():
    g = graph(2003, 1, (5, 7))  # h = 25, a genuine expander
    out = eg.run_dlp_demo(2003, 1, [5, 7], seed=3, graph=g)
    assert out["method"] == "random-walk"
    assert out["verified"] is True
    assert out["class_number"] == 25


def test_run_dlp_demo_graph_mismatch():
    g = graph(31, 3, (7,))
    with pytest.raises(InputError):
        eg.run_dlp_demo(31, 1, [7], seed=1, graph=g)


# ------------------------------------------------- walk-interface conformance


def test_isogeny_graph_supports_find_path():
    g = graph(2003, 1, (5, 7))
    a, b = g.vertices[0], g.vertices[7]
    cert, stats = pathfind.find_path(g, a, b, seed=41)
    assert pathfind.replay(g, cert)
    assert cert.start == a and cert.end == b
    assert stats.step1_trials >= 1


def test_isogeny_graph_expansion():
    from isocayley import cayley

    values = cayley.spectrum_numeric(graph(2003, 1, (5, 7)))
    k, c = values[0], max(abs(lam) for lam in values[1:])
    assert 1 - c / k > 0.1  # wide two-sided gap; the instance was chosen for this
    assert c < 4


# ---------------------------------------------------------------- edge oracle

# sha256 over every edge of every class with 5 <= p < 100, L = {3, 5, 7} \ {p}:
# 346 graphs and 2,490 edges, each spelled (p, t, source j, target j, ell,
# eigenvalue, kernel).  Refactors of fppoly and ecgraph must keep it.
EDGE_DIGEST = "6c0cb22c730c2ee072d4505231646b093581f808ad03ca7f8535296367645c0b"


def test_every_edge_below_100_is_pinned():
    h = hashlib.sha256()
    graphs = edges = 0
    for p in range(5, 100):
        if not sympy.isprime(p):
            continue
        ells = [ell for ell in (3, 5, 7) if ell != p]
        r = isqrt(4 * p)
        for t in range(-r, r + 1):
            if t % p == 0:
                continue
            try:
                g = eg.build_isogeny_graph(p, t, ells)
            except (PreconditionError, InputError):
                continue
            graphs += 1
            for e in g.edges:
                edges += 1
                kernel = ",".join(str(int(c)) for c in e.kernel)
                h.update(
                    f"{p} {t} {e.source_j} {e.target_j} {e.ell} {e.eigenvalue} {kernel}\n"
                    .encode()
                )
    assert (graphs, edges) == (346, 2490)
    assert h.hexdigest() == EDGE_DIGEST


# sha256 over every edge of six classes at the large degrees L = {17, 19, 23,
# 29, 31}: 172 edges, each spelled as above.  The classes have split,
# ramified and inert large degrees, and t = 0 mod ell at ell = 17 and 19.
# (101, 3) and (223, 2) stack BFS levels of 4 and 5 curves at ell = 17 and
# 19, which (223, 2) splits into stacks of 3 at ell = 23 (n = 264).
LARGE_EDGE_DIGEST = "607f6b7e2be3ac155efa7814fefd51432010c50e60c9324ad50d33a636f8123d"


def test_large_degree_edges_are_pinned():
    h = hashlib.sha256()
    edges = 0
    for p, t in [(41, 7), (89, 17), (101, 3), (103, 19), (113, 19), (223, 2)]:
        g = eg.build_isogeny_graph(p, t, (17, 19, 23, 29, 31))
        for e in g.edges:
            edges += 1
            kernel = ",".join(str(int(c)) for c in e.kernel)
            h.update(
                f"{p} {t} {e.source_j} {e.target_j} {e.ell} {e.eigenvalue} {kernel}\n"
                .encode()
            )
    assert edges == 172
    assert h.hexdigest() == LARGE_EDGE_DIGEST
