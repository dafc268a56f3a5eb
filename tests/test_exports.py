"""Exports: every name in ``__all__`` resolves, and the artifact writers match
their oracles: ``cli._dumps`` against ``json.dumps(indent=2, sort_keys=True)``,
``to_dot`` and the adjacency rows against the per-edge loops they replaced,
also with blocks of three step-table entries, the bench-scale ``spectrum``
and ``mix`` artifacts and the rank-4 ``classgroup`` and ``spectrum``
artifacts against pinned digests, and a mid-size ``spectrum`` against
pinned digests and a tracemalloc bound."""
import hashlib
import importlib
import json
import math
import pkgutil
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocayley
from isocayley import cayley
from isocayley.abelian import FiniteAbelianGroup, full_subgroup
from isocayley.cli import _dumps, main

MODULES = sorted(m.name for m in pkgutil.iter_modules(isocayley.__path__, "isocayley."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


# ---------------------------------------------------------------- writer oracles


def per_edge_dot(graph, title="cayley"):
    """``to_dot`` as it was written before the slot templates: one f-string per edge."""
    out = [f"graph {json.dumps(title)} {{"]
    for i, name in enumerate(graph.names):
        out.append(f'  v{i} [label="{name}"];')
    table = graph.step_table
    for j, (label, _) in enumerate(graph.generators):
        for i in range(graph.order):
            t = int(table[j, i])
            if i <= t:  # the paired inverse slot emits the other direction
                out.append(f'  v{i} -- v{t} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def pair_lists(graph):
    """The h x k ``[target, label]`` lists ``to_json_adjacency`` used to build."""
    table = graph.step_table
    return [
        [[int(table[j, i]), graph.generators[j][0]] for j in range(graph.degree)]
        for i in range(graph.order)
    ]


# label pieces that break naive templating or escaping
PIECES = ['"', "\\", "%", "%d", "%s", "{}", "{0}", "é", "☃", "\n", "\x00", "a", "1", ":", ",", " "]
texts = st.one_of(st.lists(st.sampled_from(PIECES), max_size=4).map("".join), st.text(max_size=4))
# h = 1 (both trivial presentations), cyclic, and rank 2
INVARIANTS = [(), (1,), (2,), (3,), (5,), (2, 2), (2, 4)]


@st.composite
def graphs(draw):
    group = FiniteAbelianGroup(draw(st.sampled_from(INVARIANTS)))
    h = full_subgroup(group)
    gens = []
    for _ in range(draw(st.integers(0, 2))):  # 0 draws gives k = 0
        s = group.element([draw(st.integers(0, d - 1)) for d in group.invariants])
        gens.append((draw(texts), s))
        inv = group.element([-c for c in s.coords])
        if inv != s:
            gens.append((draw(texts), inv))
    names = draw(st.lists(texts, min_size=h.order, max_size=h.order, unique=True))
    return cayley.build(h, gens, names)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, math.nan, math.inf, -math.inf]),
    texts,
)


def row_lists(values):
    """Non-empty lists of dicts on one key set, the lists ``_dumps`` lays out
    from row templates when every value is flat."""
    return st.lists(texts, unique=True, max_size=3).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: values for k in keys}),
                              min_size=1, max_size=4))


# flat values of varying shape: leaves, and lists or tuples of leaves
flat_values = scalars | st.lists(scalars, max_size=2) | st.lists(scalars, max_size=2).map(tuple)
leaves = (scalars | graphs().map(lambda g: cayley.to_json_adjacency(g)["adjacency"])
          | row_lists(flat_values))
documents = st.recursive(
    leaves,
    lambda kids: st.one_of(
        row_lists(flat_values | kids),  # rows that are not all flat
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(texts, kids, max_size=3),
        # non-str keys of one comparable kind each, as sort_keys needs
        st.dictionaries(st.integers() | st.booleans() | st.floats(allow_nan=False), kids,
                        max_size=2),
        st.dictionaries(st.none(), kids, max_size=1),
    ),
    max_leaves=8,
)


def materialized(doc):
    if isinstance(doc, cayley.AdjacencyRows):  # row i from column i of the step table
        return [[[t, label] for t, label in zip(targets, doc.labels)]
                for targets in doc.table.T.tolist()]
    if isinstance(doc, dict):
        return {key: materialized(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [materialized(value) for value in doc]
    return doc


@settings(max_examples=100, deadline=None)
@given(documents)
def test_dumps_matches_stdlib_indented_encoder(doc):
    assert _dumps(doc) == json.dumps(materialized(doc), indent=2, sort_keys=True) + "\n"


def test_row_templates_cover_the_artifact_rows():
    """The classes of classgroup.json (rank 0, 3 and 4) and the edges of
    ecgraph.json, whose kernels differ in length with ell, go through the
    row tables; so do rows with no keys, rows whose lists are empty, and
    columns that mix leaves with lists or tuples with lists."""
    from isocayley import cli, ecgraph, quadform

    edges = [{"ell": e.ell, "kernel": list(e.kernel), "source_j": e.source_j}
             for e in ecgraph.build_isogeny_graph(101, 3, [3, 5, 7]).edges]
    assert len({len(e["kernel"]) for e in edges}) == 3
    rank0 = quadform.class_group(-4).to_json()["classes"]
    rank4 = quadform.class_group(-9999960).to_json()["classes"]
    assert rank0 == [{"form": [1, 0, 1], "coords": []}]
    assert {len(row["coords"]) for row in rank4} == {4}
    for rows in (quadform.class_group(-9999991).to_json()["classes"], rank0, rank4, edges,
                 [{}], [{}, {}], [{"a": [], "b": ()}, {"a": [], "b": [1]}],
                 [{"a": 1}, {"a": [1, 2]}, {"a": []}], [{"a": (1, 2)}, {"a": [3, 4]}, {"a": (5,)}]):
        out = []
        assert cli._write_rows(rows, "\n", out)
        assert _dumps(rows) == json.dumps(rows, indent=2, sort_keys=True) + "\n"
    # True and 1 are one key, spelled "true" in one row and "1" in the other
    for rows in ([{"a": 1}, {"b": 1}], [{"a": 1}, {"a": 1, "b": 1}], [{True: 1}, {1: 2}],
                 [{"a": [1]}, {"a": [[1]]}], [{"a": {}}], [{"a": 1}, [1]]):
        out = []
        assert not cli._write_rows(rows, "\n", out) and out == []
        assert _dumps(rows) == json.dumps(rows, indent=2, sort_keys=True) + "\n"


def test_row_tables_fill_one_row_glue(monkeypatch):
    """A row table is one fill of its row glue, plus at most one fill per
    key for the key's lists: the 280 edges of the bench-scale isogeny
    graph, whose kernel lengths alternate with ell, and the 1,715 classes
    of Cl(-9999991)."""
    from isocayley import cli, ecgraph, quadform

    graph = ecgraph.build_isogeny_graph(9973, 1, [3, 5, 7, 11, 13])
    edges = [{"source_j": e.source_j, "target_j": e.target_j, "ell": e.ell,
              "eigenvalue": e.eigenvalue, "kernel": list(e.kernel)} for e in graph.edges]
    classes = quadform.class_group(-9999991).to_json()["classes"]
    assert (len(edges), len(classes)) == (280, 1715)
    fill_rows, calls = cayley.fill_rows, []

    def counted(*args):
        calls.append(args)
        return fill_rows(*args)

    monkeypatch.setattr(cayley, "fill_rows", counted)
    for rows in (edges, classes):
        calls.clear()
        out = []
        assert cli._write_rows(rows, "\n", out)
        assert len(calls) <= len(rows[0]) + 1
        assert out == [json.dumps(rows, indent=2, sort_keys=True)]


def test_fill_rows_joins_rows_of_one_shape():
    assert cayley.fill_rows(("<", ",", ">"), ";", ["a", "b", "c", "d"], 2) == "<a,b>;<c,d>"
    assert cayley.fill_rows(("<", ">"), ";", ["a"], 1) == "<a>"
    assert cayley.fill_rows(("{}",), ",", [], 3) == "{},{},{}"
    assert cayley.fill_rows(("<", ">"), ";", [], 0) == cayley.fill_rows(("{}",), ",", [], 0) == ""


@settings(max_examples=100, deadline=None)
@given(graphs(), texts)
def test_templates_match_per_edge_loops(graph, title):
    assert cayley.to_dot(graph, title) == per_edge_dot(graph, title)
    doc = {"graph": cayley.to_json_adjacency(graph)}
    assert len(doc["graph"]["adjacency"]) == graph.order
    assert _dumps(doc) == json.dumps({"graph": {**doc["graph"], "adjacency": pair_lists(graph)}},
                                     indent=2, sort_keys=True) + "\n"


# order 1 with degree 0 (the "[]" adjacency rows) and with a loop; order 8
# with degree 0 and with k = 4, whose rows split across blocks
TRIVIAL = FiniteAbelianGroup(())
Z2_Z4 = FiniteAbelianGroup((2, 4))
EDGE_GRAPHS = [
    cayley.build(full_subgroup(TRIVIAL), []),
    cayley.build(full_subgroup(TRIVIAL), [("e", TRIVIAL.identity)]),
    cayley.build(full_subgroup(Z2_Z4), []),
    cayley.build(full_subgroup(Z2_Z4), [(lbl, Z2_Z4.element(c)) for lbl, c in
                                        (("a", (1, 0)), ("b", (0, 1)), ("b'", (0, 3)),
                                         ("%d", (1, 2)))]),
]


def check_writers(doc, graph, title):
    assert _dumps(doc) == json.dumps(materialized(doc), indent=2, sort_keys=True) + "\n"
    assert cayley.to_dot(graph, title) == per_edge_dot(graph, title)
    rows = cayley.to_json_adjacency(graph)["adjacency"]
    pairs = pair_lists(graph)
    adjacency = {"graph": cayley.to_json_adjacency(graph), "rows": [rows, rows]}
    assert _dumps(adjacency) == json.dumps(
        {"graph": {**adjacency["graph"], "adjacency": pairs}, "rows": [pairs, pairs]},
        indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(documents, graphs(), texts)
def test_blocks_split_mid_table(doc, graph, title):
    """Three step-table entries per block split the DOT text and the
    adjacency rows mid-table; no block boundary may change the text."""
    with mock.patch.object(cayley, "_BLOCK_ENTRIES", 3):
        check_writers(doc, graph, title)
        for edge in EDGE_GRAPHS:
            check_writers(doc, edge, title)


def test_dumps_rejects_what_the_stdlib_rejects():
    for doc in ({(1, 2): 0}, {"a": {1, 2}}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _dumps(doc)


# ---------------------------------------------------------------- bench-scale pins

# spectrum -D D --bound 200 for the two bench discriminants (h = 1715, k = 42
# and h = 1536, k = 56); no artifact depends on --seed
BENCH_SCALE = {
    "-9999991": {
        "spectrum.json": "fbc95eb57477ad49f9fb9843f83eebade53f61d4d65919ba0f8b95d4e6f31642",
        "graph.dot": "7f1b5a7cdb72e76007f5b4d4900bc596791e8221977b088643220c646829814d",
    },
    "-9999960": {
        "spectrum.json": "a233d85e19b435a7d8535cfd1362f8125ee05c87fc410ecb5d1857c9e6fe8283",
        "graph.dot": "9a79516020bbc92c3bf5a75b4e9fb3ee1e1cfbba161b3468690fd6177051662e",
    },
}


def test_bench_scale_spectrum_artifacts(tmp_path, capsys):
    got = {}
    for disc, pinned in BENCH_SCALE.items():
        out = tmp_path / disc
        assert main(["spectrum", "-D", disc, "--bound", "200", "--out", str(out)]) == 0, (
            capsys.readouterr().err
        )
        got[disc] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in pinned}
    assert got == BENCH_SCALE


# every artifact of the rank-4 bench discriminant (invariants 2 x 2 x 2 x 192),
# whose class rows carry four coordinates, taken while the row tables were
# still filled from %-templates
RANK4 = {
    ("classgroup", "-D", "-9999960"): {
        "classgroup.json": "0853d3dd18cc6a4e821ee72e8e147c0d992a1de6f0685d666dacab0ee2794fa4",
    },
    ("spectrum", "-D", "-9999960", "--bound", "200"): {
        "spectrum.json": "a233d85e19b435a7d8535cfd1362f8125ee05c87fc410ecb5d1857c9e6fe8283",
        "graph.dot": "9a79516020bbc92c3bf5a75b4e9fb3ee1e1cfbba161b3468690fd6177051662e",
        "scan.csv": "021e9c9e9a88d74d50ce9985d20110d7c239933e23a14c55a4bcf36644848488",
    },
}


def test_rank4_artifacts_are_pinned(tmp_path, capsys):
    got = {}
    for argv, pinned in RANK4.items():
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        got[argv] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in sorted(f.name for f in out.iterdir()) if name != "manifest.json"}
    assert got == RANK4


# the two walk-streams mix ops at 10^5 trials, argvs as the bench makes them
# at workload seed 1: the -D graph has k = 16 and 8 targets, the group-file
# graph on Z/4 x Z/12 has k = 6
BENCH_SCALE_MIX = {
    ("mix", "-D", "-9999991", "--bound", "50", "--trials", "100000",
     "--target", "178:7:14045,1696:1597:1850,106:99:23608,1600:1597:1961,"
     "520:-307:4853,8:3:312500,251:-241:10018,625:-3:4000",
     "--seed", "6257749171486541836"):
        "9fe4d965d504d3f430d64f6dc42734b112234c8d991f2713b303317c40534265",
    ("mix", "--group-file", "group48.txt", "--gens", "1:0,0:1,1:5",
     "--trials", "100000", "--target", "1:9,0:4,1:4",
     "--seed", "2992820390107800472"):
        "0f6c2f78e3ed36ad18f58c0ea1216837df5a917c586ac32c561ab9dd4c3cbd19",
}


def test_bench_scale_mix_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "group48.txt").write_text("invariants: 4 12\n", encoding="utf-8")
    got = {}
    for i, argv in enumerate(BENCH_SCALE_MIX):
        out = f"mix{i}"
        assert main([*argv, "--out", out]) == 0, capsys.readouterr().err
        got[argv] = hashlib.sha256((tmp_path / out / "mix.json").read_bytes()).hexdigest()
    assert got == BENCH_SCALE_MIX


# spectrum -D -9999991 --bound 2000: h = 1715, k = 314, 538,510 adjacency
# slots, 40 MB of artifacts; digests taken while each artifact was still
# built whole before it was written
MID_SIZE = {
    "spectrum.json": "eebe13a6aff80e82db7e4c259959b209246bac15317ff21b35df579350ced039",
    "graph.dot": "df171f7498c7e2143712330b82d93fce34ffd58262dec8dbf90e3a2eab0b2434",
    "scan.csv": "d10f301d35f2b810945010294c673192387c87b1e17babc859e124f58b4fca12",
}
# tracemalloc peak of cli.main on it: 103.5 MiB with each artifact held
# whole (and copied) before writing, 14.4 MiB streamed one block at a time
MID_SIZE_PEAK_MIB = 32


def test_mid_size_spectrum_is_pinned_and_streamed(tmp_path, capsys):
    argv = ["spectrum", "-D", "-9999991", "--bound", "2000", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in MID_SIZE}
    assert got == MID_SIZE
    assert peak < MID_SIZE_PEAK_MIB * 2**20, f"peak {peak / 2**20:.1f} MiB"
