"""The ``isocayley`` command line: every pipeline as one subcommand.

Reproducibility is the contract here.  All randomness flows from ``--seed``,
every run emits a manifest (subcommand, parameter echo, seed, version,
output digests), and rerunning with the same manifest inputs produces
byte-identical artifacts.  Primary outputs go to stdout, or into the
``--out`` directory next to ``manifest.json``; diagnostics go to stderr.

Exit codes: 0 success, 1 a requested check failed (certificate invalid,
comparison FAIL), 2 malformed input or an unreadable file, 3 violated
precondition, 4 internal consistency failure or any other unexpected error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
from importlib import resources
from math import isfinite
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__, abelian, cayley, ecgraph, pathfind, quadform, walks
from .errors import InputError, InternalConsistencyError, PreconditionError

__all__ = ["main", "schema_for", "ARTIFACT_SCHEMAS"]

_encode_str = json.encoder.encode_basestring_ascii


class _Hole:
    """A leaf's place in a template row, which ``_write`` writes as NUL: the
    stdlib escapes every control character, so NUL marks the holes alone."""


_HOLE = _Hole()
# what _pieces lays out itself; every other value is a leaf for the stdlib
_NESTED = (dict, list, tuple, cayley.AdjacencyRows, _Hole)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

# primary artifact per (subcommand, --format)
_PRIMARY = {
    "classgroup": {"json": "classgroup.json"},
    "spectrum": {"json": "spectrum.json", "csv": "scan.csv", "dot": "graph.dot"},
    "mix": {"json": "mix.json"},
    "path": {"json": "certificate.json"},
    "verify": {"json": "verify.json"},
    "ecgraph": {"json": "ecgraph.json", "dot": "graph.dot"},
    "dlpdemo": {"json": "dlpdemo.json"},
}

# which shipped schema validates which JSON artifact
ARTIFACT_SCHEMAS = {
    "classgroup.json": "classgroup",
    "spectrum.json": "spectrum",
    "mix.json": "mix",
    "certificate.json": "certificate",
    "verify.json": "verify",
    "ecgraph.json": "ecgraph",
    "dlpdemo.json": "dlpdemo",
    "manifest.json": "manifest",
}


def schema_for(name: str) -> dict:
    """Load one of the shipped JSON schemas by short name."""
    path = resources.files("isocayley") / "schemas" / f"{name}.schema.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no schema named {name!r}") from None


def _pieces(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``,
    written directly, as a sequence of pieces, none of which grows with the
    slots of a graph.

    The recursion lays out dicts, lists and tuples as the stdlib's indented
    encoder does.  Keys and scalar leaves still go through the stdlib, so its
    float, bool and escaping rules hold: a list of leaves is encoded by one
    ``json.dumps`` call of its own, and any other leaf outside a row table
    by one call where it stands.  The row tables are laid out by
    :func:`cayley.fill_rows`: a :class:`cayley.AdjacencyRows` view by
    :func:`_adjacency_pieces`, one piece per block of rows, and a list of
    flat dicts, such as the classes of ``classgroup.json`` or the edges of
    ``ecgraph.json``, by :func:`_write_rows`, from one row glue with a hole
    per key, as one finished piece.  The text between adjacency views is one
    piece each; it grows with the order of a graph, not with its slots.
    """
    out: list = []
    _write(obj, "\n", out)
    out.append("\n")
    start = 0
    for stop in [i for i, part in enumerate(out) if type(part) is not str] + [len(out)]:
        yield "".join(out[start:stop])
        if stop < len(out):
            yield from out[stop]  # the block pieces of an adjacency view
        start = stop + 1


def _leaf_texts(leaves: list) -> list[str]:
    """The compact JSON text of each leaf, from one ``json.dumps`` call."""
    if not leaves:
        return []
    # ensure_ascii escapes every newline inside a string, so "\n" splits the leaves exactly
    return json.dumps(leaves, separators=("\n", ":"))[1:-1].split("\n")


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``: the join of
    :func:`_pieces`, the one layout path."""
    return "".join(_pieces(obj))


def _key(key) -> str:
    """A dict key as the stdlib writes it: int, float, bool and None as their JSON text."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(obj, nl: str, out: list) -> None:
    """Append the JSON text of obj to ``out``, with the lazy pieces of an
    adjacency view holding its place; ``nl`` is a newline plus the indent of
    obj's line."""
    if not isinstance(obj, _NESTED):
        out.append(json.dumps(obj))
        return
    inner = nl + "  "
    if isinstance(obj, cayley.AdjacencyRows):
        out.append(_adjacency_pieces(obj, nl))
        return
    if obj is _HOLE:
        out.append("\0")
        return
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    comma = "," + inner
    if isinstance(obj, dict):
        out.append("{" + inner)
        for key, value in sorted(obj.items()):
            out += (_key(key), ": ")
            _write(value, inner, out)
            out.append(comma)
        out[-1] = nl + "}"
    elif any(issubclass(kind, _NESTED) for kind in set(map(type, obj))):
        if _write_rows(obj, nl, out):
            return
        out.append("[" + inner)
        for value in obj:
            _write(value, inner, out)
            out.append(comma)
        out[-1] = nl + "]"
    else:  # a list of leaves, encoded by one stdlib call
        out.append("[" + inner + json.dumps(obj, separators=(comma, ":"))[1:-1] + nl + "]")


def _adjacency_pieces(rows: cayley.AdjacencyRows, nl: str) -> Iterator[str]:
    """The JSON list of an adjacency view's rows, one piece per block of rows.

    One row glue serves every row, the :func:`_glue` of a row of holes and
    labels.  :func:`cayley.fill_rows` fills it with the targets of each
    block from ``AdjacencyRows.blocks``, spelled by one index into
    :func:`cayley.decimal_strings`."""
    n = len(rows)
    if not n:
        yield "[]"
        return
    inner = nl + "  "
    glue = _glue([[_HOLE, label] for label in rows.labels], inner)
    digits = cayley.decimal_strings(n)
    sep = "[" + inner
    for block in rows.blocks():
        yield sep + cayley.fill_rows(glue, "," + inner, digits[block].ravel().tolist(), len(block))
        sep = "," + inner
    yield nl + "]"


def _write_rows(rows, nl: str, out: list) -> bool:
    """Lay out a non-empty list of flat dicts with one set of str keys, as
    ``_write`` would, and append it to ``out`` as one finished piece.  A row
    is flat when each value is a leaf or a list of leaves.  Returns False,
    having written nothing, for any other list.

    The rows are read column by column, and the leaves of each column are
    encoded by one ``json.dumps`` call.  Every row is one hole per key in
    one row glue, filled by one :func:`cayley.fill_rows` call.  A column's
    lists are spelled as ``_write`` spells a list of leaves: when every
    cell is a list of one length n, by one ``fill_rows`` block on the glue
    of n holes, split at NUL, and otherwise by one join per cell."""
    if set(map(type, rows)) != {dict}:
        return False
    first = rows[0].keys()
    # a non-str key is spelled by its own kind, which the other rows need not share
    if not all([isinstance(key, str) for key in first]) or set(map(len, rows)) != {len(first)}:
        return False
    inner = nl + "  "
    value_nl = inner + "  "  # a row's values start their lines here
    item_nl = value_nl + "  "
    keys = sorted(first)
    holes = [""] * (len(keys) * len(rows))
    for c, key in enumerate(keys):
        try:
            column = [row[key] for row in rows]
        except KeyError:  # the rows have one size but not one key set
            return False
        kinds = set(map(type, column))
        sizes = [-1]  # a column of leaves; -1 marks a leaf
        if kinds <= {list, tuple}:
            sizes = list(map(len, column))
        elif kinds & {list, tuple}:  # leaves among the lists: each leaf as a list of one
            sizes = [len(v) if type(v) is list or type(v) is tuple else -1 for v in column]
            column = [value if n >= 0 else (value,) for value, n in zip(column, sizes)]
        leaves = column if sizes == [-1] else list(itertools.chain.from_iterable(column))
        if any(issubclass(kind, _NESTED) for kind in set(map(type, leaves))):
            return False
        texts = _leaf_texts(leaves)
        if min(sizes) == max(sizes) >= 0:
            glue = _glue([_HOLE] * sizes[0], value_nl)
            texts = cayley.fill_rows(glue, "\0", texts, len(rows)).split("\0")
        elif max(sizes) >= 0:
            cells, comma = iter(texts), "," + item_nl
            texts = [next(cells) if n < 0 else
                     "[" + item_nl + comma.join(itertools.islice(cells, n)) + value_nl + "]" if n
                     else "[]" for n in sizes]
        holes[c::len(keys)] = texts
    glue = _glue(dict.fromkeys(first, _HOLE), inner)
    out.append("[" + inner + cayley.fill_rows(glue, "," + inner, holes, len(rows)) + nl + "]")
    return True


def _glue(template, nl: str) -> list[str]:
    """The text of a template row around its holes, as :func:`_write` lays
    it out on a line that starts with ``nl``: one more entry than the row
    has holes."""
    out: list = []
    _write(template, nl, out)
    return "".join(out).split("\0")


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ints(text: str, what: str) -> list[int]:
    """Comma-separated integers, at least one of them."""
    try:
        out = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"{what}: expected comma-separated integers, got {text!r}") from None
    if not out:
        raise InputError(f"{what}: empty list {text!r}")
    return out


def _vector_items(text: str, what: str) -> list[tuple[int, ...]]:
    """Comma-separated items, each a colon-separated integer tuple."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            out.append(tuple(int(x) for x in item.split(":")))
        except ValueError:
            raise InputError(f"{what}: bad item {item!r} in {text!r}") from None
    if not out:
        raise InputError(f"{what}: empty list {text!r}")
    return out


class _Graph:
    """A built Cayley graph plus where it came from."""

    def __init__(self, graph, cls_group=None, source=None):
        self.graph = graph
        self.cls_group = cls_group
        self.source = source or {}

    def resolve(self, spec: str):
        """A vertex from its CLI spelling ('id', 'a:b:c' or 'c1:c2:...'),
        checked to be a vertex of the graph; errors quote the spec."""
        if spec == "id":
            return self.graph.subgroup.ambient.identity
        items = _vector_items(spec, "vertex")
        if len(items) != 1:
            raise InputError(f"vertex {spec!r}: expected one vertex, got {len(items)}")
        coords = items[0]
        if self.cls_group is not None:
            if len(coords) != 3:
                raise InputError(f"vertex {spec!r}: expected a form triple a:b:c")
            a, b, c = coords
            disc, d = b * b - 4 * a * c, self.cls_group.discriminant.value
            if a <= 0 and disc < 0:
                raise InputError(f"vertex {spec!r} is not positive definite")
            if disc != d:
                raise InputError(f"vertex {spec!r} has discriminant {disc}, expected {d}")
            try:
                e = self.cls_group.element_of(quadform.reduce_form(coords))
            except InputError:
                raise InputError(f"vertex {spec!r} is not a primitive form") from None
        else:
            ambient = self.graph.subgroup.ambient
            if len(coords) != len(ambient.invariants):
                raise InputError(f"vertex {spec!r}: expected {len(ambient.invariants)} coordinates")
            e = ambient.element(coords)
        if e not in self.graph.subgroup:
            raise InputError(f"vertex {spec!r} lies outside the graph's subgroup")
        return e


def _form_generators(cls_group, text: str) -> list:
    """The class group elements of the --gens forms, checked in the order
    :meth:`_Graph.resolve` checks a vertex; errors quote the form as given."""
    d = cls_group.discriminant.value
    specs = [item.strip() for item in text.split(",") if item.strip()]
    gens = []
    for spec, triple in zip(specs, _vector_items(text, "--gens")):
        if len(triple) != 3:
            raise InputError(f"--gens: {':'.join(map(str, triple))} is not a form triple")
        a, b, c = triple
        disc = b * b - 4 * a * c
        if a <= 0 and disc < 0:
            raise InputError(f"--gens: form {spec!r} is not positive definite")
        if disc != d:
            raise InputError(f"--gens: form {triple} has discriminant {disc}, expected {d}")
        try:
            gens.append(cls_group.element_of(quadform.reduce_form(triple)))
        except InputError:
            raise InputError(f"--gens: form {spec!r} is not a primitive form") from None
    return gens


def _closed_under_inversion(gens):
    """Add missing inverses so cayley.build accepts the list."""
    out = list(gens)
    have = [e for _, e in gens]
    for lbl, e in gens:
        inv = abelian.op_inv(e)
        if have.count(inv) < have.count(e):
            out.append((lbl + "^-1", inv))
            have.append(inv)
    return out


def _disc_source(args) -> quadform.Discriminant:
    """The checks of a -D source, in the order every -D route makes them:
    the arguments, the prime bound, then D itself."""
    if args.subgroup is not None:
        raise InputError("--subgroup needs --group-file; with -D, --gens picks the subgroup")
    if args.bound is None:
        raise InputError("-D graphs need --bound to pick the prime-form generators")
    quadform.check_prime_bound(args.bound)
    return quadform.check_discriminant(args.disc)


def _check_generators(s_b, bound: int) -> None:
    if not s_b:
        raise PreconditionError(f"no prime form below {bound} lands in the chosen subgroup")


def _prime_form_steps(args) -> tuple[int, dict[str, tuple[int, int, int]]]:
    """D and the reduced prime form of each S_B label, for a -D source on all
    of Cl(D), checked as :func:`_build_graph` checks it, but with no class
    group or graph built.  The slot cap needs h: the reduced forms are
    counted only when a proven bound on h does not settle it."""
    disc = _disc_source(args)
    steps = {label: form for label, _, _, form in quadform.prime_forms(disc, args.bound)}
    _check_generators(steps, args.bound)
    if len(steps) * quadform.class_number_bound(disc.value) > cayley.MAX_SLOTS:
        cayley.check_slots(quadform.class_number(disc.value), len(steps))
    return disc.value, steps


def _build_graph(args) -> _Graph:
    if args.disc is not None and args.group_file:
        raise InputError("give either -D or --group-file, not both")
    if args.disc is not None:
        cls = quadform.class_group(_disc_source(args))
        if args.gens:
            sub = abelian.subgroup_generated(cls.group, _form_generators(cls, args.gens))
        else:
            sub = cls.whole
        s_b = quadform.generating_multiset(cls, args.bound, sub)
        _check_generators(s_b, args.bound)
        graph = cayley.build(sub, [(g.label, g.element) for g in s_b],
                             cayley.spell_rows(cls.triples[sub.codes]))
        return _Graph(graph, cls_group=cls,
                      source={"discriminant": args.disc, "bound": args.bound})
    if args.group_file:
        if args.bound is not None:
            raise InputError("--bound needs -D; group-file graphs take their edges from --gens")
        gf = abelian.load_group_file(args.group_file)
        if args.gens:
            rank = len(gf.group.invariants)
            elems = []
            for vec in _vector_items(args.gens, "--gens"):
                if len(vec) != rank:
                    raise InputError(
                        f"--gens: vector {vec} has {len(vec)} coordinates, expected {rank}"
                    )
                elems.append(gf.group.element(vec))
            labeled = [(":".join(str(x) for x in e.coords), e) for e in elems]
        elif args.subgroup:
            raise InputError("group-file graphs still need --gens for the edge set")
        else:
            raise InputError("group-file graphs need --gens")
        gens = _closed_under_inversion(labeled)
        if args.subgroup and args.subgroup not in gf.generators:
            raise InputError(f"the group file defines no subgroup named {args.subgroup!r}")
        elems = gf.generators[args.subgroup] if args.subgroup else [e for _, e in labeled]
        # the slot cap is checked before the subgroup's elements are built
        cayley.check_slots(abelian.generated_order(gf.group, elems), len(gens))
        sub = abelian.subgroup_generated(gf.group, elems)
        if args.subgroup:
            for lbl, e in labeled:
                if e not in sub:
                    raise InputError(f"generator {lbl} lies outside subgroup {args.subgroup!r}")
        graph = cayley.build(sub, gens)
        return _Graph(graph, source={"group_file": str(args.group_file)})
    raise InputError("pick a graph source: -D <disc> or --group-file <path>")


def _graph_params(args) -> dict:
    return {
        "disc": args.disc,
        "group_file": args.group_file,
        "gens": args.gens,
        "subgroup": args.subgroup,
        "bound": args.bound,
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (artifacts, parameter echo, exit code); an
# artifact is a sequence of str pieces, which _emit consumes once
# ---------------------------------------------------------------------------


def cmd_classgroup(args):
    cls = quadform.class_group(args.disc)
    return {"classgroup.json": _pieces(cls.to_json())}, {"disc": args.disc}, EXIT_OK


def cmd_spectrum(args):
    ctx = _build_graph(args)
    graph = ctx.graph
    if graph.degree == 0:
        raise PreconditionError("the generating set is empty: nothing to measure")
    if ctx.cls_group is not None:
        # the scan's last cut sums all of S_B, the graph's generators in slot order
        sums = np.empty(graph.order, dtype=np.complex128)
        best, rows = cayley.find_expander_bound(
            ctx.cls_group, graph.subgroup, args.delta, args.bound, sums
        )
        spec = cayley.spectrum_by_characters(graph, sums)
    else:
        spec = cayley.spectrum_by_characters(graph)
    d1, d2, c = cayley.expansion(spec)
    data = {
        "source": ctx.source,
        "order": graph.order,
        "degree": graph.degree,
        "generators": [lbl for lbl, _ in graph.generators],
        "eigenvalues": spec.sorted_values(),
        "lambda_trivial": spec.lambda_triv,
        "c": c,
        "delta1": d1,
        "delta2": d2,
        "graph": cayley.to_json_adjacency(graph),
    }
    artifacts = {"graph.dot": cayley.dot_pieces(graph, title="spectrum")}
    if ctx.cls_group is not None:
        data["expander_bound"] = best
        artifacts["scan.csv"] = [cayley.scan_table_csv(rows)]
    elif args.format == "csv":
        raise InputError("scan tables need a discriminant source; use -D")
    artifacts["spectrum.json"] = _pieces(data)
    params = _graph_params(args) | {"delta": args.delta}
    return artifacts, params, EXIT_OK


def cmd_mix(args):
    ctx = _build_graph(args)
    target_specs = [t.strip() for t in args.target.split(",") if t.strip()]
    target = tuple(ctx.resolve(t) for t in target_specs)
    start = ctx.resolve(args.start)
    cfg = walks.WalkConfig(
        length=args.length, trials=args.trials, seed=args.seed, target=target
    )
    result = walks.mixing_experiment(ctx.graph, start, cfg)
    names = [ctx.graph.names[ctx.graph.vertex_index(v)] for v in target]
    params = _graph_params(args) | {
        "start": args.start,
        "target": args.target,
        "trials": args.trials,
        "length": args.length,
    }
    return {"mix.json": _pieces(walks.report_json(result, names))}, params, EXIT_OK


def cmd_path(args):
    ctx = _build_graph(args)
    a = ctx.resolve(args.vertex_a)
    b = ctx.resolve(args.vertex_b)
    if ctx.graph.order >= 9:
        cert, stats = pathfind.find_path(ctx.graph, a, b, args.seed)
        print(
            f"step-1 trials {stats.step1_trials}, step-2 trials {stats.step2_trials}, "
            f"{stats.distinct_neighbors} distinct neighbors",
            file=sys.stderr,
        )
    else:
        cert = pathfind.exhaustive_path(ctx.graph, a, b)
    doc = pathfind.certificate_to_json(cert, ctx.graph)
    params = _graph_params(args) | {"a": args.vertex_a, "b": args.vertex_b}
    return {"certificate.json": _pieces(doc)}, params, EXIT_OK


def cmd_verify(args):
    # on all of Cl(D) a certificate replays by composing prime forms, with no
    # group or graph built; a proper subgroup (--gens) needs Cl(D)'s coordinates
    if args.disc is not None and not args.gens and not args.group_file:
        d, steps = _prime_form_steps(args)
        named = functools.partial(quadform.form_named, d)
        replay = functools.partial(pathfind.replay_forms, steps)
    else:
        graph = _build_graph(args).graph
        named = graph.vertex_named
        replay = functools.partial(pathfind.replay, graph)
    try:
        raw = Path(args.certificate).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read certificate: {e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"certificate {args.certificate} is not UTF-8: {e}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"certificate is not JSON: {e}") from None
    cert = pathfind.certificate_from_json(data, named)
    ok = replay(cert)
    out = {
        "valid": bool(ok),
        "start": data["start"],
        "end": data["end"],
        "length": cert.length,
    }
    params = _graph_params(args) | {
        "certificate": str(args.certificate),
        "certificate_digest": _digest(raw),
    }
    return {"verify.json": _pieces(out)}, params, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_ecgraph(args):
    ells = _ints(args.ells, "-L")
    g = ecgraph.build_isogeny_graph(args.p, args.t, ells)
    rep = ecgraph.compare_to_cayley(g)
    data = {
        "p": args.p,
        "t": args.t,
        "L": list(g.ells),
        "discriminant": g.disc,
        "class_number": g.order,
        "curves": [[j, g.curves[j].a, g.curves[j].b] for j in g.vertices],
        "graph": cayley.to_json_adjacency(g),
        "edges": [
            {
                "source_j": e.source_j,
                "target_j": e.target_j,
                "ell": e.ell,
                "eigenvalue": e.eigenvalue,
                "kernel": list(e.kernel),
            }
            for e in g.edges
        ],
        "comparison": ecgraph.comparison_to_json(rep),
    }
    artifacts = {
        "ecgraph.json": _pieces(data),
        "graph.dot": cayley.dot_pieces(g, title=f"isogeny_p{args.p}_t{args.t}"),
    }
    params = {"p": args.p, "t": args.t, "ells": args.ells}
    code = EXIT_OK if rep.verdict == "PASS" else EXIT_CHECK_FAILED
    return artifacts, params, code


def cmd_dlpdemo(args):
    ells = _ints(args.ells, "-L")
    out = ecgraph.run_dlp_demo(args.p, args.t, ells, args.seed, planted=args.planted)
    params = {"p": args.p, "t": args.t, "ells": args.ells, "planted": args.planted}
    code = EXIT_OK if out["verified"] else EXIT_CHECK_FAILED
    return {"dlpdemo.json": _pieces(out)}, params, code


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    v = int(text)
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return v


def _delta(text: str) -> float:
    v = float(text)
    if not isfinite(v):
        raise argparse.ArgumentTypeError("delta must be a finite number")
    return v


def _add_common(sp):
    sp.add_argument("--seed", type=_seed, default=0, help="PRNG seed (u64, default 0)")
    sp.add_argument("--out", default=None, help="directory for artifacts + manifest.json")
    sp.add_argument(
        "--format", choices=("json", "csv", "dot"), default="json",
        help="which artifact goes to stdout when --out is not given",
    )


def _add_graph_source(sp):
    sp.add_argument("-D", "--disc", type=int, default=None,
                    help="build the graph on the class group of this discriminant")
    sp.add_argument("--group-file", default=None,
                    help="build the graph from an abstract group file instead")
    sp.add_argument("--gens", default=None,
                    help="comma-separated form triples a:b:c (with -D) or "
                         "coordinate vectors c1:c2:... (with --group-file)")
    sp.add_argument("--subgroup", default=None,
                    help="named subgroup from the group file to walk on")
    sp.add_argument("--bound", type=int, default=None,
                    help="prime bound B for the generating set S_B (with -D)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocayley",
        description="class groups, Cayley expanders, isogeny graphs: one reproducible binary",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classgroup", help="class group structure as JSON")
    p.add_argument("-D", "--disc", type=int, required=True, help="negative discriminant D")
    _add_common(p)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("spectrum", help="exact spectrum, scan table and DOT export")
    _add_graph_source(p)
    p.add_argument("--delta", type=_delta, default=0.0,
                   help="two-sided expansion target for the scan (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mix", help="seeded mixing experiment against the two-sided band")
    _add_graph_source(p)
    p.add_argument("--start", default="id", help="start vertex (default identity)")
    p.add_argument("--target", required=True, help="target set W, comma-separated vertices")
    p.add_argument("--trials", type=int, default=10000, help="number of walks")
    p.add_argument("--length", type=int, default=None,
                   help="walk length (default: the mixing length for |W|)")
    _add_common(p)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("path", help="find a path certificate between two vertices")
    _add_graph_source(p)
    p.add_argument("-A", dest="vertex_a", required=True, help="start vertex")
    p.add_argument("-B", dest="vertex_b", required=True, help="end vertex")
    _add_common(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("verify", help="replay a path certificate (exit 1 if invalid)")
    _add_graph_source(p)
    p.add_argument("certificate", help="certificate JSON file to replay")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ecgraph", help="ordinary isogeny graph + class-group comparison")
    p.add_argument("-p", dest="p", type=int, required=True, help="field characteristic")
    p.add_argument("-t", dest="t", type=int, required=True, help="Frobenius trace")
    p.add_argument("-L", dest="ells", required=True, help="isogeny degrees, e.g. 3,5,7")
    _add_common(p)
    p.set_defaults(func=cmd_ecgraph)

    p = sub.add_parser("dlpdemo", help="planted discrete-log transfer, full transcript")
    p.add_argument("-p", dest="p", type=int, required=True, help="field characteristic")
    p.add_argument("-t", dest="t", type=int, required=True, help="Frobenius trace")
    p.add_argument("-L", dest="ells", required=True, help="isogeny degrees, e.g. 3,5,7")
    p.add_argument("--planted", type=int, default=None,
                   help="plant this exponent instead of a seeded random one")
    _add_common(p)
    p.set_defaults(func=cmd_dlpdemo)

    return parser


def _emit(args, artifacts: dict, params: dict) -> None:
    """Write each artifact and the manifest that holds their digests.

    Each artifact's pieces are consumed once: UTF-8-encoded, added to its
    sha256 and written, to a file opened in binary mode under ``--out`` (so
    the digest is that of the bytes on disk), or without ``--out`` to stdout
    for the primary artifact, while the others are only hashed.  The
    manifest comes last.  Every computation and check has finished before
    this is called; only the layout runs as the pieces are consumed.
    """
    if args.out is None:
        primary = _PRIMARY[args.cmd].get(args.format)
        if primary is None or primary not in artifacts:
            raise InputError(f"{args.cmd} does not produce {args.format} output")
    else:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, pieces in sorted(artifacts.items()):
        digest = hashlib.sha256()
        if args.out is not None:
            with open(outdir / name, "wb") as fh:
                for piece in pieces:
                    data = piece.encode("utf-8")
                    digest.update(data)
                    fh.write(data)
        else:
            for piece in pieces:
                digest.update(piece.encode("utf-8"))
                if name == primary:
                    sys.stdout.write(piece)
        outputs[name] = "sha256:" + digest.hexdigest()
    manifest = {
        "subcommand": args.cmd,
        "parameters": params,
        "seed": args.seed,
        "version": __version__,
        "outputs": outputs,
    }
    if args.out is not None:
        (outdir / "manifest.json").write_bytes(_dumps(manifest).encode("utf-8"))
    else:
        # the manifest rides the diagnostic stream, compact, as the last line
        sys.stderr.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        artifacts, params, code = args.func(args)
        _emit(args, artifacts, params)
    except InputError as e:
        print(f"error (input): {e}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as e:
        print(f"error (precondition): {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalConsistencyError as e:
        print(f"error (internal-consistency): {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as e:
        print(f"error (input): {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # every failure maps to an exit code, never a traceback
        print(f"error (internal): {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
