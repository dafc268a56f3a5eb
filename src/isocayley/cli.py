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
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

from . import __version__, abelian, cayley, ecgraph, pathfind, quadform, walks
from .errors import InputError, InternalConsistencyError, PreconditionError

__all__ = ["main", "schema_for", "ARTIFACT_SCHEMAS"]

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


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ints(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"{what}: expected comma-separated integers, got {text!r}") from None


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
        """A vertex from its CLI spelling ('id', 'a:b:c' or 'c1:c2:...')."""
        if spec == "id":
            if self.cls_group is not None:
                return self.cls_group.element_of(self.cls_group.identity)
            return self.graph.vertices[0].group.identity
        coords = _vector_items(spec, "vertex")[0]
        if self.cls_group is not None:
            if len(coords) != 3:
                raise InputError(f"vertex {spec!r}: expected a form triple a:b:c")
            cl = quadform.form_class(quadform.QuadForm(*coords))
            return self.cls_group.element_of(cl)
        return self.graph.vertices[0].group.element(coords)


def _form_generators(cls_group, text: str) -> list:
    d = cls_group.discriminant.value
    gens = []
    for triple in _vector_items(text, "--gens"):
        if len(triple) != 3:
            raise InputError(f"--gens: {':'.join(map(str, triple))} is not a form triple")
        f = quadform.QuadForm(*triple)
        if f.discriminant != d:
            raise InputError(
                f"--gens: form {triple} has discriminant {f.discriminant}, expected {d}"
            )
        gens.append(quadform.form_class(f))
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


def _build_graph(args) -> _Graph:
    if getattr(args, "disc", None) is not None and getattr(args, "group_file", None):
        raise InputError("give either -D or --group-file, not both")
    if getattr(args, "disc", None) is not None:
        cls = quadform.class_group(args.disc)
        if args.gens:
            sub = abelian.subgroup_generated(
                cls.group, [cls.element_of(c) for c in _form_generators(cls, args.gens)]
            )
        else:
            sub = abelian.full_subgroup(cls.group)
        if args.bound is None:
            raise InputError("-D graphs need --bound to pick the prime-form generators")
        s_b = quadform.generating_multiset(cls, args.bound, sub)
        if not s_b:
            raise PreconditionError(
                f"no prime form below {args.bound} lands in the chosen subgroup"
            )
        names = [":".join(str(x) for x in cls.from_element[v].triple()) for v in sub]
        graph = cayley.build(sub, [(g.label, g.element) for g in s_b], names)
        return _Graph(graph, cls_group=cls,
                      source={"discriminant": args.disc, "bound": args.bound})
    if getattr(args, "group_file", None):
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
        if args.subgroup:
            try:
                sub = gf.subgroups[args.subgroup]
            except KeyError:
                raise InputError(
                    f"the group file defines no subgroup named {args.subgroup!r}"
                ) from None
            for lbl, e in labeled:
                if e not in sub:
                    raise InputError(f"generator {lbl} lies outside subgroup {args.subgroup!r}")
        else:
            sub = abelian.subgroup_generated(gf.group, [e for _, e in labeled])
        graph = cayley.build(sub, _closed_under_inversion(labeled))
        return _Graph(graph, source={"group_file": str(args.group_file)})
    raise InputError("pick a graph source: -D <disc> or --group-file <path>")


def _graph_params(args) -> dict:
    return {
        "disc": getattr(args, "disc", None),
        "group_file": getattr(args, "group_file", None),
        "gens": getattr(args, "gens", None),
        "subgroup": getattr(args, "subgroup", None),
        "bound": getattr(args, "bound", None),
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (artifacts, parameter echo, exit code)
# ---------------------------------------------------------------------------


def cmd_classgroup(args):
    cls = quadform.class_group(args.disc)
    return {"classgroup.json": cls.to_json_text()}, {"disc": args.disc}, EXIT_OK


def cmd_spectrum(args):
    ctx = _build_graph(args)
    graph = ctx.graph
    if graph.degree == 0:
        raise PreconditionError("the generating set is empty: nothing to measure")
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
    artifacts = {"graph.dot": cayley.to_dot(graph, title="spectrum")}
    if ctx.cls_group is not None:
        best, rows = cayley.find_expander_bound(
            ctx.cls_group, graph.subgroup, args.delta, args.bound
        )
        data["expander_bound"] = best
        artifacts["scan.csv"] = cayley.scan_table_csv(rows)
    elif args.format == "csv":
        raise InputError("scan tables need a discriminant source; use -D")
    artifacts["spectrum.json"] = _dumps(data)
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
    return {"mix.json": walks.report_json_text(result, names)}, params, EXIT_OK


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
    text = pathfind.certificate_to_json_text(cert, ctx.graph)
    params = _graph_params(args) | {"a": args.vertex_a, "b": args.vertex_b}
    return {"certificate.json": text}, params, EXIT_OK


def cmd_verify(args):
    ctx = _build_graph(args)
    try:
        raw = Path(args.certificate).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read certificate: {e}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"certificate is not JSON: {e}") from None
    cert = pathfind.certificate_from_json(data, ctx.graph)
    ok = pathfind.replay(ctx.graph, cert)
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
    return {"verify.json": _dumps(out)}, params, EXIT_OK if ok else EXIT_CHECK_FAILED


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
        "ecgraph.json": _dumps(data),
        "graph.dot": cayley.to_dot(g, title=f"isogeny_p{args.p}_t{args.t}"),
    }
    params = {"p": args.p, "t": args.t, "ells": args.ells}
    code = EXIT_OK if rep.verdict == "PASS" else EXIT_CHECK_FAILED
    return artifacts, params, code


def cmd_dlpdemo(args):
    ells = _ints(args.ells, "-L")
    out = ecgraph.run_dlp_demo(args.p, args.t, ells, args.seed, planted=args.planted)
    params = {"p": args.p, "t": args.t, "ells": args.ells, "planted": args.planted}
    code = EXIT_OK if out["verified"] else EXIT_CHECK_FAILED
    return {"dlpdemo.json": _dumps(out)}, params, code


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    v = int(text)
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return v


def _add_common(sp):
    sp.add_argument("--seed", type=_seed, default=0, help="PRNG seed (u64, default 0)")
    sp.add_argument("--out", default=None, help="directory for artifacts + manifest.json")
    sp.add_argument(
        "--format", choices=("json", "csv", "dot"), default="json",
        help="which artifact goes to stdout when --out is not given",
    )


def _add_graph_source(sp, with_bound=True):
    sp.add_argument("-D", "--disc", type=int, default=None,
                    help="build the graph on the class group of this discriminant")
    sp.add_argument("--group-file", default=None,
                    help="build the graph from an abstract group file instead")
    sp.add_argument("--gens", default=None,
                    help="comma-separated form triples a:b:c (with -D) or "
                         "coordinate vectors c1:c2:... (with --group-file)")
    sp.add_argument("--subgroup", default=None,
                    help="named subgroup from the group file to walk on")
    if with_bound:
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
    p.add_argument("-D", "--disc", type=int, required=True, help="discriminant (signed)")
    _add_common(p)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("spectrum", help="exact spectrum, scan table and DOT export")
    _add_graph_source(p)
    p.add_argument("--delta", type=float, default=0.0,
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
    manifest = {
        "subcommand": args.cmd,
        "parameters": params,
        "seed": args.seed,
        "version": __version__,
        "outputs": {name: _digest(text) for name, text in sorted(artifacts.items())},
    }
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            (outdir / name).write_text(text, encoding="utf-8")
        (outdir / "manifest.json").write_text(_dumps(manifest), encoding="utf-8")
        return
    primary = _PRIMARY[args.cmd].get(args.format)
    if primary is None or primary not in artifacts:
        raise InputError(f"{args.cmd} does not produce {args.format} output")
    sys.stdout.write(artifacts[primary])
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
