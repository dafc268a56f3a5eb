"""Fork-per-operation runner, the per-operation correctness gate, and the
passes of one benchmark run.

Each operation is one real CLI invocation, ``isocayley.cli.main(argv +
["--out", dir])``, run in a child forked from a parent that has already
imported the package.  Two CLI runs share no in-process state (such as a
built class group), so two operations must not share it either; the fork
gives each a fresh copy of the imported modules and nothing else.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass

import jsonschema

from isocayley import cli
from tracer import Tracer, add_summaries, load_spans, op_summary
from workloads import PRIMARY_JSON, make_ops, verdict_problem

EXIT_CRASH = 70  # the child raised instead of returning an exit code
# a child still running after this long is killed by its own alarm, so no
# operation outlives the run; it then counts as failed
OP_TIMEOUT_S = 150


@dataclass(frozen=True)
class OpRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def run_op(argv: list[str], cwd: str, out: str, trace_path: str | None = None,
           op_id: int = 0) -> OpRun:
    """Run one CLI invocation in a forked child and wait for it.

    The child works in ``cwd``, writes artifacts to ``out`` (relative to
    ``cwd``) and its stdout/stderr to ``out + ".log"``.  With ``trace_path``
    it records spans and saves them there before it exits."""
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = EXIT_CRASH
        try:
            signal.alarm(OP_TIMEOUT_S)
            os.chdir(cwd)
            fd = os.open(out + ".log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            tracer = None
            if trace_path is not None:
                tracer = Tracer(op_id)
                tracer.install()
            code = cli.main([*argv, "--out", out])
            if tracer is not None:
                tracer.save(trace_path)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return OpRun(wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status))


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _schema_problem(name: str, doc) -> str | None:
    schema = cli.schema_for(cli.ARTIFACT_SCHEMAS[name])
    try:
        jsonschema.validators.validator_for(schema)(schema).validate(doc)
    except jsonschema.ValidationError as e:
        return f"{name} fails its schema: {e.message}"
    return None


def read_manifest(outdir: str) -> tuple[dict, list[str]]:
    """The manifest's output digests, and every way they disagree with the
    files on disk (or the manifest with its schema)."""
    try:
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as e:
        return {}, [f"no readable manifest: {e}"]
    problem = _schema_problem("manifest.json", manifest)
    if problem:
        return {}, [problem]
    problems = []
    for name, digest in manifest["outputs"].items():
        try:
            with open(os.path.join(outdir, name), "rb") as fh:
                actual = _sha256(fh.read())
        except OSError as e:
            problems.append(f"{name} missing: {e}")
            continue
        if actual != digest:
            problems.append(f"{name} does not match its manifest digest")
    return manifest["outputs"], problems


def artifact_problems(subcommand: str, outdir: str, outputs: dict) -> list[str]:
    """Schema and verdict failures of an operation's JSON artifacts."""
    problems = []
    docs = {}
    for name in outputs:
        if name not in cli.ARTIFACT_SCHEMAS:
            continue
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            try:
                docs[name] = json.load(fh)
            except ValueError as e:
                problems.append(f"{name} is not JSON: {e}")
                continue
        problem = _schema_problem(name, docs[name])
        if problem:
            problems.append(problem)
    if problems:
        return problems
    primary = PRIMARY_JSON[subcommand]
    if primary not in docs:
        return [f"primary artifact {primary} missing"]
    problem = verdict_problem(subcommand, docs[primary])
    return [problem] if problem else []


class Run:
    """The passes of one benchmark run and their correctness bookkeeping."""

    def __init__(self, workload: str, seed: int, run_dir: str):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, dict] = {}  # op name -> outputs of its first pass
        self._verdicts: dict[tuple, list[str]] = {}  # identical bytes, identical verdict
        self._passes = 0

    def run_pass(self, trace: bool) -> dict:
        """One pass: each operation's (metric, OpRun), the summed op
        summaries (traced) and the artifact byte count."""
        self._passes += 1
        pass_dir = f"pass{self._passes}"
        os.mkdir(os.path.join(self.run_dir, pass_dir))
        runs, summaries, nbytes = [], [], 0
        for op_id, op in enumerate(make_ops(self.workload, self.seed, pass_dir)):
            out = f"{pass_dir}/{op.name}"
            outdir = os.path.join(self.run_dir, out)
            spans = outdir + ".spans.npz" if trace else None
            r = run_op(list(op.argv), self.run_dir, out, spans, op_id)
            self.attempted += 1
            runs.append((op.metric, r))
            problems = [f"exit code {r.exit_code}"] if r.exit_code else []
            if not problems:
                outputs, problems = read_manifest(outdir)
                if not problems:
                    key = (op.argv[0], tuple(sorted(outputs.items())))
                    if key not in self._verdicts:
                        self._verdicts[key] = artifact_problems(op.argv[0], outdir, outputs)
                    problems = list(self._verdicts[key])
                    if self.digests.setdefault(op.name, outputs) != outputs:
                        problems.append("digests differ from the first pass with this seed")
                    nbytes += sum(os.path.getsize(os.path.join(outdir, n)) for n in outputs)
            if problems:
                self.failures.append({"pass": self._passes, "op": op.name,
                                      "argv": list(op.argv), "problems": problems})
            if trace and os.path.exists(spans):
                summaries.append(op_summary(load_spans(spans)))
        shutil.rmtree(os.path.join(self.run_dir, pass_dir))
        return {"ops": runs, "trace": add_summaries(summaries), "artifact_bytes": nbytes}

    def run_passes(self, seconds: float, trace: bool) -> list[dict]:
        """Passes until ``seconds`` of operation time is spent (at least one)."""
        passes, spent = [], 0.0
        while not passes or spent < seconds:
            passes.append(self.run_pass(trace))
            spent += sum(r.wall_s for _, r in passes[-1]["ops"])
        return passes
