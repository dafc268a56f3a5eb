"""The benchmark workloads: seeded CLI argv lists and their verdict checks.

Every vertex, target and ``--seed`` the program sees is derived here from
the workload seed, so one seed always gives the same argv lists.  Vertices
are reduced form triples a:b:c (or group coordinates c1:c2 for the group
file), which is what the CLI accepts; they are built without the package,
so input generation shares no state with the operations it feeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

D_CYCLIC = -9999991  # Cl(D) cyclic, h = 1715
D_RANK4 = -9999960  # Cl(D) = (Z/2)^3 x Z/192, h = 1536
# ROADMAP's B <= 2000 expander scan (about 22 s) is represented by B = 200
# so that one pass stays short; the scan code path is the same.
SPECTRUM_BOUND = "200"
WALK_BOUND = "50"
TRIALS = "100000"

GROUP48_FILE = "group48.txt"
GROUP48_TEXT = "invariants: 4 12\n"
GROUP48_GENS = "1:0,0:1,1:5"


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``name`` is unique in a pass and names the
    output directory; ``metric`` is the end-to-end metric its wall time
    adds to."""

    name: str
    metric: str
    argv: tuple[str, ...]


# the per-command end-to-end metrics, in report order
COMMAND_METRICS = (
    "classgroup_s",
    "spectrum_s",
    "spectrum_rank4_s",
    "mix_s",
    "mix_small_s",
    "path_s",
    "verify_s",
    "ecgraph_s",
    "dlpdemo_s",
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced positive definite form equivalent to (a, b, c)."""
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            b, c = b + 2 * a * k, a * k * k + b * k + c
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            continue
        return a, b, c


def _random_class(rng: random.Random, disc: int) -> str:
    """A reduced triple of the class of a random prime form of disc < 0.

    The prime l is drawn with l = 3 mod 4 and (disc / l) = 1, so
    b = (disc mod l)^((l + 1) / 4) is a square root of disc mod l."""
    while True:
        ell = rng.randrange(1_000, 1_000_000)
        if ell % 4 != 3 or not _is_prime(ell) or pow(disc % ell, (ell - 1) // 2, ell) != 1:
            continue
        b = pow(disc % ell, (ell + 1) // 4, ell)
        if (b - disc) % 2:
            b = ell - b
        if rng.random() < 0.5:
            b = -b
        return ":".join(map(str, _reduce(ell, b, (b * b - disc) // (4 * ell))))


def _distinct_classes(rng: random.Random, disc: int, n: int) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        v = _random_class(rng, disc)
        if v not in out:
            out.append(v)
    return out


def _seed(rng: random.Random) -> str:
    return str(rng.getrandbits(63))


def make_ops(workload: str, seed: int, pass_dir: str) -> list[Op]:
    """The operations of one pass.  ``pass_dir`` is relative to the run
    directory, which is the working directory of every operation."""
    rng = random.Random(f"isocayley-bench/{workload}/{seed}")
    d = str(D_CYCLIC)
    if workload == "forms-scan":
        s = _seed(rng)
        return [
            Op("classgroup", "classgroup_s", ("classgroup", "-D", d, "--seed", s)),
            Op("spectrum", "spectrum_s",
               ("spectrum", "-D", d, "--bound", SPECTRUM_BOUND, "--seed", s)),
            Op("spectrum_rank4", "spectrum_rank4_s",
               ("spectrum", "-D", str(D_RANK4), "--bound", SPECTRUM_BOUND, "--seed", s)),
        ]
    if workload == "walk-streams":
        graph = ("-D", d, "--bound", WALK_BOUND)
        ops = [
            Op("mix", "mix_s",
               ("mix", *graph, "--trials", TRIALS,
                "--target", ",".join(_distinct_classes(rng, D_CYCLIC, 8)),
                "--seed", _seed(rng))),
        ]
        cells = rng.sample([(x, y) for x in range(4) for y in range(12)], 3)
        ops.append(
            Op("mix_small", "mix_small_s",
               ("mix", "--group-file", GROUP48_FILE, "--gens", GROUP48_GENS,
                "--trials", TRIALS, "--target", ",".join(f"{x}:{y}" for x, y in cells),
                "--seed", _seed(rng)))
        )
        for i in range(1, 4):
            a, b = _distinct_classes(rng, D_CYCLIC, 2)
            ops.append(Op(f"path{i}", "path_s",
                          ("path", *graph, "-A", a, "-B", b, "--seed", _seed(rng))))
        for i in range(1, 4):
            cert = f"{pass_dir}/path{i}/certificate.json"
            ops.append(Op(f"verify{i}", "verify_s", ("verify", *graph, cert)))
        return ops
    if workload == "isogeny-cap":
        return [
            Op("ecgraph", "ecgraph_s",
               ("ecgraph", "-p", "9973", "-t", "1", "-L", "3,5,7,11,13", "--seed", _seed(rng))),
            Op("dlpdemo", "dlpdemo_s",
               ("dlpdemo", "-p", "2003", "-t", "1", "-L", "5,7", "--seed", _seed(rng))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# the primary JSON artifact of each subcommand
PRIMARY_JSON = {
    "classgroup": "classgroup.json",
    "spectrum": "spectrum.json",
    "mix": "mix.json",
    "path": "certificate.json",
    "verify": "verify.json",
    "ecgraph": "ecgraph.json",
    "dlpdemo": "dlpdemo.json",
}


def verdict_problem(subcommand: str, doc: dict) -> str | None:
    """Why a primary artifact says "no", or None when it does not."""
    if subcommand == "mix" and doc["verdict"] != "PASS":
        return "mix verdict is not PASS"
    if subcommand == "ecgraph" and doc["comparison"]["verdict"] != "PASS":
        return "ecgraph comparison is not PASS"
    if subcommand == "dlpdemo" and doc["verified"] is not True:
        return "dlpdemo transfer not verified"
    if subcommand == "verify" and doc["valid"] is not True:
        return "certificate replay not valid"
    return None
