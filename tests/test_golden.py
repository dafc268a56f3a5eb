"""Pinned sha256 digests of every CLI artifact over a small command matrix.

The manifests, ``spectrum.json`` and the ``verify`` parameters echo the
paths they were given, so the matrix runs with a temporary directory as the
working directory and relative paths only.  A change that alters one byte of
any artifact fails here; a change meant to do so must say why and update the
digests in the same commit.
"""
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from isocayley.cli import main

GROUP_FILE = "g48.grp"
GROUP_TEXT = "invariants: 4 12\nsubgroup H: 1,2 0,3\n"

D_SOURCE = ["-D", "-30315", "--bound", "40"]  # Cl = Z/2 x Z/2 x Z/14, degree 14
G_SOURCE = ["--group-file", GROUP_FILE, "--gens", "1:0,0:1,1:5"]

# (output directory, argv without --out), run in order
MATRIX = [
    ("classgroup", ["classgroup", "-D", "-30315"]),
    ("spectrum_d", ["spectrum", "-D", "-30315", "--bound", "60", "--delta", "0.3"]),
    ("spectrum_g", ["spectrum", "--group-file", GROUP_FILE, "--gens", "1:2,0:3",
                    "--subgroup", "H"]),
    ("mix_d", ["mix", *D_SOURCE, "--target", "13:-1:583,21:3:361", "--trials", "2000",
               "--seed", "5"]),
    ("mix_g", ["mix", *G_SOURCE, "--start", "1:1", "--target", "0:1,2:3,3:7",
               "--trials", "2000", "--seed", "6"]),
    ("path_d", ["path", *D_SOURCE, "-A", "id", "-B", "79:69:111", "--seed", "7"]),
    ("verify_d", ["verify", *D_SOURCE, "path_d/certificate.json"]),
    ("path_g", ["path", *G_SOURCE, "-A", "1:1", "-B", "3:7", "--seed", "8"]),
    ("verify_g", ["verify", *G_SOURCE, "path_g/certificate.json"]),
    ("ecgraph", ["ecgraph", "-p", "31", "-t", "3", "-L", "5,7"]),
    ("dlpdemo", ["dlpdemo", "-p", "2003", "-t", "1", "-L", "5,7"]),
]

GOLDEN = {
    "classgroup/classgroup.json":
        "96ca8bc30230061e0a1065c20f7b1ea389dcab6ab18f12d32001b6b516cf7564",
    "classgroup/manifest.json":
        "aaf3438b1d3eca66d3bd21167bfa5633162805b6948ba4a3915d8ba7fdfc1eaa",
    "spectrum_d/graph.dot":
        "1f756e2426753cad82324d8406fbe7d2b829044397128e8153318cf368cf2fde",
    "spectrum_d/manifest.json":
        "9443ce5030606aeae29dd7fccdaf33094d37d1ba1cc4ab0984f2daf99a46cc23",
    "spectrum_d/scan.csv":
        "a3510a4b24e0d89fb4be7e237a2041db21e111af5e90f060fac0c11ac1f575d2",
    "spectrum_d/spectrum.json":
        "09ca509b1b6ebb6772750938a4f1d06d611b3ebe95e5f7007a54770e6c2038b5",
    "spectrum_g/graph.dot":
        "c2083f1540881d53b7551c24778baa42cc517b38a163a256eafaf80bf1f7cc75",
    "spectrum_g/manifest.json":
        "d7abe91fc81bab27c333aa34db150709177c705214fad4ee6cbc5cd694910473",
    "spectrum_g/spectrum.json":
        "4ff20fb3c398098863ec6752eda989d58312ea1c01d416cecf89d1a3d67e42d5",
    "mix_d/manifest.json":
        "b0c12587b192fa9275033edc51accb55fd0a7093f6d1ab8a4601e472c3fbf23d",
    "mix_d/mix.json":
        "f83656ba12ec9510e06dee699e1b23c7867dd74741bca7303d9b33b729e11ff6",
    "mix_g/manifest.json":
        "5cd2d2845f8606b77f911f9db4f8358bd006b8a42148db6f39f00cd3eda44108",
    "mix_g/mix.json":
        "c3429591dfbb1561652c8f7a0508750224047198d4b4028aba806586b10af221",
    "path_d/certificate.json":
        "9a6e6ddbee4c3bf426f2c1ab5cbf75f669bb8bc6f5e35f75e6c3623173572ae6",
    "path_d/manifest.json":
        "4b6e0653d4b755631f6a3e728d05f91884aadc79738b27f739c8a93bcbe72352",
    "verify_d/manifest.json":
        "16f41c3a3d678a3ae717b05eee4c0a6bfe519daf39ef335225708927b3f118eb",
    "verify_d/verify.json":
        "0c4b2d68453e7507c0a7de6f6eaa52909e9c511702fe46dd4bbd9e3e867a751c",
    "path_g/certificate.json":
        "2c040895e625d191b7013c73110b3aa9bf6c505ecc7b4c2043f529c7f7a38965",
    "path_g/manifest.json":
        "bf7e45d2f1a7c6545c84e1b9b0b2a86c57fcf2c1cb7d351c846f209ba7db2260",
    "verify_g/manifest.json":
        "88b40824c8e1c2e613d6ca9e713a6e5e31a18b87ae7d35aa477eedcb487a65ff",
    "verify_g/verify.json":
        "1d7084ca8967b31610da15fea0175c8cceec40f39b9074e432c8a2c27609e768",
    "ecgraph/ecgraph.json":
        "05850fbbd1f2fd41a6671bd8847e75d51a689e904fdcc8d1fe70d4ba83b4ca6f",
    "ecgraph/graph.dot":
        "ffa7e8544cb05e9cc9f5877843bd5243676ea847f834790c34415bf42e535246",
    "ecgraph/manifest.json":
        "f3bef3a6a3358671c299d367262fe433e8f50ef41b1322a5c1b4f9d0952ffea2",
    "dlpdemo/dlpdemo.json":
        "82870195915f8413611da065b1dc29b28bfe730f218963beac80cdd61753375c",
    "dlpdemo/manifest.json":
        "3d3e6ebc8b165ebc873ad19aec8ee7dcca426be32e958937a4c67207756922b3",
}


def test_artifact_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / GROUP_FILE).write_text(GROUP_TEXT, encoding="utf-8")
    got = {}
    for out, argv in MATRIX:
        assert main(argv + ["--out", out]) == 0, (out, capsys.readouterr().err)
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                got[f"{out}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    assert got == GOLDEN


# OpenBLAS kernels, each with the instruction set it needs
KERNELS = {"Prescott": "SSE3", "Nehalem": "SSE42", "SandyBridge": "AVX", "Haswell": "AVX2",
           "SkylakeX": "AVX512_SKX"}
MIX_RUNS = [(out, argv) for out, argv in MATRIX if argv[0] == "mix"]


def _openblas_config() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["openblas configuration"]
    except (TypeError, KeyError):  # numpy before 1.26 prints, and returns None
        return ""


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _assert_one_digest_per_kernel(tmp_path, env, runs):
    """Run ``runs``, (output directory, argv) pairs, in one child process per
    OpenBLAS kernel (picked by OPENBLAS_CORETYPE) that this CPU can run, and
    require one digest per artifact across them."""
    if "DYNAMIC_ARCH" not in _openblas_config():
        pytest.skip("numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH, "
                    "so OPENBLAS_CORETYPE cannot pick a kernel")
    features = _cpu_features()
    ran = [kernel for kernel, needs in KERNELS.items() if features.get(needs)]
    script = ("from isocayley.cli import main\n"
              f"for out, argv in {runs!r}:\n"
              "    assert main(argv + ['--out', out]) == 0, out\n")
    digests: dict = {}
    for kernel in ran:
        cwd = tmp_path / kernel
        cwd.mkdir()
        (cwd / GROUP_FILE).write_text(GROUP_TEXT, encoding="utf-8")
        r = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                           text=True, env=env | {"OPENBLAS_CORETYPE": kernel})
        assert r.returncode == 0, (kernel, r.stderr)
        for out, _ in runs:
            for name in os.listdir(cwd / out):
                digest = hashlib.sha256((cwd / out / name).read_bytes()).hexdigest()
                digests.setdefault(f"{out}/{name}", {}).setdefault(digest, []).append(kernel)
    assert all(len(by_digest) == 1 for by_digest in digests.values()), digests
    if len(ran) < len(KERNELS):
        pytest.skip(f"checked {', '.join(ran) or 'no kernel'} only: this CPU lacks the "
                    f"instructions of {', '.join(k for k in KERNELS if k not in ran)}")


def test_mix_bytes_do_not_depend_on_the_blas_kernel(tmp_path, subprocess_env):
    """Golden's mix commands give one digest per artifact under every kernel."""
    _assert_one_digest_per_kernel(tmp_path, subprocess_env, MIX_RUNS)


def test_ecgraph_bytes_do_not_depend_on_the_blas_kernel(tmp_path, subprocess_env):
    """The bench-scale isogeny graph, h = 56 over F_9973 at L = {3, ..., 13},
    gives one digest per artifact under every kernel."""
    _assert_one_digest_per_kernel(tmp_path, subprocess_env,
                        [("ecgraph", ["ecgraph", "-p", "9973", "-t", "1", "-L", "3,5,7,11,13"])])
