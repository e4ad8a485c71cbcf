"""Byte-for-byte digests of the CLI's outputs, pinned across versions.

``golden/outputs.json`` holds the exit status, the stdout sha256 and the
sha256 of every file written by the runs in ``RUNS``, made into one fresh
directory that also holds the policy cache. A policy cache file is pinned by
its name (the model key) and the sha256 of its Q payload, because the zip
container stamps a write time into each member.

The file was made from a build whose outputs were taken as correct, with::

    PYTHONPATH=src python -c "import json, sys, tempfile; sys.path.insert(0, 'tests'); \\
        import test_golden as g; print(json.dumps(g.digests(tempfile.mkdtemp()), indent=1))" \\
        > tests/golden/outputs.json

and is not edited by a change that must keep the outputs byte-identical.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crosswalk_sim.cli import main

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"

RUNS = {
    "compare": ["compare", "--trials", "750", "--seed", "0", "--out", "compare"],
    # Timeouts, and the actuation delay ring on both engines.
    "compare-experiment": ["compare", "--preset", "experiment", "--trials", "20", "--seed", "3",
                           "--out", "compare-experiment"],
    # The six known collisions of the hybrid controller on lane B, far side.
    "sweep": ["simulate", "--preset", "experiment", "--lane", "B", "--side", "far",
              "--sweep", "0.5:0.05:10", "--out", "sweep"],
    **{f"trial{k}": ["replay", "--preset", "experiment", "--trial", str(k), "--out", f"trial{k}"]
       for k in range(1, 7)},
    "replay-pomdp": ["replay", "--preset", "experiment", "--gap", "0.5", "--controller", "pomdp",
                     "--out", "replay-pomdp"],
    "plot": ["plot", "compare/trials.csv", "plot/min_distance.svg"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(work) -> dict:
    """Run ``RUNS`` in order inside ``work`` (relative paths, default cache dir)."""
    work = Path(work)
    saved_env = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("CWSIM_")}
    cwd = os.getcwd()
    out: dict = {"exit": {}, "stdout": {}, "files": {}}
    try:
        os.chdir(work)
        for name, argv in RUNS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out["exit"][name] = main(argv)
            out["stdout"][name] = _sha(buf.getvalue().encode())
    finally:
        os.chdir(cwd)
        os.environ.update(saved_env)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        rel = path.relative_to(work).as_posix()
        if path.suffix == ".npz":
            with np.load(path) as data:
                out["files"][rel + ":q"] = _sha(np.ascontiguousarray(data["q"]).tobytes())
        else:
            out["files"][rel] = _sha(path.read_bytes())
    return out


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"])
    assert {k: v for k, v in got["files"].items() if v != want["files"][k]} == {}
    assert got["stdout"] == want["stdout"]


def _digest_test_in_child(**env: str) -> None:
    """Run ``test_outputs_match_golden_digests`` in a child pytest with ``env``
    added to this process's environment, and require that it passes."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_outputs_match_golden_digests"],
        cwd=root, env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0 and "1 passed" in child.stdout, child.stdout[-2000:]


@pytest.mark.parametrize("core", ["Prescott", "Nehalem"])
def test_golden_digests_hold_under_other_blas_kernels(core):
    # The golden digests pin Q's bytes, so the solver uses elementwise IEEE
    # operations only: BLAS and LAPACK round differently by kernel. OpenBLAS picks
    # its kernel by CPU when it loads, so a child process runs the digest test
    # under each of two kernels that any x86-64 CPU runs.
    _digest_test_in_child(OPENBLAS_CORETYPE=core)


@pytest.mark.parametrize("seed", ["3", "11"])
def test_golden_digests_hold_under_other_hash_seeds(seed):
    # A set of strings iterates in the order of their hashes, which Python salts
    # per process, and the benchmark pins PYTHONHASHSEED=0. So a child process
    # runs the digest test under two other seeds, each of which iterates a set of
    # the two methods, the two sides or the two lanes in the order opposite to
    # seed 0's (on CPython 3.11): no output may depend on a hash order.
    _digest_test_in_child(PYTHONHASHSEED=seed)
