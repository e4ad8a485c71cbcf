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
from pathlib import Path

import numpy as np

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
