import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_wraps_every_layer():
    # perfbench/tracing.py wraps package functions by name, and a traced layer
    # whose name is gone silently reads 0. install() rewrites module
    # attributes for the rest of the process, so it runs in a child process.
    code = (
        "import json, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer, fine=True)\n"
        "print(json.dumps(tracer.unwrapped))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
