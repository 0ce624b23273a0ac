"""The benchmark's traced sweep run, end to end on a copy of the tree: it
must report every per-layer metric and end in strict JSON, which a scan
routed around ``correlation_sums``, a changed result of that function or
package output on stdout would each break."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


def test_traced_sweep_run_reports_every_per_layer_metric(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_mixed", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.endswith("= absent")]
    result = json.loads(lines[-1], parse_constant=_refuse)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {metric["name"] for metric in spec["per_layer"]}
