"""The benchmark's golden digests, checked on a copy of the tree: pass 0 of
each workload at the reference seed must reproduce ``perfbench/golden.json``
with no failed check, as a full benchmark run at that seed requires."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in the copy's root; prints one JSON object of digests and failures.
PASS_ZERO = """
import json, sys
sys.path.insert(0, "perfbench")
import run
sys.path.insert(0, str(run.SRC))
digests, failures = {}, {}
for name in run.WORKLOADS:
    workload, _raw, _scaled = run.set_up(name, run.REFERENCE_SEED, "full")
    calls = run.Run(workload)
    [first] = calls.passes(count=1)
    digests[name], failures[name] = first["digests"], [calls.failed, calls.errors]
print(json.dumps({"digests": digests, "failures": failures}))
"""


def test_pass_zero_of_every_workload_reproduces_the_golden_digests(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", PASS_ZERO], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == {name: [0, []] for name in result["digests"]}
    assert result["digests"] == json.loads((ROOT / "perfbench" / "golden.json").read_text())
