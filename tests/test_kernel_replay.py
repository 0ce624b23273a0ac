"""Smoke tests of ``tools/kernel_replay.py``: it replays a small sweep's and
small ``dense_events`` and ``ring_cli`` passes' plans on every kernel,
prints per source the dispatched kernels' time next to the per-plan best,
and its exit status says whether they all agree.  At ``--size small`` the
six-site ring is clustered, so its picks are not asserted."""

import functools
import importlib.util
import itertools
import subprocess
import sys
from pathlib import Path

from pottsverify import EVERYWHERE, IndexList, build_model, enumeration
from pottsverify.enumeration import _compile

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_replay.py"
ARGS = ["--trials", "2", "--seeds", "42", "7", "--workload-seeds", "1", "--size", "small",
        "--repeat", "1"]


def test_every_kernel_agrees_on_every_replayed_plan():
    done = subprocess.run([sys.executable, str(TOOL), *ARGS], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].endswith("plans with sums; 0 differ between kernels")
    assert int(lines[-1].split()[0]) > 0
    assert any(line.startswith("dense_events:1 ") and " odometer " in line for line in lines)
    for source in ("sweep:42", "sweep:7", "dense_events:1", "ring_cli:1"):
        [row] = [line.split() for line in lines
                 if line.startswith(f"{source} ") and " all " in line]
        assert row[1:] == ["all", row[2], "plans", "dispatched", row[5], "ms", "per-plan",
                           "best", row[9], "ms"]
        assert float(row[9]) <= float(row[5])


def load_tool():
    spec = importlib.util.spec_from_file_location("kernel_replay", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_kernel_that_disagrees_fails_the_replay(monkeypatch, capsys):
    tool = load_tool()
    odometer = tool.KERNELS["odometer"]
    monkeypatch.setitem(tool.KERNELS, "odometer",
                        lambda plan: [value + 1 for value in odometer(plan)])
    assert tool.main(ARGS) == 1
    assert "differs between kernels" in capsys.readouterr().err


def test_each_timed_odometer_run_builds_its_class_weights(monkeypatch):
    """The exactness run leaves the plan's class weights in their memo;
    ``best_time`` clears it before every run, so each of three runs misses
    it and builds them again.  Clearing resets the memo's statistics, so
    the builds are counted under the memo."""
    tool = load_tool()
    builds = []
    build = enumeration._class_weights.__wrapped__
    monkeypatch.setattr(enumeration, "_class_weights", functools.lru_cache(
        lambda *key: builds.append(key) or build(*key)))
    model = build_model(5, 3, [(pair, 2) for pair in itertools.combinations(range(1, 6), 2)])
    plan = _compile([(model, [(IndexList((1, 2)), EVERYWHERE)])])
    odometer = tool.KERNELS["odometer"]
    expected = odometer(plan)
    tool.best_time(odometer, plan, 3)
    assert len(builds) == 4 and len(set(builds)) == 1
    assert odometer(plan) == expected  # read from the memo: no build
    assert len(builds) == 4
