"""Replay captured scan plans on every kernel: exactness and kernel time.

Captures the plans that ``enumeration._compile`` builds during
``pottsverify sweep --suite all --trials T --seed S`` (one sweep per seed,
run through ``cli.main`` in this process) and during pass 0 of the
benchmark's ``dense_events`` and ``ring_cli`` workloads at each workload
seed (``perfbench/workloads.py``, imported and never written; ``ring_cli``
writes its model file to a temporary directory).  Then, on every plan with
at least one sum:

* it runs all three kernels, ``_cluster``, ``_eliminate`` and
  ``_scan_classes``, and checks that they return identical integers;
* it times each kernel on each plan, as the best of ``--repeat`` runs of
  process time, and prints one row per source and dispatch pick (the
  kernel that ``_choose_kernel`` chose) with each kernel's total over the
  pick's plans.  The memos of what does not depend on the weights (the
  structures, the odometer's levels, the request terms) stay warm, while
  each run builds the odometer's class weights, each level's factor table
  included, and its family values afresh, so a timing is the kernel's work on the plan and not a
  hit of the memos that the exactness run filled;
* it prints one ``all`` row per source: the total time of the dispatched
  kernels next to the per-plan best, the sum of each plan's fastest time,
  which is what a dispatch that always picked the fastest kernel would
  take.

Exit status 0 when every plan agrees, 1 when some plan does not (the
mismatching plans are listed on stderr).

Usage: python3 tools/kernel_replay.py [--trials T] [--seeds S ...]
           [--workload-seeds W ...] [--size full|small] [--repeat K]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pottsverify  # noqa: E402
from pottsverify import cli, enumeration  # noqa: E402

KERNELS = {"cluster": enumeration._cluster, "elimination": enumeration._eliminate,
           "odometer": enumeration._scan_classes}


@contextlib.contextmanager
def captured_plans():
    """Every plan ``_compile`` returns inside the block, appended in order
    to the yielded list."""
    plans = []
    compile_plan = enumeration._compile

    def capture(groups):
        plans.append(compile_plan(groups))
        return plans[-1]

    enumeration._compile = capture
    try:
        yield plans
    finally:
        enumeration._compile = compile_plan


def sweep_plans(trials: int, seed: int) -> list:
    """The plans of one ``sweep --suite all`` run."""
    argv = ["sweep", "--suite", "all", "--trials", str(trials), "--seed", str(seed)]
    with captured_plans() as plans, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"sweep at seed {seed} exited {code}")
    return plans


def workload_plans(name: str, seed: int, size: str) -> list:
    """The plans of pass 0 of the benchmark workload ``name`` at ``seed``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name](seed, size)
    with tempfile.TemporaryDirectory() as workdir:
        workload.prepare(pottsverify, cli, Path(workdir))
        with captured_plans() as plans:
            for call in workload.calls(0):
                call.thunk()
    return plans


def best_time(kernel, plan, repeat: int) -> float:
    """The least process time, in seconds, of ``repeat`` runs of ``kernel``
    on ``plan``, each after clearing the odometer's class weights and
    family values; its levels stay warm."""
    best = float("inf")
    for _ in range(repeat):
        enumeration._class_weights.cache_clear()
        enumeration._family_values.cache_clear()
        start = time.process_time()
        kernel(plan)
        best = min(best, time.process_time() - start)
    return best


def replay(source: str, plans: list, repeat: int) -> tuple[int, int]:
    """Check and time one source's plans with sums; print its picks and
    rows, and return (plans checked, plans whose kernels disagree)."""
    picks: dict[str, list] = {}  # pick -> one {kernel: time} per plan
    mismatches = 0
    for i, plan in enumerate(plans):
        if not plan.sums:
            continue
        if len({tuple(kernel(plan)) for kernel in KERNELS.values()}) != 1:
            mismatches += 1
            print(f"{source}: plan {i} (n={plan.n}, q={plan.q}) differs between kernels",
                  file=sys.stderr)
        picks.setdefault(enumeration._choose_kernel(plan), []).append(
            {name: best_time(kernel, plan, repeat) for name, kernel in KERNELS.items()})
    checked = sum(map(len, picks.values()))
    print(f"{source}: {len(plans)} plans, {checked} with sums, picks "
          + ", ".join(f"{pick} {len(group)}" for pick, group in sorted(picks.items())))
    for pick, group in sorted(picks.items()):
        times = "  ".join(f"{name} {sum(t[name] for t in group) * 1e3:9.2f} ms"
                          for name in KERNELS)
        print(f"{source:<16} {pick:<12} {len(group):>4} plans  {times}")
    dispatched = sum(t[pick] for pick, group in picks.items() for t in group)
    best = sum(min(t.values()) for group in picks.values() for t in group)
    print(f"{source:<16} {'all':<12} {checked:>4} plans  dispatched {dispatched * 1e3:9.2f} ms"
          f"  per-plan best {best * 1e3:9.2f} ms")
    return checked, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="*", default=[42, 7, 3])
    parser.add_argument("--workload-seeds", type=int, nargs="*", default=[1, 5])
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="the workloads' models: dense_events at n=8, q=4 and ring_cli "
                             "at n=12, q=3 (full), or n=6, q=2 and n=6, q=3 (small)")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    sources = [(f"sweep:{seed}", lambda seed=seed: sweep_plans(args.trials, seed))
               for seed in args.seeds]
    sources += [(f"{name}:{seed}", partial(workload_plans, name, seed, args.size))
                for name in ("dense_events", "ring_cli") for seed in args.workload_seeds]
    print(f"{'source':<16} {'dispatched':<12} {'':>4} plans  best of {args.repeat}, process time")
    checked = mismatched = 0
    for source, plans in sources:
        n, bad = replay(source, plans(), args.repeat)
        checked += n
        mismatched += bad
    print(f"{checked} plans with sums; {mismatched} differ between kernels")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
