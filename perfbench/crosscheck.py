"""Cross-check the outside-in spans against cProfile on sweep_mixed.

    python3 perfbench/crosscheck.py

Runs two sweep_mixed passes at the reference seed twice: once under the
span tracer, once under cProfile.  Prints the kernel's share of the sweep
time as each sees it: the enumeration layer's busy time from the spans, and the cumulative
time of ``correlation_sums`` and of the private scan loop ``_scan_chunk``
from the profile.  The result is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time

import run
from spans import Tracer, layer_metrics

sys.path.insert(0, str(run.SRC))
PASSES = 2


def main() -> None:
    workload, *_ = run.set_up("sweep_mixed", run.REFERENCE_SEED, "full")
    traced_run = run.Run(workload, Tracer())
    traced_run.tracer.install()
    try:
        start = time.perf_counter()
        traced_run.passes(count=PASSES)
        traced_s = time.perf_counter() - start
    finally:
        traced_run.tracer.uninstall()
    values = layer_metrics(traced_run.tracer, traced_run.check_pass, PASSES, 0, 0.0)
    span_share = values["enumeration.busy_s"] * PASSES / traced_s

    profiled_run = run.Run(workload)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(profiled_run.passes, count=PASSES)
    profiled_s = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats
    cumulative = {}
    for (_file, _line, func), (_cc, _nc, _tt, ct, _callers) in stats.items():
        if func in ("_scan_chunk", "correlation_sums"):
            cumulative[func] = cumulative.get(func, 0.0) + ct

    print(f"passes={PASSES} seed={run.REFERENCE_SEED}")
    print(f"spans:    wall {traced_s:.3f} s, enumeration busy share {span_share:.3f}")
    print(f"cProfile: wall {profiled_s:.3f} s, "
          f"correlation_sums cumulative share {cumulative.get('correlation_sums', 0) / profiled_s:.3f}, "
          f"_scan_chunk cumulative share {cumulative.get('_scan_chunk', 0) / profiled_s:.3f}")


if __name__ == "__main__":
    main()
