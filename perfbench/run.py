"""pottsverify benchmark: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload sweep_mixed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  The load is a
closed loop: one process, one thread, one caller waiting on each call.

Set-up (a fresh import of the package plus input generation from the seed)
is repeated ``SETUP_REPS`` times and its median reported.  The timed phase
then repeats the workload's pass (its fixed unit of work) while the next
pass is expected to end within ``--seconds``.  Every call's output is
checked for exactness after its timer stops; see ``workloads.py``.

Times are reported at a reference machine speed.  On a shared machine the
speed of one core drifts by tens of percent within minutes, so a fixed
probe loop runs between timed calls, and each call's time is scaled by
``REFERENCE_PROBE_S`` over the mean of the probes on either side of it.
Raw times are kept beside the scaled ones in the run's output file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then the same passes again with spans around every call
into the package's layers, and reports the per-layer metrics and the
tracing overhead.  The last line of stdout is the JSON result; the run
context and the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 9
REFERENCE_PROBE_S = 0.010
MIN_PASSES = 3
REFERENCE_SEED = 42
GOLDEN = HERE / "golden.json"


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- run context -------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _probe_loop() -> float:
    start = time.perf_counter()
    digits = [0] * 8
    weight, acc = 3 ** 60, 0
    for _ in range(12_000):
        s = 7
        while True:
            d = digits[s] + 1
            carry = d == 3
            digits[s] = 0 if carry else d
            if not carry:
                break
            s -= 1
        weight = weight * 5 // 3 if digits[6] else weight * 3 // 5
        acc += weight * digits[3]
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return time.perf_counter() - start


def probe_s() -> float:
    """The machine's speed now: median seconds of three runs of a fixed loop
    shaped like the scan kernel (odometer steps over a digit list, a
    multi-word integer weight update, a short Fraction sum).  It does not
    touch pottsverify, so no change to the program moves it; the median
    drops a run that one spike of contention slowed."""
    return statistics.median(_probe_loop() for _ in range(3))


def speed_scale(before: float, after: float) -> float:
    """Factor from raw seconds to seconds at the reference speed."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


def run_context() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
    }


# --- set-up ------------------------------------------------------------------


def fresh_import():
    """Import the package as a new process would (bytecode cache allowed)."""
    for name in [m for m in sys.modules if m == "pottsverify" or m.startswith("pottsverify.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pottsverify")
    cli = importlib.import_module("pottsverify.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"pottsverify imported from {pkg.__file__}, not from {SRC}")
    return pkg, cli


def set_up(name: str, seed: int, size: str):
    """Repeated set-up; returns (workload, raw seconds, scaled seconds per rep)."""
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    raw, scaled = [], []
    before = probe_s()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        pkg, cli = fresh_import()
        workload = WORKLOADS[name](seed, size)
        workload.prepare(pkg, cli, workdir)
        raw.append(time.perf_counter() - start)
        after = probe_s()
        scaled.append(raw[-1] * speed_scale(before, after))
        before = after
    return workload, raw, scaled


# --- timed phases --------------------------------------------------------------


class Run:
    """Call records of one run, with the exactness and determinism gates."""

    def __init__(self, workload, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.check_pass: list[int] = []   # check id -> pass index
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.probes = [probe_s()]

    def call(self, k: int, call) -> dict:
        """Time one call, judge it, then probe the machine's speed."""
        if self.tracer is not None:
            self.tracer.check_id = len(self.check_pass)
        self.check_pass.append(k)
        start = time.perf_counter()
        try:
            result = call.thunk()
        except Exception:  # a crash is a failed check, reported, not fatal
            elapsed = time.perf_counter() - start
            self.errors.append(f"{call.key}: {traceback.format_exc()}")
            checks, failed, digest, out_bytes = 1, 1, "error", 0
        else:
            elapsed = time.perf_counter() - start
            checks, failed, digest = call.judge(result)
            out_bytes = len(result[1].encode()) if call.cli else 0
        digest = hashlib.sha256(str(digest).encode()).hexdigest()
        first = self.digests.setdefault(call.key, digest)
        if first != digest:
            self.errors.append(f"{call.key}: output differs between repeats")
            failed = checks
        elif failed:
            self.errors.append(f"{call.key}: {failed}/{checks} checks failed")
        self.attempted += checks
        self.failed += failed
        self.probes.append(probe_s())
        scale = speed_scale(self.probes[-2], self.probes[-1])
        return {"raw": elapsed, "scale": scale, "checks": checks, "digest": digest,
                "out_bytes": out_bytes}

    def passes(self, budget_s: float | None = None, count: int | None = None) -> list[dict]:
        """Run passes 0, 1, ... for ``count`` passes, or, without a count,
        while the next pass is expected to end within ``budget_s`` of real
        time (at least ``MIN_PASSES``).  Pass times exclude the judges and
        probes."""
        records = []
        started = time.perf_counter()
        k = 0
        while True:
            if count is not None and k >= count:
                break
            if count is None and k >= MIN_PASSES:
                elapsed = time.perf_counter() - started
                typical = statistics.median(sum(r["raw_latencies"]) for r in records)
                if elapsed + typical > budget_s:
                    break
            calls = [self.call(k, c) for c in self.workload.calls(k)]
            records.append({
                "raw_latencies": [c["raw"] for c in calls],
                "latencies": [c["raw"] * c["scale"] for c in calls],
                "scales": [c["scale"] for c in calls],
                "checks": sum(c["checks"] for c in calls),
                "digests": [c["digest"] for c in calls],
                "out_bytes": sum(c["out_bytes"] for c in calls),
            })
            k += 1
        return records


def golden_check(name: str, size: str, seed: int, first_pass: dict, run: Run) -> None:
    """At the reference seed, pass 0 must reproduce the stored output digests."""
    if size != "full" or seed != REFERENCE_SEED:
        return
    golden = json.loads(GOLDEN.read_text())
    if golden.get(name) != first_pass["digests"]:
        run.errors.append(f"{name}: output digests differ from {GOLDEN.name}")
        run.failed = run.attempted


def end_to_end(records: list[dict], setup: list[float], latencies: str) -> dict:
    """End-to-end metrics from pass records, using the ``latencies`` field."""
    per_pass = [r[latencies] for r in records]
    call_medians = [statistics.median(lats) for lats in zip(*per_pass)]
    return {
        "setup_s": statistics.median(setup),
        # One pass, assembled from each of its calls' median latency.
        "wall_s": sum(call_medians),
        "checks_per_s": statistics.median(
            r["checks"] / sum(lats) for r, lats in zip(records, per_pass)),
        # The median call, which, unlike the median of all latencies, does
        # not flip between two calls of similar cost from run to run.
        "check_p50_ms": 1e3 * statistics.median(call_medians),
        "peak_rss_mb": sum(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict, Run]:
    """One benchmark run: (result object, side information, call records)."""
    context = run_context()
    workload, setup_raw, setup_scaled = set_up(name, seed, size)
    run = Run(workload)
    info = {"context": context, "setup_raw_s": setup_raw, "setup_s": setup_scaled,
            "inputs_digest": hashlib.sha256(workload.inputs_digest().encode()).hexdigest()}

    def fixed_count(budget_s: float) -> int | None:
        """A fixed pass count for a workload whose passes differ."""
        if workload.pass_s is None:
            return None
        return max(MIN_PASSES, round(budget_s / workload.pass_s))

    if not trace:
        records = run.passes(budget_s=seconds, count=fixed_count(seconds))
        if len(run.digests) == sum(len(r["digests"]) for r in records):
            # No call repeated within the run: repeat pass 0 for determinism.
            run.passes(count=1)
        golden_check(name, size, seed, records[0], run)
        metrics = end_to_end(records, setup_scaled, "latencies")
        info["raw_metrics"] = end_to_end(records, setup_raw, "raw_latencies")
        units = declared_units("end_to_end")
        info["passes"] = [{k: r[k] for k in ("raw_latencies", "scales", "checks")}
                          for r in records]
    else:
        plain = run.passes(budget_s=seconds / 2, count=fixed_count(seconds / 2))
        tracer = Tracer()
        tracer.install()
        run.tracer = tracer
        try:
            traced = run.passes(count=len(plain))
        finally:
            tracer.uninstall()
        golden_check(name, size, seed, plain[0], run)
        overhead = (sum(map(sum, (r["latencies"] for r in traced)))
                    / sum(map(sum, (r["latencies"] for r in plain)))) - 1
        scale = statistics.median(x for r in traced for x in r["scales"])
        # Spans carry check ids of the traced phase only, whose passes count from 0.
        values = layer_metrics(tracer, run.check_pass, len(traced), plain[0]["out_bytes"],
                               overhead, scale)
        metrics = {k: v for k, v in values.items() if v is not None}
        info["absent"] = sorted(k for k, v in values.items() if v is None)
        units = declared_units("per_layer")
        info["tracer"] = tracer

    probes_ms = [1e3 * p for p in run.probes]
    context["probe_ms"] = {"median": statistics.median(probes_ms),
                           "min": min(probes_ms), "max": max(probes_ms)}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, info, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "pottsverify" / "__init__.py").is_file():
        print(f"error: no pottsverify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, info, run = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import pottsverify: {exc}", file=sys.stderr)
        return 2

    for error in run.errors:
        print(f"FAIL {error.rstrip()}", file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = info.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({**info, "result": result}, indent=1) + "\n")

    print(f"context {json.dumps(info['context'])}")
    raw = info.get("raw_metrics", {})
    for name, metric in result["metrics"].items():
        note = f" (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name in info.get("absent", ()):
        print(f"{args.workload} {name} = absent")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']}/{result['attempted']} checks)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
