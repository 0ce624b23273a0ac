"""Outside-in tracing of pottsverify's layers, from the benchmark's own files.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each public function of a layer module with a recording wrapper at every
module attribute that holds it: the defining module (so calls inside that
module are seen too), the modules that imported it with ``from .x import f``,
and the package namespace.  ``Tracer.uninstall`` puts the originals back.

The wrapping is by identity, not by a list of names, so renamed or merged
functions are picked up as they are.  Each layer names one *anchor*
function its metrics depend on; when the module or the anchor is gone the
layer is reported ``absent`` instead of failing the run.

Spans carry (id, parent id, check id, layer, function, start ns, end ns).
They stay in memory and are written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

PACKAGE = "pottsverify"

#: Traced layers and the anchor function each layer's metrics rest on.
#: ``model`` has no span of its own (its constructors count in the self time
#: of their callers); ``gibbs`` and ``symmetry`` are on no user path.
LAYERS = {
    "cli": "main",
    "serialize": "model_from_dict",
    "generators": "random_model",
    "contraction": "check_contraction_identity",
    "inequalities": "check_positive_expectation",
    "enumeration": "correlation_sums",
}
KERNEL = "correlation_sums"

#: The layers each per-layer metric needs; names and units are in
#: ``BENCHMARK.json``.
LAYER_NEEDS = {
    "enumeration.calls": ("enumeration",),
    "enumeration.configs": ("enumeration",),
    "enumeration.requests": ("enumeration",),
    "enumeration.busy_s": ("enumeration",),
    "enumeration.ns_per_config": ("enumeration",),
    "enumeration.us_per_call": ("enumeration",),
    "enumeration.marginal_ns_per_request_config": ("enumeration",),
    "enumeration.match_ratio": ("enumeration",),
    "inequalities.checks": ("inequalities",),
    "inequalities.self_s": ("inequalities",),
    "inequalities.scans_per_check": ("inequalities", "enumeration"),
    "contraction.calls": ("contraction",),
    "contraction.self_s": ("contraction",),
    "generators.busy_s": ("generators",),
    "serialize.parse_s": ("serialize",),
    "cli.self_s": ("cli",),
    "cli.out_bytes": ("cli",),
    "trace.overhead_frac": (),
}

# Span tuple fields.
SID, PARENT, CHECK, LAYER, FUNC, START, END = range(7)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield fn


class Tracer:
    """Records spans around calls into pottsverify's layer modules."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.kernel_calls: list[tuple[int, int, int, int]] = []  # sid, requests, configs, matching
        self.kernel_counts_ok = True
        self.check_id = -1
        self.absent: set[str] = set()
        self.model_funcs: set[tuple[str, str]] = set()  # (layer, name) taking a model
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, anchor in LAYERS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.add(layer)
                continue
            if not inspect.isfunction(getattr(module, anchor, None)):
                self.absent.add(layer)
            for fn in _public_functions(module):
                if any("model" in p for p in inspect.signature(fn).parameters):
                    self.model_funcs.add((layer, fn.__name__))
                is_kernel = (layer, fn.__name__) == ("enumeration", KERNEL)
                on_return = self._count_kernel_work if is_kernel else None
                wrappers[id(fn)] = (fn, self._wrap(layer, fn, on_return))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, fn, on_return):
        spans, stack, name = self.spans, self._stack, fn.__name__
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.check_id, layer, name, start, end)
            if on_return is not None:
                on_return(sid, args, kwargs, result)
            return result

        return traced

    def _count_kernel_work(self, sid, args, kwargs, result) -> None:
        """Work counts of one kernel scan, read from its inputs and results."""
        try:
            requests = kwargs["requests"] if "requests" in kwargs else args[1]
            configs = result[0].configs_visited if result else 0
            matching = sum(item.configs_matching for item in result)
            self.kernel_calls.append((sid, len(requests), configs, matching))
        except (AttributeError, IndexError, KeyError, TypeError):
            self.kernel_counts_ok = False

    # --- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _weighted_slope(points: list[tuple[float, float, float]]) -> float | None:
    """Least-squares slope of y on x with weights w; None if x never varies."""
    total = sum(w for _x, _y, w in points)
    if not total:
        return None
    mx = sum(x * w for x, _y, w in points) / total
    my = sum(y * w for _x, y, w in points) / total
    sxx = sum(w * (x - mx) ** 2 for x, _y, w in points)
    if sxx == 0:
        return None
    return sum(w * (x - mx) * (y - my) for x, y, w in points) / sxx


def layer_metrics(tracer: Tracer, check_pass: list[int], passes: int,
                  out_bytes_first_pass: int, overhead_frac: float,
                  time_scale: float = 1.0) -> dict[str, float | None]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts are those of the first pass, which the seed fixes exactly; times
    are per pass, averaged over every traced pass, and multiplied by
    ``time_scale`` (the run's factor to reference machine speed); ratios use
    every pass.  ``None`` marks a metric whose layer is absent.
    """
    spans = [s for s in tracer.spans if s is not None]
    by_id = {s[SID]: s for s in spans}
    child_time: dict[int, int] = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0) + s[END] - s[START]

    def ancestor_layers(s):
        parent = s[PARENT]
        while parent >= 0:
            p = by_id[parent]
            yield p[LAYER]
            parent = p[PARENT]

    self_ns: dict[str, int] = {}
    busy_ns: dict[str, int] = {}
    outer_first: dict[str, int] = {}
    for s in spans:
        layer, dur = s[LAYER], s[END] - s[START]
        self_ns[layer] = self_ns.get(layer, 0) + dur - child_time.get(s[SID], 0)
        if layer not in ancestor_layers(s):
            busy_ns[layer] = busy_ns.get(layer, 0) + dur
            if check_pass[s[CHECK]] == 0:
                outer_first[layer] = outer_first.get(layer, 0) + 1

    kernel = tracer.kernel_calls if tracer.kernel_counts_ok else []
    kernel_first = [k for k in kernel if check_pass[by_id[k[0]][CHECK]] == 0]
    kernel_ns = time_scale * sum(by_id[k[0]][END] - by_id[k[0]][START] for k in kernel)
    configs = sum(k[2] for k in kernel)
    slope = _weighted_slope([
        (k[1], time_scale * (by_id[k[0]][END] - by_id[k[0]][START]) / k[2], k[2])
        for k in kernel if k[2]
    ])

    # scans_per_check: kernel calls under the outermost inequalities spans of
    # functions that take a model, over the number of those spans, so a check
    # whose scan another check shares counts with zero scans.
    checks = {s[SID]: 0 for s in spans
              if s[LAYER] == "inequalities" and (s[LAYER], s[FUNC]) in tracer.model_funcs
              and "inequalities" not in ancestor_layers(s)}
    for sid, *_rest in kernel:
        parent = by_id[sid][PARENT]
        while parent >= 0:
            if parent in checks:
                checks[parent] += 1
            parent = by_id[parent][PARENT]

    per_pass = time_scale * 1e-9 / passes
    values: dict[str, float | None] = {
        "enumeration.calls": len(kernel_first),
        "enumeration.configs": sum(k[2] for k in kernel_first),
        "enumeration.requests": sum(k[1] for k in kernel_first),
        "enumeration.busy_s": busy_ns.get("enumeration", 0) * per_pass,
        "enumeration.ns_per_config": kernel_ns / configs if configs else None,
        "enumeration.us_per_call": kernel_ns / 1e3 / len(kernel) if kernel else None,
        "enumeration.marginal_ns_per_request_config": slope,
        "enumeration.match_ratio": (
            sum(k[3] for k in kernel) / sum(k[1] * k[2] for k in kernel) if configs else None
        ),
        "inequalities.checks": outer_first.get("inequalities", 0),
        "inequalities.self_s": self_ns.get("inequalities", 0) * per_pass,
        "inequalities.scans_per_check": (
            statistics.fmean(checks.values()) if checks else None
        ),
        "contraction.calls": outer_first.get("contraction", 0),
        "contraction.self_s": self_ns.get("contraction", 0) * per_pass,
        "generators.busy_s": busy_ns.get("generators", 0) * per_pass,
        "serialize.parse_s": busy_ns.get("serialize", 0) * per_pass,
        "cli.self_s": self_ns.get("cli", 0) * per_pass,
        "cli.out_bytes": out_bytes_first_pass,
        "trace.overhead_frac": overhead_frac,
    }
    if not tracer.kernel_counts_ok:
        tracer.absent.add("enumeration")
    for name, needs in LAYER_NEEDS.items():
        if any(layer in tracer.absent for layer in needs):
            values[name] = None
    return values
