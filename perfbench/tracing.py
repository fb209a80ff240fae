"""In-memory spans around expopt's public functions, and the per-layer metrics.

:class:`Tracer` replaces a function at the place the caller looks it up
(a module global or a class attribute) with a wrapper that records one
span: ``(name, start_ns, end_ns, parent_index, info)``.  ``info`` is an
optional value the wrapper derives from the call's arguments and result,
such as an array size or an iteration count.  :meth:`Tracer.restore` puts
every original back and reports any attribute that is not the original
afterwards.

:func:`install` wires the tracer into expopt at the import sites it
lists; :func:`pass_metrics` turns the spans of one traced pass into the
per-layer metrics.
"""

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, None)

    def wrap(self, owner, attr, name, info=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module or a class.  A missing attribute is noted in
        ``missing`` and skipped, so a renamed function shows as a gap in the
        per-layer metrics rather than a crash.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack, opener, clock = self.spans, self._stack, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            index, parent = opener()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if info is not None:
                spans[index] = (name, start, end, parent, info(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> list:
        """Put every original back; returns the names that were not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        unrestored = [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches.clear()
        return unrestored


def covered_ns(intervals, start, end) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans) -> list:
    """Per span: its duration minus the time its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_ns(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def install(tracer: Tracer, ex) -> None:
    """Wrap expopt's public functions where the run looks them up.

    ``ex`` is a namespace holding the imported expopt modules.
    """
    ball = ex.prox.BallConstraint

    def size(args, kwargs, result):
        return len(args[0])

    def resolve_mode(args, kwargs, result):
        return isinstance(_arg(args, kwargs, 2, "mode"), ball)

    def step_mode(args, kwargs, result):
        return isinstance(_arg(args, kwargs, 3, "mode"), ball)

    def active(args, kwargs, result):
        log_scale, _, reg, p = args[:4]
        return int((log_scale > reg.l1 / p.alpha).sum()), len(log_scale)

    def newton_iters(args, kwargs, result):
        return int(result[1])

    def batch(args, kwargs, result):
        return int(_arg(args, kwargs, 2, "cfg").batch)

    w = tracer.wrap
    for fn in ("gen_logistic_stream", "gen_multitask_stream", "gen_blackbox_problem"):
        w(ex.streams, fn, "harness.stream_gen")
    w(ex.streams.BlackboxComposite, "smooth", "harness.oracle")
    w(ex.learners, "omd_step", "learners.step")
    w(ex.learners, "ftrl_step", "learners.step")
    w(ex.learners, "resolve_dual_point", "learners.resolve", resolve_mode)
    w(ex.learners, "mirror_map", "entropy.mirror_map")
    w(ex.spectral, "mirror_map", "entropy.mirror_map")
    w(ex.learners, "l1_ball_project_from_log", "prox.l1_project@learners", size)
    w(ex.spectral, "l1_ball_project_from_log", "prox.l1_project@spectral", size)
    w(ex.learners, "elastic_net_prox_from_log", "prox.enet_prox", active)
    w(ex.spectral, "elastic_net_prox_from_log", "prox.enet_prox", active)
    w(ex.prox, "_w0_log_array", "lambertw.solve", newton_iters)
    w(ex.spectral, "spectral_omd_step", "spectral.step", step_mode)
    w(ex.spectral, "spectral_ftrl_step", "spectral.step", step_mode)
    w(ex.spectral, "svd", "spectral.svd")
    w(ex.spectral, "spectral_norm", "spectral.norm")
    w(ex.baselines, "adagrad_step", "baselines.step")
    w(ex.baselines, "adaftrl_step", "baselines.step")
    w(ex.baselines, "eg_pm_step", "baselines.step:eg_pm")
    diag_nuclear = getattr(ex.registry, "_VectorizedDiagNuclear", None)
    if diag_nuclear is not None:
        w(diag_nuclear, "step", "baselines.step")
    w(ex.baselines, "weighted_l1_ball_project", "baselines.wl1_project", size)
    w(ex.registry, "euclidean_nuclear_ball_project", "baselines.nuclear_project")
    w(ex.accelerate.Accelerator, "step", "accelerate.step")
    w(ex.experiments, "two_point_grad", "zeroth_order.grad", batch)


# name -> unit; the order is the order metrics are printed in.
LAYER_UNITS = {
    "harness.stream_gen_s": "s",
    "harness.loop_self_s": "s",
    "harness.records": "count",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.blackbox_oracle_calls": "count",
    "harness.blackbox_oracle_s": "s",
    "learners.step_calls": "count",
    "learners.step_us_p50": "us",
    "learners.step_us_p99": "us",
    "learners.step_self_s": "s",
    "learners.resolve_calls": "count",
    "learners.resolve_s": "s",
    "learners.project_share": "ratio",
    "entropy.mirror_map_calls": "count",
    "entropy.mirror_map_s": "s",
    "prox.l1_project_calls": "count",
    "prox.l1_project_us_p50": "us",
    "prox.l1_project_us_p99": "us",
    "prox.l1_project_ns_per_elem": "ns",
    "prox.enet_prox_calls": "count",
    "prox.enet_prox_s": "s",
    "prox.enet_active_share": "ratio",
    "lambertw.solve_calls": "count",
    "lambertw.newton_iters": "count",
    "lambertw.solve_s": "s",
    "spectral.step_calls": "count",
    "spectral.step_us_p50": "us",
    "spectral.step_us_p99": "us",
    "spectral.svd_calls": "count",
    "spectral.svd_s": "s",
    "spectral.norm_calls": "count",
    "spectral.norm_s": "s",
    "spectral.project_share": "ratio",
    "baselines.step_calls": "count",
    "baselines.step_us_p50": "us",
    "baselines.step_us_p99": "us",
    "baselines.wl1_project_calls": "count",
    "baselines.wl1_project_s": "s",
    "baselines.wl1_project_ns_per_elem": "ns",
    "baselines.nuclear_project_s": "s",
    "baselines.eg_pm_s": "s",
    "accelerate.step_calls": "count",
    "accelerate.step_self_s": "s",
    "zeroth_order.grad_calls": "count",
    "zeroth_order.oracle_evals": "count",
    "zeroth_order.grad_self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metrics pooled over every span of every pass rather than taken per pass.
_PERCENTILES = {
    "learners.step_us": ("learners.step",),
    "prox.l1_project_us": ("prox.l1_project@learners", "prox.l1_project@spectral"),
    "spectral.step_us": ("spectral.step",),
    "baselines.step_us": ("baselines.step", "baselines.step:eg_pm"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(spans, records: int, csv_bytes: int) -> tuple:
    """Per-layer metrics of one traced pass, plus its raw span durations.

    Returns ``(metrics, durations_ns)``; ``durations_ns`` maps each pooled
    percentile family to the durations this pass contributed.
    """
    self_ns = self_times_ns(spans)
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    infos = defaultdict(list)
    oracle_in_grad = 0
    for i, (name, start, end, parent, info) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_ns[i]
        if info is not None:
            infos[name].append(info)
        if name == "harness.oracle" and parent >= 0 and spans[parent][0] == "zeroth_order.grad":
            oracle_in_grad += 1

    def s(ns):
        return ns / 1e9

    l1_names = _PERCENTILES["prox.l1_project_us"]
    l1_calls = sum(calls[n] for n in l1_names)
    l1_elems = sum(sum(infos[n]) for n in l1_names)
    enet = infos["prox.enet_prox"]
    wl1_elems = sum(infos["baselines.wl1_project"])
    m = {
        "harness.stream_gen_s": s(total["harness.stream_gen"]),
        "harness.loop_self_s": s(own["harness.run_experiment"]),
        "harness.records": records,
        "harness.write_csv_s": s(total["harness.write_csv"]),
        "harness.csv_bytes": csv_bytes,
        "harness.blackbox_oracle_calls": calls["harness.oracle"],
        "harness.blackbox_oracle_s": s(total["harness.oracle"]),
        "learners.step_calls": calls["learners.step"],
        "learners.step_self_s": s(own["learners.step"]),
        "learners.resolve_calls": calls["learners.resolve"],
        "learners.resolve_s": s(total["learners.resolve"]),
        "learners.project_share": _ratio(
            calls["prox.l1_project@learners"], sum(infos["learners.resolve"])
        ),
        "entropy.mirror_map_calls": calls["entropy.mirror_map"],
        "entropy.mirror_map_s": s(total["entropy.mirror_map"]),
        "prox.l1_project_calls": l1_calls,
        "prox.l1_project_ns_per_elem": _ratio(sum(total[n] for n in l1_names), l1_elems),
        "prox.enet_prox_calls": calls["prox.enet_prox"],
        "prox.enet_prox_s": s(total["prox.enet_prox"]),
        "prox.enet_active_share": _ratio(sum(a for a, _ in enet), sum(n for _, n in enet)),
        "lambertw.solve_calls": calls["lambertw.solve"],
        "lambertw.newton_iters": sum(infos["lambertw.solve"]),
        "lambertw.solve_s": s(total["lambertw.solve"]),
        "spectral.step_calls": calls["spectral.step"],
        "spectral.svd_calls": calls["spectral.svd"],
        "spectral.svd_s": s(total["spectral.svd"]),
        "spectral.norm_calls": calls["spectral.norm"],
        "spectral.norm_s": s(total["spectral.norm"]),
        "spectral.project_share": _ratio(
            calls["prox.l1_project@spectral"], sum(infos["spectral.step"])
        ),
        "baselines.step_calls": calls["baselines.step"] + calls["baselines.step:eg_pm"],
        "baselines.wl1_project_calls": calls["baselines.wl1_project"],
        "baselines.wl1_project_s": s(total["baselines.wl1_project"]),
        "baselines.wl1_project_ns_per_elem": _ratio(total["baselines.wl1_project"], wl1_elems),
        "baselines.nuclear_project_s": s(total["baselines.nuclear_project"]),
        "baselines.eg_pm_s": s(total["baselines.step:eg_pm"]),
        "accelerate.step_calls": calls["accelerate.step"],
        "accelerate.step_self_s": s(own["accelerate.step"]),
        "zeroth_order.grad_calls": calls["zeroth_order.grad"],
        "zeroth_order.oracle_evals": oracle_in_grad,
        "zeroth_order.grad_self_s": s(own["zeroth_order.grad"]),
    }
    durations = {
        family: [end - start for name, start, end, _, _ in spans if name in names]
        for family, names in _PERCENTILES.items()
    }
    return m, durations


def nearest_rank(sorted_values, q: float) -> float:
    """The ``q`` quantile of sorted values by the nearest-rank rule."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def combine(passes, durations, overhead_ratio: float) -> dict:
    """Metrics of several traced passes.

    Counts, shares and sizes come from the first pass (the caller checks
    they repeat exactly); times are medians over passes; percentiles pool
    the spans of every pass.
    """
    out = dict(passes[0])
    for name, unit in LAYER_UNITS.items():
        if unit == "s":
            out[name] = statistics.median(p[name] for p in passes)
    for family in _PERCENTILES:
        pooled = sorted(d for pass_durations in durations for d in pass_durations[family])
        out[f"{family}_p50"] = nearest_rank(pooled, 0.50) / 1e3
        out[f"{family}_p99"] = nearest_rank(pooled, 0.99) / 1e3
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in LAYER_UNITS}


def exact_fields(metrics: dict) -> dict:
    """The metrics every traced pass must reproduce exactly."""
    return {k: v for k, v in metrics.items() if LAYER_UNITS[k] in ("count", "bytes", "ratio")}
