"""Per-layer tracing, measured from outside the program.

The traced run wraps public functions of the program on their classes (or,
for the tick-pipeline stages, on the stage instances) and records one span
per call: name, start, end, parent span and the tick index, which every
span of one tick shares (set-up spans carry tick -1).  Spans stay in memory
and are written out when the benchmark ends.  A function that does not
exist at the measured revision is reported as missing, never as 0 ms.

``LAYERS`` is also the benchmark's layer -> end-to-end map: which
end-to-end metrics a change to each layer should move, and on which
workloads.  Later issues cite layers and metrics by these names.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "PIPELINE_STAGES", "Layer", "Tracer", "per_layer_names"]

ALL = ("standard", "lc-geo", "k8s-baseline")

#: the tick-pipeline stages timed as ``sim.pipeline.<stage>``.
PIPELINE_STAGES = (
    "arrivals",
    "refresh",
    "lc",
    "be",
    "deliver",
    "step",
    "reassure",
    "metrics",
)


@dataclass(frozen=True)
class Layer:
    name: str
    #: (span fn name, "module:Class.attribute") for each wrapped function;
    #: "@..." marks functions on per-run instances (see wrap_pipeline).
    functions: Tuple[Tuple[str, str], ...]
    #: extra counters and ratios this layer reports: name -> unit.
    counters: Tuple[Tuple[str, str], ...]
    moves: Tuple[str, ...]
    on: Tuple[str, ...]


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "sim.pipeline",
        (("run_tick", "@pipeline.run_tick"),)
        + tuple((stage, f"@stage.{stage}.run") for stage in PIPELINE_STAGES),
        (),
        ("ticks_per_s",),
        ALL,
    ),
    Layer(
        "scheduling.dcg_be",
        (("dispatch_be", "repro.scheduling.dcg_be:DCGBEScheduler.dispatch_be"),),
        (
            ("offered", "count"),
            ("decisions", "count"),
            ("requeues", "count"),
            ("feasible_ratio", "ratio"),
        ),
        ("ticks_per_s", "tick_ms_p50"),
        ("standard",),
    ),
    Layer(
        "nn.a2c",
        (
            ("act", "repro.nn.a2c:A2CAgent.act"),
            ("train_on", "repro.nn.a2c:A2CAgent.train_on"),
        ),
        (("transitions", "count"),),
        ("tick_ms_p95", "ticks_per_s"),
        ("standard",),
    ),
    Layer(
        "nn.gnn",
        (
            ("encode", "repro.nn.gnn:GraphSAGEEncoder.encode"),
            (
                "aggregation_matrix",
                "repro.nn.gnn:GraphSAGEEncoder.aggregation_matrix",
            ),
        ),
        (("encodes_per_decision", "ratio"),),
        ("ticks_per_s",),
        ("standard",),
    ),
    Layer(
        "scheduling.dss_lc",
        (("dispatch", "repro.scheduling.dss_lc:DSSLCScheduler.dispatch"),),
        (
            ("offered", "count"),
            ("assigned", "count"),
            ("assigned_ratio", "ratio"),
            ("case2_rounds", "count"),
        ),
        ("ticks_per_s", "tick_ms_p50"),
        ("lc-geo", "standard"),
    ),
    Layer(
        "flow.mcmf",
        (("solve", "repro.flow.mcmf:MinCostMaxFlow.solve"),),
        (("solves", "count"), ("augmentations", "count"), ("arenas", "count")),
        ("ticks_per_s",),
        ("lc-geo",),
    ),
    Layer(
        "cluster.node",
        (("step", "repro.cluster.node:WorkerNode.step"),),
        (("completed", "count"), ("evicted", "count"), ("abandoned", "count")),
        ("ticks_per_s",),
        ("k8s-baseline",),
    ),
    Layer(
        "hrm",
        (
            ("admit", "repro.hrm.regulations:HRMManager.admit"),
            ("tick", "repro.hrm.regulations:HRMManager.tick"),
            ("tail_latency_ms", "repro.hrm.qos:QoSDetector.tail_latency_ms"),
            ("reassure", "repro.hrm.reassurance:ReassuranceMechanism.run"),
            ("scale", "repro.hrm.dvpa:DVPA.scale"),
        ),
        (("refusals", "count"), ("admit_ratio", "ratio")),
        ("ticks_per_s", "qos_satisfaction", "lc_latency_p99_ms"),
        ("lc-geo", "standard"),
    ),
    Layer(
        "scheduling.baselines",
        (
            ("dispatch", "repro.scheduling.baselines:K8sNativeScheduler.dispatch"),
            (
                "dispatch_be",
                "repro.scheduling.baselines:K8sNativeScheduler.dispatch_be",
            ),
        ),
        (),
        ("ticks_per_s",),
        ("k8s-baseline",),
    ),
    Layer(
        "core.state_storage",
        (("refresh", "repro.core.state_storage:StateStorage.refresh"),),
        (),
        ("ticks_per_s",),
        ALL,
    ),
    Layer(
        "workloads.trace",
        (("generate", "repro.workloads.trace:SyntheticTrace.generate"),),
        (),
        ("setup_s",),
        ALL,
    ),
    Layer(
        "core.tango",
        (("init", "repro.core.tango:TangoSystem.__init__"),),
        (),
        ("setup_s",),
        ALL,
    ),
)

#: per-layer metric of the tracing cost itself.
OVERHEAD = ("trace.overhead_ratio", "ratio")


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names: List[Tuple[str, str]] = []
    for layer in LAYERS:
        for fn, _ in layer.functions:
            span = f"{layer.name}.{fn}"
            names += [
                (f"{span}.calls", "count"),
                (f"{span}.total_ms", "ms"),
                (f"{span}.self_ms", "ms"),
            ]
        names += [(f"{layer.name}.{c}", unit) for c, unit in layer.counters]
    names.append(OVERHEAD)
    return names


def _resolve(target: str) -> Tuple[Optional[type], str]:
    """``"module:Class.attr"`` -> (class, or None when missing; attr)."""
    module_name, qualname = target.split(":")
    class_name, attr = qualname.split(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    return getattr(module, class_name, None), attr


_ABSENT = object()


class Tracer:
    """Span recorder: wraps functions, keeps spans in parallel lists."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.span_start: List[int] = []
        self.span_end: List[int] = []
        self.span_parent: List[int] = []
        self.span_tick: List[int] = []
        self._stack: List[int] = []
        #: tick index stamped on every span; -1 outside the tick loop.
        self.tick = -1
        self.missing: List[str] = []
        #: span names whose counter observer failed on the call's shape.
        self.broken: set = set()
        self.counters: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.origin_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[Dict[str, float], tuple, Any], None]] = None,
    ) -> bool:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(counters, args, result)`` runs after each call to update
        this layer's counters.  Returns False (and records ``name`` as
        missing) when the attribute does not exist.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.append(name)
            return False
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_tick.append(tracer.tick)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.span_start[index] = start
                tracer.span_end[index] = end
            if observe is not None:
                try:
                    observe(tracer.counters, args, result)
                except (TypeError, IndexError, AttributeError, KeyError):
                    # the call's shape changed at this revision: its
                    # counters become missing rather than wrong.
                    tracer.broken.add(name)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, traced)
        return True

    def wrap_target(self, target: str, name: str, observe=None) -> bool:
        owner, attr = _resolve(target)
        return self.wrap(owner, attr, name, observe)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms and self ms (total minus the part
        covered by direct child spans)."""
        n = len(self.span_name)
        child_ns = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            duration = self.span_end[i] - self.span_start[i]
            calls[k] += 1
            total[k] += duration
            self_ns[k] += duration - child_ns[i]
        return {
            name: {
                "calls": calls[k],
                "total_ms": total[k] / 1e6,
                "self_ms": self_ns[k] / 1e6,
            }
            for k, name in enumerate(self.names)
        }

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span (times in µs from the tracer's start)."""
        origin = self.origin_ns
        spans = [
            [
                self.names[self.span_name[i]],
                (self.span_start[i] - origin) // 1000,
                (self.span_end[i] - origin) // 1000,
                self.span_parent[i],
                self.span_tick[i],
            ]
            for i in range(len(self.span_name))
        ]
        payload = {
            **meta,
            "span_fields": ["name", "start_us", "end_us", "parent", "tick"],
            "missing": sorted(self.missing),
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def _add(counters: Dict[str, float], name: str, amount: float) -> None:
    counters[name] = counters.get(name, 0) + amount


def _observe_dcg_be(counters, args, result) -> None:
    # dispatch_be(self, requests, snapshot, now_ms) -> assignments
    _add(counters, "scheduling.dcg_be.offered", len(args[1]))
    _add(counters, "scheduling.dcg_be.decisions", len(result))


def _observe_train_on(counters, args, result) -> None:
    # train_on(self, batch)
    _add(counters, "nn.a2c.transitions", len(args[1]))


def _observe_dss_lc(counters, args, result) -> None:
    # dispatch(self, cluster_id, requests, snapshot, eligible, now_ms)
    _add(counters, "scheduling.dss_lc.offered", len(args[2]))
    _add(counters, "scheduling.dss_lc.assigned", len(result))


def _observe_step(counters, args, result) -> None:
    completed, evicted, abandoned = result
    _add(counters, "cluster.node.completed", len(completed))
    _add(counters, "cluster.node.evicted", len(evicted))
    _add(counters, "cluster.node.abandoned", len(abandoned))


def _observe_admit(counters, args, result) -> None:
    _add(counters, "hrm.refusals", result is None)


#: span name -> counter observer run after each call.
OBSERVERS: Dict[str, Callable[[Dict[str, float], tuple, Any], None]] = {
    "scheduling.dcg_be.dispatch_be": _observe_dcg_be,
    "nn.a2c.train_on": _observe_train_on,
    "scheduling.dss_lc.dispatch": _observe_dss_lc,
    "cluster.node.step": _observe_step,
    "hrm.admit": _observe_admit,
}


def wrap_program(tracer: Tracer) -> None:
    """Wrap every class-level function named in :data:`LAYERS`.

    Pipeline stages and ``run_tick`` live on instances built per run and
    are wrapped by :func:`wrap_pipeline`.
    """
    for layer in LAYERS:
        for fn, target in layer.functions:
            if target.startswith("@"):
                continue
            name = f"{layer.name}.{fn}"
            tracer.wrap_target(target, name, OBSERVERS.get(name))


def wrap_pipeline(tracer: Tracer, pipeline: Any) -> None:
    """Wrap ``pipeline.run_tick`` and each expected stage's ``run``."""
    stages = {
        getattr(stage, "name", None): stage
        for stage in getattr(pipeline, "stages", ())
    }
    for stage_name in PIPELINE_STAGES:
        tracer.wrap(
            stages.get(stage_name), "run", f"sim.pipeline.{stage_name}"
        )
    tracer.wrap(pipeline, "run_tick", "sim.pipeline.run_tick")


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    """0 when the layer saw no work; None when either side is missing."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, system: Any) -> Dict[str, Optional[float]]:
    """Every per-layer metric but the overhead ratio; None means missing.

    Counts kept by the program itself (DCG-BE requeues, solver stats) are
    read from the traced run's ``system`` at the end.  A layer that got no
    calls reports 0 for them, a layer that got calls but lacks the counter
    reports it missing.
    """
    stats = tracer.span_stats()
    missing = set(tracer.missing)

    def calls(span: str) -> Optional[float]:
        if span in missing:
            return None
        return stats.get(span, {}).get("calls", 0)

    values: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        for fn, _ in layer.functions:
            span = f"{layer.name}.{fn}"
            row = stats.get(span, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for key in ("calls", "total_ms", "self_ms"):
                values[f"{span}.{key}"] = None if span in missing else row[key]
    counters: Dict[str, Optional[float]] = {}
    for span in OBSERVERS:
        layer = next(lay for lay in LAYERS if span.startswith(lay.name + "."))
        observed = span not in missing and span not in tracer.broken
        for counter, unit in layer.counters:
            if unit == "count":
                name = f"{layer.name}.{counter}"
                counters[name] = tracer.counters.get(name, 0) if observed else None

    def program_counter(span: str, read: Callable[[], Any]) -> Optional[float]:
        if not calls(span):
            return calls(span)  # 0 without work, None when missing
        try:
            return read()
        except (AttributeError, KeyError, TypeError):
            return None

    be, lc = system.be_scheduler, system.lc_scheduler
    counters["scheduling.dcg_be.requeues"] = program_counter(
        "scheduling.dcg_be.dispatch_be", lambda: be.requeues
    )
    counters["scheduling.dss_lc.case2_rounds"] = program_counter(
        "scheduling.dss_lc.dispatch", lambda: lc.solver_stats()["case2_rounds"]
    )
    for key in ("solves", "augmentations", "arenas"):
        counters[f"flow.mcmf.{key}"] = program_counter(
            "flow.mcmf.solve", lambda: lc.solver_stats()[key]
        )

    decisions = counters.get("scheduling.dcg_be.decisions")
    requeues = counters["scheduling.dcg_be.requeues"]
    counters["scheduling.dcg_be.feasible_ratio"] = _ratio(
        None if requeues is None or decisions is None else decisions - requeues,
        decisions,
    )
    counters["nn.gnn.encodes_per_decision"] = _ratio(
        calls("nn.gnn.encode"), decisions
    )
    counters["scheduling.dss_lc.assigned_ratio"] = _ratio(
        counters.get("scheduling.dss_lc.assigned"),
        counters.get("scheduling.dss_lc.offered"),
    )
    admits, refusals = calls("hrm.admit"), counters.get("hrm.refusals")
    counters["hrm.admit_ratio"] = _ratio(
        None if admits is None or refusals is None else admits - refusals,
        admits,
    )
    for layer in LAYERS:
        for counter, _ in layer.counters:
            name = f"{layer.name}.{counter}"
            values[name] = counters.get(name)
    return values
