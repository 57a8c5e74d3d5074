"""Per-layer metrics derived from one traced pass's spans.

:data:`PER_LAYER` is the catalogue (name, unit) every traced run prints,
in the order of the layer stack: metasurface -> channel ->
core.controller -> network -> api.fleet -> serve / world -> experiments,
then the tracer's own figures.  A layer the workload never reaches
reports zero calls and zero time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from tracer import Span, Tracer

EXPERIMENTS = (
    "fig02", "fig08_10", "fig11", "table1", "fig12", "fig15", "fig16",
    "fig17", "fig18_19", "fig20", "iot_families", "fig21", "fig22",
    "gain_surface", "coverage_map", "fig23", "sec7_scheduling",
    "sec7_access", "fault_degradation", "fleet_churn", "serve_capacity",
    "serve_degradation", "world_mobility_tracking", "world_topology_sweep",
    "world_coexistence")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("metasurface.jones_batch.calls", "count"),
    ("metasurface.jones_batch.ms", "ms"),
    ("metasurface.jones_batch.cells", "count"),
    ("channel.axis_params.calls", "count"),
    ("channel.axis_params.ms", "ms"),
    ("channel.axis_params.points", "count"),
    ("channel.evaluate_grid.calls", "count"),
    ("channel.evaluate_grid.ms", "ms"),
    ("channel.evaluate_grid.cells", "count"),
    ("channel.budget.passes", "count"),
    ("channel.budget.self_ms", "ms"),
    ("core.controller.optimize_grid.calls", "count"),
    ("core.controller.optimize_grid.ms", "ms"),
    ("core.controller.optimize_grid.points", "count"),
    ("network.scheduler.schedule.calls", "count"),
    ("network.scheduler.schedule.ms", "ms"),
    ("network.ensemble_for.calls", "count"),
    ("network.ensemble_for.ms", "ms"),
    ("api.fleet.probe_aligned.calls", "count"),
    ("api.fleet.probe_aligned.ms", "ms"),
    ("api.fleet.probe_aligned.rows", "count"),
    ("serve.batches", "count"),
    ("serve.requests_per_batch", "ratio"),
    ("serve.batch_host_ms_p50", "ms"),
    ("serve.batch_host_ms_p99", "ms"),
    ("serve.loop_self_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.virtual_p99_ms", "ms"),
    ("serve.virtual_rps", "1/s"),
    ("world.traces.ms", "ms"),
    ("world.evaluate.ms", "ms"),
    ("world.evaluate.cells", "count"),
    ("world.best_bias_planes.ms", "ms"),
    ("world.best_bias_planes.cells", "count"),
) + tuple((f"experiments.run.{name}.ms", "ms") for name in EXPERIMENTS) + (
    ("experiments.store.put.calls", "count"),
    ("experiments.store.put.ms", "ms"),
    ("experiments.store.put.bytes", "bytes"),
    ("experiments.store.get.calls", "count"),
    ("experiments.store.get.ms", "ms"),
    ("experiments.store.warm_hit_ratio", "ratio"),
    ("experiments.warm_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("trace.absent_layers", "count"),
)

UNITS: Dict[str, str] = dict(PER_LAYER)


def _ms(spans: Sequence[Span]) -> float:
    return float(sum(span.ms for span in spans))


def _units(spans: Sequence[Span]) -> float:
    return float(sum(span.units for span in spans))


def _calls_ms(metrics: Dict[str, float], prefix: str,
              spans: Sequence[Span]) -> None:
    metrics[f"{prefix}.calls"] = float(len(spans))
    metrics[f"{prefix}.ms"] = _ms(spans)


def layer_metrics(tracer: Tracer, run, budget_passes: int
                  ) -> Dict[str, float]:
    """Every layer metric of one traced pass (``run`` is its ``Pass``)."""
    metrics: Dict[str, float] = {}
    named = tracer.named

    jones = named("metasurface.jones_batch")
    _calls_ms(metrics, "metasurface.jones_batch", jones)
    metrics["metasurface.jones_batch.cells"] = _units(jones)

    axis = named("channel.axis_params")
    _calls_ms(metrics, "channel.axis_params", axis)
    metrics["channel.axis_params.points"] = _units(axis)

    grids = named("channel.evaluate_grid")
    _calls_ms(metrics, "channel.evaluate_grid", grids)
    metrics["channel.evaluate_grid.cells"] = _units(grids)

    # Budget self time: the engine's spans minus the Jones cascade
    # spans nested inside them.
    metrics["channel.budget.passes"] = float(budget_passes)
    metrics["channel.budget.self_ms"] = _ms(named("channel.budget")) - _ms(
        [span for span in jones
         if tracer.has_ancestor(span, "channel.budget")])

    optimize = named("core.controller.optimize_grid")
    _calls_ms(metrics, "core.controller.optimize_grid", optimize)
    metrics["core.controller.optimize_grid.points"] = _units(optimize)

    _calls_ms(metrics, "network.scheduler.schedule",
              named("network.scheduler.schedule"))
    _calls_ms(metrics, "network.ensemble_for", named("network.ensemble_for"))

    probes = named("api.fleet.probe_aligned")
    _calls_ms(metrics, "api.fleet.probe_aligned", probes)
    metrics["api.fleet.probe_aligned.rows"] = _units(probes)

    metrics.update(_serve_metrics(tracer, run))

    metrics["world.traces.ms"] = _ms(named("world.traces"))
    evaluate = named("world.evaluate")
    metrics["world.evaluate.ms"] = _ms(evaluate)
    metrics["world.evaluate.cells"] = _units(evaluate)
    cubes = named("world.best_bias_planes")
    metrics["world.best_bias_planes.ms"] = _ms(cubes)
    metrics["world.best_bias_planes.cells"] = _units(
        [span for span in grids
         if tracer.has_ancestor(span, "world.best_bias_planes")])

    metrics.update(_experiment_metrics(tracer, run))
    return metrics


def _serve_metrics(tracer: Tracer, run) -> Dict[str, float]:
    batches = tracer.named("serve.batch")
    handlers = tracer.named("serve.handler")
    # A batch's host time is the work of the kind handlers it ran; the
    # rest of the batch span is the event loop waiting on virtual time.
    batch_ms: List[float] = []
    cursor = 0
    for batch in batches:
        total = 0.0
        while (cursor < len(handlers)
               and handlers[cursor].start_ns < batch.end_ns):
            if handlers[cursor].start_ns >= batch.start_ns:
                total += handlers[cursor].ms
            cursor += 1
        batch_ms.append(total)
    requests = _units(batches)
    return {
        "serve.batches": float(len(batches)),
        "serve.requests_per_batch": (requests / len(batches)
                                     if batches else 0.0),
        "serve.batch_host_ms_p50": (float(np.percentile(batch_ms, 50))
                                    if batch_ms else 0.0),
        "serve.batch_host_ms_p99": (float(np.percentile(batch_ms, 99))
                                    if batch_ms else 0.0),
        "serve.loop_self_ms": (_ms(tracer.named("serve.serve_trace"))
                               - float(sum(batch_ms))),
        "serve.shed": run.extra.get("shed", 0.0),
        "serve.virtual_p99_ms": run.extra.get("virtual_p99_ms", 0.0),
        "serve.virtual_rps": run.extra.get("virtual_rps", 0.0),
    }


def _experiment_metrics(tracer: Tracer, run) -> Dict[str, float]:
    # Only the cold pass counts towards per-experiment time; the warm
    # pass is reported as a whole.
    cold = run.window_ns
    metrics = {f"experiments.run.{name}.ms": 0.0 for name in EXPERIMENTS}
    for span in tracer.named("experiments.run", cold):
        key = f"experiments.run.{span.label}.ms"
        if key in metrics:
            metrics[key] += span.ms
    puts = tracer.named("experiments.store.put")
    gets = tracer.named("experiments.store.get")
    metrics.update({
        "experiments.store.put.calls": float(len(puts)),
        "experiments.store.put.ms": _ms(puts),
        "experiments.store.put.bytes": _units(puts),
        "experiments.store.get.calls": float(len(gets)),
        "experiments.store.get.ms": _ms(gets),
        "experiments.store.warm_hit_ratio": run.extra.get("warm_hit_ratio",
                                                          0.0),
        "experiments.warm_wall_ms": run.extra.get("warm_wall_ms", 0.0),
    })
    return metrics
