"""The four seeded workloads: inputs, one timed pass, and output checks.

Each workload builds its inputs from the seed in ``__init__`` (that is
the set-up the ``setup_s`` metric times), runs its public entry point in
:meth:`run_pass`, and checks the outputs in :meth:`check`: the first
pass against the package's scalar references, every later pass for
bit-identity with the first.  A pass counts *operations* (requests,
fleets, experiments); an operation that misses a check is a failure.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.link import probe_evaluations
from repro.serve import LoadProfile, ServiceConfig, generate_trace, serve_trace
from repro.world import (
    TOPOLOGY_FAMILIES,
    MobilityTrace,
    RotationTrace,
    WorldTimeline,
    generate_fleet,
    topology_digest,
)

#: Parity bound against the scalar references (dB).
PARITY_DB = 1e-9

#: Office fleet size of the serve and world workloads.
OFFICE_STATIONS = 32

#: Where the run_all workload keeps its result stores, inside the
#: checkout; each store is deleted after its pass.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"


@dataclass
class Pass:
    """One timed pass: host time of the timed call, work done, outputs."""

    wall_s: float
    work: float
    outputs: Any
    window_ns: Tuple[int, int]
    extra: Dict[str, float] = field(default_factory=dict)


def _timed(call) -> Tuple[Any, float, Tuple[int, int]]:
    start = time.perf_counter_ns()
    result = call()
    end = time.perf_counter_ns()
    return result, (end - start) / 1e9, (start, end)


def _median_rate(passes: List[Pass]) -> float:
    """Median work units per host second over the passes."""
    return float(np.median([p.work / p.wall_s for p in passes]))


def _within(actual, expected) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return bool(actual.shape == expected.shape
                and np.all(np.isfinite(actual))
                and np.max(np.abs(actual - expected), initial=0.0)
                <= PARITY_DB)


class ServeMixed:
    """32-station office fleet under open-loop Poisson load, default mix."""

    name = "serve_mixed"
    unit = "requests"
    RATE_RPS = 400.0
    DURATION_S = 8.0

    def __init__(self, seed: int) -> None:
        self.spec = FleetSpec.office(station_count=OFFICE_STATIONS, seed=seed)
        self.trace = generate_trace(
            LoadProfile(rate_rps=self.RATE_RPS, duration_s=self.DURATION_S,
                        seed=seed),
            self.spec.station_names)
        self.config = ServiceConfig()

    def digests(self) -> Dict[str, int]:
        return {"request_trace": self.trace.digest()}

    def run_pass(self) -> Pass:
        result, wall_s, window = _timed(
            lambda: serve_trace(FleetSession(self.spec), self.trace,
                                self.config))
        metrics = result.metrics
        return Pass(wall_s=wall_s, work=float(metrics.ok_count),
                    outputs=result, window_ns=window,
                    extra={"virtual_p99_ms": metrics.latency.p99_s * 1e3,
                           "virtual_rps": metrics.throughput_rps,
                           "shed": float(metrics.rejected_count)})

    def check(self, run: Pass, first: Pass) -> Tuple[int, int]:
        responses = run.outputs.responses
        requests = self.trace.requests
        if [r.request_id for r in responses] != list(range(len(requests))):
            return len(requests), len(requests)
        bad = np.array([response.status != "ok" for response in responses])
        if run is first:
            measures = [i for i, request in enumerate(requests)
                        if request.kind == "measure"]
            direct = FleetSession(self.spec).measure_aligned(
                [requests[i].vx for i in measures],
                [requests[i].vy for i in measures],
                stations=[requests[i].station for i in measures])
            served = np.array([responses[i].value for i in measures])
            miss = ~(np.abs(served - direct) <= PARITY_DB)
            bad[np.asarray(measures, dtype=int)[miss]] = True
        else:
            bad |= np.array([
                (a.status, a.value, a.completed_s) !=
                (b.status, b.value, b.completed_s)
                for a, b in zip(responses, first.outputs.responses)])
        return len(requests), int(bad.sum())

    def named(self, passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
        first = passes[0]
        return {
            "requests_per_s": (_median_rate(passes), "1/s"),
            "virtual_p99_ms": (first.extra["virtual_p99_ms"], "ms"),
            "virtual_rps": (first.extra["virtual_rps"], "1/s"),
            # Arrivals are dispatched on the virtual clock at their due
            # time, so the generator is never late by construction;
            # latency is measured from each request's due time.
            "generator_lateness_ms": (0.0, "ms"),
        }


class WorldTimelineRun:
    """500-epoch office world: half moving, half rotating stations."""

    name = "world_timeline"
    unit = "cells"
    DURATION_S = 50.0
    TIME_STEP_S = 0.1
    BIAS_STEP_V = 10.0
    CHECK_EPOCHS = 10

    def __init__(self, seed: int) -> None:
        self.spec = FleetSpec.office(station_count=OFFICE_STATIONS, seed=seed)
        names = self.spec.station_names
        half = len(names) // 2
        self.mobility = {name: MobilityTrace.random_waypoint(
            seed, name, duration_s=self.DURATION_S) for name in names[:half]}
        self.rotation = {name: RotationTrace.random_walk(
            seed, name, duration_s=self.DURATION_S) for name in names[half:]}
        levels = np.arange(0.0, 30.0 + 0.5 * self.BIAS_STEP_V,
                           self.BIAS_STEP_V)
        self.candidates = levels.size ** 2

    def _timeline(self, time_step_s: float) -> WorldTimeline:
        return WorldTimeline(self.spec, mobility=self.mobility,
                             rotation=self.rotation,
                             duration_s=self.DURATION_S,
                             time_step_s=time_step_s)

    def digests(self) -> Dict[str, int]:
        pairs = self._timeline(self.TIME_STEP_S).trace_digests()
        return {"traces": zlib.crc32(repr(pairs).encode("utf-8"))}

    def run_pass(self) -> Pass:
        report, wall_s, window = _timed(
            lambda: self._timeline(self.TIME_STEP_S).run(
                bias_search_step_v=self.BIAS_STEP_V))
        # The retune cube probes every candidate bias at every cell, and
        # the no-surface baseline probes every cell once more.
        cells = (self.candidates * report.powers_with_dbm.size
                 + report.powers_without_dbm.size)
        return Pass(wall_s=wall_s, work=float(cells), outputs=report,
                    window_ns=window)

    def check(self, run: Pass, first: Pass) -> Tuple[int, int]:
        report = run.outputs
        if run is not first:
            same = all(np.array_equal(getattr(report, name),
                                      getattr(first.outputs, name))
                       for name in ("powers_with_dbm", "powers_without_dbm",
                                    "bias_vx", "bias_vy"))
            return 1, int(not same)
        # Every stride-th epoch of the plane, through the scalar loop.
        stride = len(report.times_s) // self.CHECK_EPOCHS
        sub = self._timeline(self.TIME_STEP_S * stride)
        rows = slice(None, None, stride)
        if sub.epoch_count != len(report.times_s[rows]):
            return 1, 1
        with_surface = sub.evaluate_reference(vx=report.bias_vx[rows],
                                              vy=report.bias_vy[rows])
        without = sub.evaluate_reference(with_surface=False)
        ok = (_within(with_surface, report.powers_with_dbm[rows])
              and _within(without, report.powers_without_dbm[rows]))
        return 1, int(not ok)

    def named(self, passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
        return {"cells_per_s": (_median_rate(passes), "1/s")}


class FleetSearch:
    """Four 64-station topology families through every stacked search."""

    name = "fleet_search"
    unit = "cells"
    STATIONS = 64
    EXHAUSTIVE_STEP_V = 0.5
    PLAN_STEP_V = 5.0
    CHECK_STATIONS = 4

    def __init__(self, seed: int) -> None:
        self.specs = tuple(generate_fleet(family, self.STATIONS, seed=seed)
                           for family in TOPOLOGY_FAMILIES)
        rng = np.random.default_rng(seed)
        self.sampled = [rng.choice(self.STATIONS, self.CHECK_STATIONS,
                                   replace=False) for _ in self.specs]
        levels = np.arange(0.0, 30.0 + 0.5 * self.PLAN_STEP_V,
                           self.PLAN_STEP_V)
        self.plan_candidates = levels.size ** 2

    def digests(self) -> Dict[str, int]:
        return {"topology": zlib.crc32(repr(
            [topology_digest(spec) for spec in self.specs]).encode("utf-8"))}

    def _search(self, spec: FleetSpec) -> Dict[str, Any]:
        session = FleetSession(spec)
        return {
            "algorithm1": session.optimize_grid(),
            "exhaustive": session.optimize_grid(
                exhaustive=True, step_v=self.EXHAUSTIVE_STEP_V),
            "plan": session.best_bias_plan(step_v=self.PLAN_STEP_V),
            "compromise": session.compromise_bias(step_v=self.PLAN_STEP_V),
            "throughput_mbps": session.schedule().total_throughput_mbps,
        }

    def run_pass(self) -> Pass:
        results, wall_s, window = _timed(
            lambda: [self._search(spec) for spec in self.specs])
        cells = 0
        for result in results:
            for key in ("algorithm1", "exhaustive"):
                sweep = result[key]
                cells += sweep.point_count * sweep.probe_count_per_point
            cells += result["plan"].best_vx.size * self.plan_candidates
        return Pass(wall_s=wall_s, work=float(cells), outputs=results,
                    window_ns=window)

    @staticmethod
    def _arrays(result: Dict[str, Any]) -> List[np.ndarray]:
        arrays = []
        for key in ("algorithm1", "exhaustive"):
            sweep = result[key]
            arrays += [sweep.best_vx, sweep.best_vy, sweep.best_power_dbm]
        plan = result["plan"]
        arrays += [plan.best_vx, plan.best_vy, plan.best_power_dbm,
                   np.asarray(result["compromise"]),
                   np.asarray(result["throughput_mbps"])]
        return arrays

    def _matches_reference(self, spec: FleetSpec, result: Dict[str, Any],
                           sampled: np.ndarray) -> bool:
        algorithm1, exhaustive = result["algorithm1"], result["exhaustive"]
        if np.any(algorithm1.best_power_dbm
                  > exhaustive.best_power_dbm + PARITY_DB):
            return False
        deployment = FleetSession(spec).deployment
        plan = result["plan"]
        for index in sampled:
            link = deployment.link_for(spec.station_names[index])
            for vx, vy, power in (
                    (algorithm1.best_vx, algorithm1.best_vy,
                     algorithm1.best_power_dbm),
                    (exhaustive.best_vx, exhaustive.best_vy,
                     exhaustive.best_power_dbm),
                    (plan.best_vx, plan.best_vy, plan.best_power_dbm)):
                scalar = link.received_power_dbm(float(vx[index]),
                                                 float(vy[index]))
                if not _within(scalar, power[index]):
                    return False
        return math.isfinite(result["throughput_mbps"])

    def check(self, run: Pass, first: Pass) -> Tuple[int, int]:
        failed = 0
        for index, (spec, result) in enumerate(zip(self.specs, run.outputs)):
            if run is first:
                ok = self._matches_reference(spec, result,
                                             self.sampled[index])
            else:
                ok = all(np.array_equal(a, b) for a, b in zip(
                    self._arrays(result),
                    self._arrays(first.outputs[index])))
            failed += int(not ok)
        return len(self.specs), failed

    def named(self, passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
        return {"cells_per_s": (_median_rate(passes), "1/s")}


class RunAll:
    """Every registered experiment, cold into a fresh store, then warm."""

    name = "run_all"
    unit = "experiments"

    def __init__(self, seed: int) -> None:
        # The registry's default parameters are the inputs; the seed has
        # nothing to vary here.  Hashing the package source (the store's
        # key) is part of opening a store, so it happens here too.  The
        # import is local so the other workloads' set-up does not pay
        # for loading every experiment module.
        from repro.experiments import REGISTRY, ResultStore, Runner
        from repro.experiments.store import code_fingerprint

        self._store_type, self._runner_type = ResultStore, Runner
        self.names = REGISTRY.names()
        self.registry_digest = zlib.crc32(repr(
            [(spec.name, sorted(spec.defaults().items()))
             for spec in REGISTRY.all()]).encode("utf-8"))
        code_fingerprint()

    def digests(self) -> Dict[str, int]:
        return {"registry": self.registry_digest}

    def run_pass(self) -> Pass:
        SCRATCH.mkdir(exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="store-", dir=SCRATCH))
        try:
            cold, wall_s, window = _timed(
                self._runner_type(store=self._store_type(directory)).run_all)
            store = self._store_type(directory)
            before = probe_evaluations()
            warm, warm_s, _window = _timed(
                self._runner_type(store=store).run_all)
            warm_probes = probe_evaluations() - before
        finally:
            shutil.rmtree(directory, ignore_errors=True)
            SCRATCH.rmdir()
        stats = store.stats
        lookups = stats.hits + stats.misses
        return Pass(wall_s=wall_s, work=float(len(cold)),
                    outputs=(cold, warm), window_ns=window,
                    extra={"warm_wall_ms": warm_s * 1e3,
                           "warm_probe_passes": float(warm_probes),
                           "warm_hit_ratio": (stats.hits / lookups
                                              if lookups else 0.0)})

    def check(self, run: Pass, first: Pass) -> Tuple[int, int]:
        cold, warm = run.outputs
        if [result.name for result in cold] != list(self.names):
            return len(self.names) + 1, len(self.names) + 1
        failed = 0
        for index, (result, cached) in enumerate(zip(cold, warm)):
            try:
                result.check()
                ok = result.equal(cached)
            except (AssertionError, ValueError):
                ok = False
            if run is not first:
                ok = ok and result.equal(first.outputs[0][index])
            failed += int(not ok)
        warm_ok = (run.extra["warm_probe_passes"] == 0
                   and run.extra["warm_hit_ratio"] == 1.0)
        return len(cold) + 1, failed + int(not warm_ok)

    def named(self, passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
        return {"wall_s": (float(np.median([p.wall_s for p in passes])),
                           "s")}


WORKLOADS = {
    "serve_mixed": ServeMixed,
    "world_timeline": WorldTimelineRun,
    "fleet_search": FleetSearch,
    "run_all": RunAll,
}
