"""Span tracer that wraps each layer's entry points from outside the package.

``Tracer.installed()`` patches the boundaries listed in :data:`BOUNDARIES`
with timing wrappers, records one span per call (name, start, end, parent
span, work units) in memory, and restores every original attribute on
exit.  Nothing in ``src/`` changes: the wrappers live here, are installed
only for a traced pass, and :func:`leaked_wrappers` proves none survive.

A boundary whose attribute no longer exists (a private method renamed by
a later refactor) is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: Marker attribute carried by every wrapper this module installs.
MARKER = "__perfbench_wrapped__"


def _size(value: Any) -> int:
    return int(np.size(value))


def _jones_cells(args, kwargs, result) -> int:
    # (..., 2, 2) Jones matrices: one cell per trailing matrix.
    return _size(result) // 4


def _axis_points(args, kwargs, result) -> int:
    values = args[2] if len(args) > 2 else kwargs.get("values")
    return _size(values)


def _result_size(args, kwargs, result) -> int:
    return _size(result)


def _point_count(args, kwargs, result) -> int:
    return int(result.point_count)


def _batch_requests(args, kwargs, result) -> int:
    return len(args[1])


def _stored_bytes(args, kwargs, result) -> int:
    return int(result.stat().st_size)


def _store_hit(args, kwargs, result) -> int:
    return int(result is not None)


@dataclass(frozen=True)
class Boundary:
    """One wrapped method: ``module.owner.attribute`` as span ``name``."""

    name: str
    module: str
    owner: str
    attribute: str
    units: Optional[Callable] = None


#: Layer boundaries, innermost layer first.  Only methods are wrapped:
#: patching the class reaches every caller, where a module-level
#: function imported by name elsewhere would escape the patch.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("metasurface.jones_batch", "repro.metasurface.surface",
             "Metasurface", "jones_matrix_batch", _jones_cells),
    Boundary("channel.axis_params", "repro.channel.link", "WirelessLink",
             "_axis_parameters", _axis_points),
    Boundary("channel.budget", "repro.channel.link", "WirelessLink",
             "_budget_power_dbm", _result_size),
    Boundary("channel.evaluate_grid", "repro.channel.link", "WirelessLink",
             "evaluate_grid", _result_size),
    Boundary("core.controller.optimize_grid", "repro.core.controller",
             "CentralizedController", "optimize_grid", _point_count),
    Boundary("network.ensemble_for", "repro.network.deployment",
             "DenseDeployment", "ensemble_for"),
    Boundary("network.scheduler.schedule", "repro.network.scheduler",
             "FixedBiasScheduler", "schedule"),
    Boundary("network.scheduler.schedule", "repro.network.scheduler",
             "PerStationScheduler", "schedule"),
    Boundary("network.scheduler.schedule", "repro.network.scheduler",
             "PolarizationReuseScheduler", "schedule"),
    Boundary("api.fleet.probe_aligned", "repro.api.fleet", "FleetSession",
             "probe_aligned", _result_size),
    Boundary("serve.serve_trace", "repro.serve.service", "SurfaceService",
             "serve_trace"),
    Boundary("serve.batch", "repro.serve.service", "SurfaceService",
             "_serve_batch", _batch_requests),
    Boundary("serve.handler", "repro.serve.service", "SurfaceService",
             "_serve_measure"),
    Boundary("serve.handler", "repro.serve.service", "SurfaceService",
             "_serve_optimize"),
    Boundary("serve.handler", "repro.serve.service", "SurfaceService",
             "_serve_schedule"),
    Boundary("serve.handler", "repro.serve.service", "SurfaceService",
             "_serve_health"),
    Boundary("world.traces", "repro.world.dynamics", "WorldTimeline",
             "distance_plane"),
    Boundary("world.traces", "repro.world.dynamics", "WorldTimeline",
             "orientation_plane"),
    Boundary("world.evaluate", "repro.world.dynamics", "WorldTimeline",
             "evaluate", _result_size),
    Boundary("world.best_bias_planes", "repro.world.dynamics",
             "WorldTimeline", "best_bias_planes"),
    Boundary("experiments.run", "repro.experiments.runner", "Runner", "run"),
    Boundary("experiments.store.put", "repro.experiments.store",
             "ResultStore", "put", _stored_bytes),
    Boundary("experiments.store.get", "repro.experiments.store",
             "ResultStore", "get", _store_hit),
)


@dataclass
class Span:
    """One recorded call of a wrapped boundary."""

    name: str
    start_ns: int
    parent: Optional[int]
    end_ns: int = 0
    units: int = 0
    label: str = ""

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass
class Tracer:
    """In-memory span recorder plus the patch/restore machinery."""

    spans: List[Span] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str, label: str = "", nest: bool = True) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), parent,
                               label=label))
        index = len(self.spans) - 1
        if nest:
            self._stack.append(index)
        return index

    def _close(self, index: int, nest: bool = True) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        if nest:
            self._stack.pop()

    def _wrap(self, boundary: Boundary, original: Callable) -> Callable:
        tracer = self
        units = boundary.units
        label_arg = boundary.name == "experiments.run"

        if inspect.iscoroutinefunction(original):
            # An async boundary suspends mid-call, so it must not sit on
            # the nesting stack: its span is opened and closed around the
            # await without becoming the parent of other tasks' spans.
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                index = tracer._open(boundary.name, nest=False)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(index, nest=False)
                if units is not None:
                    tracer.spans[index].units = units(args, kwargs, result)
                return result

            setattr(async_wrapper, MARKER, True)
            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = str(args[1]) if label_arg and len(args) > 1 else ""
            index = tracer._open(boundary.name, label=label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if units is not None:
                tracer.spans[index].units = units(args, kwargs, result)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self):
        """Wrap every present boundary; restore all of them on exit."""
        restore: List[Tuple[Any, str, Any]] = []
        self.absent = []
        try:
            for boundary in BOUNDARIES:
                target = _resolve_owner(boundary)
                if target is None or boundary.attribute not in vars(target):
                    self.absent.append(
                        f"{boundary.module}.{boundary.owner}."
                        f"{boundary.attribute}")
                    continue
                original = vars(target)[boundary.attribute]
                restore.append((target, boundary.attribute, original))
                setattr(target, boundary.attribute,
                        self._wrap(boundary, original))
            yield self
        finally:
            for target, attribute, original in reversed(restore):
                setattr(target, attribute, original)
            self._stack.clear()

    # ------------------------------------------------------------------ #
    # Queries over the recorded spans
    # ------------------------------------------------------------------ #
    def named(self, name: str, window: Optional[Tuple[int, int]] = None
              ) -> List[Span]:
        """Outermost spans of one boundary name, optionally in a window.

        A span nested inside another span of the same name (a wrapped
        method calling itself through ``super`` or a sibling) is left
        out, so its time is not counted twice.
        """
        return [span for span in self.spans if span.name == name
                and _inside(span, window)
                and not self.has_ancestor(span, name)]

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def top_level_ms(self, window: Tuple[int, int]) -> float:
        """Time covered by spans that have no parent span."""
        return sum(span.ms for span in self.spans
                   if span.parent is None and _inside(span, window))


def _inside(span: Span, window: Optional[Tuple[int, int]]) -> bool:
    return window is None or (window[0] <= span.start_ns
                              and span.end_ns <= window[1])


def _resolve_owner(boundary: Boundary):
    try:
        module = importlib.import_module(boundary.module)
    except ImportError:
        return None
    return getattr(module, boundary.owner, None)


def leaked_wrappers() -> List[str]:
    """Boundaries that currently hold one of this module's wrappers."""
    leaked = []
    for boundary in BOUNDARIES:
        target = _resolve_owner(boundary)
        if target is None:
            continue
        current = vars(target).get(boundary.attribute)
        if getattr(current, MARKER, False):
            leaked.append(f"{boundary.owner}.{boundary.attribute}")
    return leaked
