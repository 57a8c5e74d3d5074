"""Generic parameter-sweep drivers used by the figure runners.

Every evaluation figure in the paper is a sweep over one or two
parameters with received power (or capacity) recorded with and without
the metasurface.  These helpers implement those loops once so the
per-figure runners stay declarative.

Three execution paths exist:

* :func:`grid_sweep` — the N-D grid engine.  A
  :class:`~repro.channel.grid.ProbeGrid` names any subset of the link-
  parameter axes (e.g. frequency x distance) and one link (plus its
  baseline) covers the whole product grid: the controller optimizes
  every cell together through batched grid probes and the baseline is a
  single vectorized pass.  The two-axis figure runners use this.
* :func:`multi_axis_sweep` — the single-axis view of the same engine.
  This is what the Fig. 16-19/22 runners use.
* :func:`comparison_sweep` — the legacy per-point loop over arbitrary
  link factories, kept for workloads whose factories vary more than one
  parameter.  The axis-named wrappers (:func:`frequency_sweep`,
  :func:`tx_power_sweep`, :func:`distance_sweep`) default to the
  vectorized engine and fall back to the loop on request.

The figure-level consumers of these drivers are registered experiments
(see :mod:`repro.experiments.registry`); run them by name through
:class:`~repro.experiments.runner.Runner` or
``python -m repro.experiments`` rather than hand-rolling sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.backend import LinkBackend
from repro.channel.capacity import spectral_efficiency_from_powers
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.core.controller import CentralizedController, VoltageSweepConfig


@dataclass(frozen=True)
class SweepPoint:
    """One point of a with/without comparison sweep."""

    parameter: float
    power_with_dbm: float
    power_without_dbm: float
    best_vx: float
    best_vy: float

    @property
    def gain_db(self) -> float:
        """Received-power improvement the surface provides at this point."""
        return self.power_with_dbm - self.power_without_dbm


def _default_controller() -> CentralizedController:
    return CentralizedController(
        VoltageSweepConfig(iterations=2, switches_per_axis=5))


def optimize_link(link: WirelessLink,
                  controller: Optional[CentralizedController] = None,
                  exhaustive: bool = False,
                  step_v: float = 3.0) -> Tuple[float, float, float]:
    """Find the best (power, vx, vy) for a link via the controller.

    Returns ``(best_power_dbm, best_vx, best_vy)``.
    """
    controller = controller or _default_controller()
    result = controller.optimize(LinkBackend(link),
                                 exhaustive=exhaustive, step_v=step_v)
    return result.best_power_dbm, result.best_vx, result.best_vy


def multi_axis_sweep(axis: str,
                     values: Sequence[float],
                     link: WirelessLink,
                     baseline_link: Optional[WirelessLink] = None,
                     controller: Optional[CentralizedController] = None,
                     exhaustive: bool = False,
                     step_v: float = 3.0,
                     backend=None) -> List[SweepPoint]:
    """Vectorized with/without comparison along one link-parameter axis.

    ``link`` is evaluated at every axis value (``axis`` is one of
    :data:`repro.channel.link.SWEEP_AXES`) with the surface optimized
    per point — all points probed together through one aligned
    ``measure_grid`` probe per refinement iteration — and compared
    against ``baseline_link`` (default: ``link.baseline()``) in a single
    vectorized pass.  Per point the optimization grids, first-maximum
    selection and NaN handling are identical to the scalar
    :func:`comparison_sweep` path.

    ``backend`` overrides the measurement plane the controller probes
    (default: a noiseless :class:`LinkBackend` over ``link``); pass a
    :class:`repro.api.ReceiverSweepBackend` for noisy-receiver
    semantics.
    """
    controller = controller or _default_controller()
    backend = backend if backend is not None else LinkBackend(link)
    values = np.asarray(values, dtype=float).ravel()
    result = controller.optimize_grid(
        backend, ProbeGrid.product(**{axis: values}),
        exhaustive=exhaustive, step_v=step_v)
    baseline_link = baseline_link if baseline_link is not None else link.baseline()
    without = baseline_link.evaluate_grid(ProbeGrid.aligned(**{axis: values}))
    return [SweepPoint(parameter=float(value),
                       power_with_dbm=float(power),
                       power_without_dbm=float(base),
                       best_vx=float(vx), best_vy=float(vy))
            for value, vx, vy, power, base in zip(
                values, result.best_vx, result.best_vy,
                result.best_power_dbm, without)]


@dataclass(frozen=True)
class GridComparison:
    """With/without comparison over an N-D probe grid.

    Every array has ``grid.shape``: the per-cell optimized received
    power of the with-surface link, the matching no-surface baseline,
    and the bias pair the search chose at each cell.
    """

    grid: ProbeGrid
    power_with_dbm: np.ndarray
    power_without_dbm: np.ndarray
    best_vx: np.ndarray
    best_vy: np.ndarray

    @property
    def gain_db(self) -> np.ndarray:
        """Per-cell received-power improvement the surface provides."""
        return self.power_with_dbm - self.power_without_dbm


def grid_sweep(grid: ProbeGrid,
               link: WirelessLink,
               baseline_link: Optional[WirelessLink] = None,
               controller: Optional[CentralizedController] = None,
               exhaustive: bool = False,
               step_v: float = 3.0,
               backend=None) -> GridComparison:
    """Vectorized with/without comparison over an N-D probe grid.

    The joint generalisation of :func:`multi_axis_sweep`: ``grid``
    names any subset of :data:`repro.channel.grid.SWEEP_AXES` (e.g. a
    frequency x distance product) and the surface is optimized at
    every cell — all cells probed together through batched grid calls —
    while ``baseline_link`` (default: ``link.baseline()``) is a single
    vectorized pass of the evaluation engine over the same grid.
    """
    controller = controller or _default_controller()
    backend = backend if backend is not None else LinkBackend(link)
    result = controller.optimize_grid(backend, grid, exhaustive=exhaustive,
                                      step_v=step_v)
    baseline_link = baseline_link if baseline_link is not None else link.baseline()
    without = np.broadcast_to(
        np.asarray(baseline_link.evaluate(grid), dtype=float),
        grid.shape).copy()
    return GridComparison(grid=grid,
                          power_with_dbm=result.best_power_dbm,
                          power_without_dbm=without,
                          best_vx=result.best_vx,
                          best_vy=result.best_vy)


def comparison_sweep(parameter_values: Sequence[float],
                     link_factory: Callable[[float], WirelessLink],
                     baseline_factory: Callable[[float], WirelessLink],
                     controller: Optional[CentralizedController] = None,
                     exhaustive: bool = False,
                     step_v: float = 3.0) -> List[SweepPoint]:
    """Sweep a parameter, optimizing the surface at every point.

    The legacy per-point loop: ``link_factory(value)`` must return the
    with-surface link and ``baseline_factory(value)`` the matching
    no-surface link.  Factories may vary anything with the parameter;
    when only a single link parameter changes, prefer
    :func:`multi_axis_sweep`, which evaluates the whole axis in
    vectorized passes.
    """
    points: List[SweepPoint] = []
    for value in parameter_values:
        with_link = link_factory(value)
        without_link = baseline_factory(value)
        best_power, best_vx, best_vy = optimize_link(
            with_link, controller=controller, exhaustive=exhaustive,
            step_v=step_v)
        points.append(SweepPoint(
            parameter=float(value),
            power_with_dbm=best_power,
            power_without_dbm=without_link.received_power_dbm(),
            best_vx=best_vx,
            best_vy=best_vy,
        ))
    return points


def _scenario_axis_sweep(axis: str,
                         values: Sequence[float],
                         scenario_factory: Callable[[float], "object"],
                         vectorized: bool = True,
                         **kwargs) -> List[SweepPoint]:
    """Shared implementation of the axis-named scenario sweeps.

    The vectorized path builds one scenario (at the first axis value)
    and sweeps the axis on its link, which assumes the factory varies
    only that axis — true of every canonical scenario.  Pass
    ``vectorized=False`` for factories that vary additional parameters.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return []
    if vectorized:
        scenario = scenario_factory(float(values[0]))
        return multi_axis_sweep(axis, values, scenario.link(),
                                baseline_link=scenario.baseline_link(),
                                **kwargs)
    return comparison_sweep(
        values,
        link_factory=lambda value: scenario_factory(value).link(),
        baseline_factory=lambda value: scenario_factory(value).baseline_link(),
        **kwargs)


def distance_sweep(distances_m: Sequence[float],
                   scenario_factory: Callable[[float], "object"],
                   vectorized: bool = True,
                   **kwargs) -> List[SweepPoint]:
    """Sweep the Tx-Rx (or Tx-surface) distance of a scenario.

    ``scenario_factory(distance)`` must return an object exposing
    ``link()`` and ``baseline_link()`` (the scenario classes do).
    """
    return _scenario_axis_sweep("distance", distances_m, scenario_factory,
                                vectorized=vectorized, **kwargs)


def frequency_sweep(frequencies_hz: Sequence[float],
                    scenario_factory: Callable[[float], "object"],
                    vectorized: bool = True,
                    **kwargs) -> List[SweepPoint]:
    """Sweep the operating frequency of a scenario."""
    return _scenario_axis_sweep("frequency", frequencies_hz, scenario_factory,
                                vectorized=vectorized, **kwargs)


def tx_power_sweep(tx_powers_dbm: Sequence[float],
                   scenario_factory: Callable[[float], "object"],
                   vectorized: bool = True,
                   **kwargs) -> List[SweepPoint]:
    """Sweep the transmit power of a scenario."""
    return _scenario_axis_sweep("tx_power", tx_powers_dbm, scenario_factory,
                                vectorized=vectorized, **kwargs)


def voltage_grid_sweep(link: WirelessLink,
                       step_v: float = 2.0,
                       v_min: float = 0.0,
                       v_max: float = 30.0) -> Dict[Tuple[float, float], float]:
    """Exhaustive (Vx, Vy) grid of received power, for heatmap figures."""
    if step_v <= 0:
        raise ValueError("step must be positive")
    if v_max <= v_min:
        raise ValueError("v_max must exceed v_min")
    levels = np.arange(v_min, v_max + 0.5 * step_v, step_v)
    vx_grid, vy_grid = np.meshgrid(levels, levels, indexing="ij")
    powers = link.evaluate_grid(ProbeGrid.aligned(vx=vx_grid.ravel(),
                                                  vy=vy_grid.ravel()))
    return {(float(vx), float(vy)): float(power)
            for vx, vy, power in zip(vx_grid.ravel(), vy_grid.ravel(), powers)}


def sweep_capacity(points: Sequence[SweepPoint],
                   noise_power_dbm: float) -> List[Tuple[float, float, float]]:
    """Convert sweep powers into spectral efficiencies.

    One vectorized Shannon evaluation over the whole sweep; returns
    ``(parameter, efficiency_with, efficiency_without)`` tuples.
    """
    if not points:
        return []
    with_eff = spectral_efficiency_from_powers(
        np.array([point.power_with_dbm for point in points]), noise_power_dbm)
    without_eff = spectral_efficiency_from_powers(
        np.array([point.power_without_dbm for point in points]),
        noise_power_dbm)
    return [(point.parameter, float(w), float(wo))
            for point, w, wo in zip(points, with_eff, without_eff)]


__all__ = [
    "SweepPoint",
    "GridComparison",
    "optimize_link",
    "grid_sweep",
    "multi_axis_sweep",
    "comparison_sweep",
    "distance_sweep",
    "frequency_sweep",
    "tx_power_sweep",
    "voltage_grid_sweep",
    "sweep_capacity",
]
