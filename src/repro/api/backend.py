"""Measurement backends: the one-method probe protocol of the API.

The controller, schedulers and figure runners only ever need one
operation from the world: "what power does the receiver report at
these operating points?".  A :class:`~repro.channel.grid.ProbeGrid`
names the operating points (bias voltages plus any subset of
:data:`~repro.channel.grid.SWEEP_AXES`), so the protocol is a single
method::

    measure_grid(grid: ProbeGrid) -> np.ndarray   # shape grid.shape

A scalar probe is a 0-d grid, a bias heatmap a bias-only grid, and a
per-point controller search an aligned grid over one or more sweep
axes.  A backend raises ``TypeError`` for grid axes it cannot serve.

* :class:`MeasurementBackend` — the protocol;
* :class:`LinkBackend` — the simulation backend: any axes, one
  vectorized pass of :meth:`repro.channel.link.WirelessLink.evaluate_grid`;
* :class:`CallableBackend` — adapts a scalar ``measure(vx, vy)``
  callable (noisy receivers, recorded traces, real hardware); serves
  bias-only grids through a Python loop;
* :class:`ReceiverSweepBackend` — the noisy sampling receiver of
  Figs. 18-19; serves grids with exactly one sweep axis;
* :class:`OrientationBackend` / :class:`CallableOrientationBackend` —
  the orientation-aware variant the rotation-angle estimator needs,
  with per-orientation link caching, and :class:`FixedOrientationBackend`,
  its bias-only :class:`MeasurementBackend` view.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Protocol, runtime_checkable

import numpy as np

from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink

#: Scalar orientation-aware measurement callback signature.
OrientationMeasureCallback = Callable[[float, float, float], float]


@runtime_checkable
class MeasurementBackend(Protocol):
    """Anything that can report received power over a probe grid.

    ``measure_grid(grid)`` returns an array of ``grid.shape``; cell
    ``index`` is the power at that cell's operating point.  Backends
    raise ``TypeError`` for grid axes they cannot serve.
    """

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) at every grid operating point."""
        ...


class LinkBackend:
    """The simulation backend: probes a :class:`WirelessLink` directly.

    This is the noiseless, vectorized data plane every deterministic
    sweep and figure runner uses: any probe grid evaluates the full
    link budget in one NumPy pass.
    """

    def __init__(self, link: WirelessLink):
        self.link = link

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) over a whole N-D probe grid at once."""
        return self.link.evaluate_grid(grid)


class CallableBackend:
    """Adapts a scalar ``measure(vx, vy)`` callable to the protocol.

    Serves bias-only grids by looping the callable over the grid's
    cells in C order, which for the controller's vx-major grids is the
    historical probe order (and therefore the noise-sequence/clock
    behaviour of stateful callables such as the simulated sampling
    receiver or a hardware supply in the loop).
    """

    def __init__(self, measure: Callable[[float, float], float]):
        if not callable(measure):
            raise TypeError("CallableBackend needs a measure(vx, vy) callable")
        self._measure = measure

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Loop the scalar callable over a bias-only grid."""
        vx, vy = grid.bias_voltages()
        powers = np.array([self._measure(float(a), float(b))
                           for a, b in zip(vx.ravel(), vy.ravel())],
                          dtype=float)
        return powers.reshape(grid.shape)


class ReceiverSweepBackend:
    """Sweep-axis measurement plane over a noisy sampling receiver.

    Adapts a :class:`repro.radio.transceiver.SimulatedReceiver` to the
    protocol for the capacity experiments of Figs. 18-19, where the
    controller must see *noisy* power reports.  Serves grids with
    exactly one sweep axis through the receiver's batched
    :meth:`measure_power_dbm_sweep`, which draws one noise realisation
    per probe column and shares it across axis points — reproducing, to
    floating-point round-off, the reports a Python loop of identically
    seeded per-point receivers would have produced.
    """

    def __init__(self, receiver, duration_s: float = 0.005,
                 tone_frequency_hz: float = 500e3):
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.receiver = receiver
        self.duration_s = duration_s
        self.tone_frequency_hz = tone_frequency_hz

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Noisy received-power reports over a one-sweep-axis grid."""
        if len(grid.sweep_names) != 1:
            raise TypeError(
                f"ReceiverSweepBackend serves grids with exactly one sweep "
                f"axis; the grid has {grid.sweep_names}")
        axis = grid.sweep_names[0]
        return self.receiver.measure_power_dbm_sweep(
            axis, grid.shaped(axis),
            vx=grid.shaped("vx") if "vx" in grid else 0.0,
            vy=grid.shaped("vy") if "vy" in grid else 0.0,
            duration_s=self.duration_s,
            tone_frequency_hz=self.tone_frequency_hz)


# ---------------------------------------------------------------------- #
# Orientation-aware backends (rotation-angle estimation)
# ---------------------------------------------------------------------- #
@runtime_checkable
class OrientationMeasurementBackend(Protocol):
    """Measurement plane with a receiver-orientation degree of freedom."""

    def measure(self, orientation_deg: float, vx: float, vy: float) -> float:
        """Received power (dBm) at one (orientation, Vx, Vy) point."""
        ...

    def measure_batch(self, orientation_deg: float, vx: np.ndarray,
                      vy: np.ndarray) -> np.ndarray:
        """Received power (dBm) over bias grids at a fixed orientation."""
        ...


class OrientationBackend:
    """Orientation-aware backend over a link, caching one link per angle.

    The Sec. 3.4 estimation procedure probes the same few receiver
    orientations hundreds of times; rebuilding a :class:`WirelessLink`
    (and its frozen configuration) per probe dominated the seed
    implementation's cost.  Here each orientation's rotated link is
    built once and each voltage sweep at that orientation is a single
    vectorized pass.
    """

    def __init__(self, link: WirelessLink,
                 cache: Optional[Dict[float, WirelessLink]] = None):
        self._base = link
        self._links: Dict[float, WirelessLink] = cache if cache is not None else {}

    def link_for_orientation(self, orientation_deg: float) -> WirelessLink:
        """The link with the receive antenna rotated to ``orientation_deg``."""
        key = float(orientation_deg)
        if key not in self._links:
            configuration = self._base.configuration
            self._links[key] = WirelessLink(replace(
                configuration,
                rx_antenna=configuration.rx_antenna.rotated(key)))
        return self._links[key]

    def measure(self, orientation_deg: float, vx: float, vy: float) -> float:
        """Received power (dBm) at one (orientation, Vx, Vy) point."""
        return self.link_for_orientation(orientation_deg).received_power_dbm(
            vx, vy)

    def measure_batch(self, orientation_deg: float, vx: np.ndarray,
                      vy: np.ndarray) -> np.ndarray:
        """Vectorized bias sweep at one receiver orientation."""
        return self.link_for_orientation(orientation_deg).evaluate_grid(
            ProbeGrid.aligned(vx=vx, vy=vy))


class CallableOrientationBackend:
    """Adapts a scalar ``measure(orientation, vx, vy)`` callable."""

    def __init__(self, measure: OrientationMeasureCallback):
        if not callable(measure):
            raise TypeError(
                "CallableOrientationBackend needs a measure(orientation, vx, "
                "vy) callable")
        self._measure = measure

    def measure(self, orientation_deg: float, vx: float, vy: float) -> float:
        """Received power (dBm) at one (orientation, Vx, Vy) point."""
        return float(self._measure(orientation_deg, vx, vy))

    def measure_batch(self, orientation_deg: float, vx: np.ndarray,
                      vy: np.ndarray) -> np.ndarray:
        """Loop the scalar callable over the (broadcast) voltage arrays."""
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        vx_b, vy_b = np.broadcast_arrays(vx, vy)
        powers = np.array(
            [self._measure(float(orientation_deg), float(a), float(b))
             for a, b in zip(vx_b.ravel(), vy_b.ravel())], dtype=float)
        return powers.reshape(vx_b.shape)


class FixedOrientationBackend:
    """A :class:`MeasurementBackend` view of an orientation backend.

    Freezes the receiver orientation so the bias-voltage controller can
    sweep voltages without knowing about the turntable; serves
    bias-only grids.
    """

    def __init__(self, backend: OrientationMeasurementBackend,
                 orientation_deg: float):
        self._backend = backend
        self.orientation_deg = float(orientation_deg)

    def measure_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) over a bias-only grid at the fixed angle."""
        vx, vy = grid.bias_voltages()
        return self._backend.measure_batch(self.orientation_deg, vx, vy)


__all__ = [
    "OrientationMeasureCallback",
    "MeasurementBackend",
    "LinkBackend",
    "CallableBackend",
    "ReceiverSweepBackend",
    "OrientationMeasurementBackend",
    "OrientationBackend",
    "CallableOrientationBackend",
    "FixedOrientationBackend",
]
