"""Polarization-rotation-angle estimation (paper Sec. 3.4, Fig. 12).

The achieved rotation angle depends on the link (distance, incident
power), so LLAMA estimates it from power measurements rather than
assuming the simulated Table 1 values.  The procedure:

1. with the transmitter fixed, rotate the receiver to find the
   orientation ``theta_0`` of maximum power (polarization-aligned);
2. sweep the bias voltages and record the combinations giving the
   minimum (``V_min``) and maximum (``V_max``) received power;
3. at each of those two bias states, rotate the receiver through 180
   degrees again and find the new best orientations ``theta_min`` and
   ``theta_max``; the differences ``|theta_0 - theta_min|`` and
   ``|theta_0 - theta_max|`` are the minimum and maximum rotation angles
   the surface produces on this link.

The estimator talks to the world through an orientation-aware
measurement backend (see :mod:`repro.api.backend`): the voltage sweeps
of step 2 are issued as batched probes at a fixed orientation, and each
probed orientation's link is built once and cached (via
:class:`repro.api.OrientationBackend`) instead of being reconstructed
per probe.  Recorded traces and turntable hardware plug in as a
scalar ``measure(orientation_deg, vx, vy)`` callable wrapped in
:class:`repro.api.CallableOrientationBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import CentralizedController, VoltageSweepConfig


def _require_orientation_backend(backend) -> None:
    """Reject anything that is not an orientation-aware backend."""
    if not (hasattr(backend, "measure") and hasattr(backend, "measure_batch")):
        raise TypeError(
            f"expected a repro.api.OrientationMeasurementBackend, got "
            f"{type(backend).__name__}; wrap a scalar measure(orientation_deg,"
            f" vx, vy) callable in repro.api.CallableOrientationBackend")


@dataclass(frozen=True)
class RotationEstimate:
    """Result of the Sec. 3.4 estimation procedure."""

    reference_orientation_deg: float
    min_rotation_deg: float
    max_rotation_deg: float
    min_power_voltages: Tuple[float, float]
    max_power_voltages: Tuple[float, float]

    @property
    def rotation_span_deg(self) -> float:
        """Width of the achievable rotation range."""
        return self.max_rotation_deg - self.min_rotation_deg


def _orientation_difference_deg(angle_a: float, angle_b: float) -> float:
    """Smallest unsigned difference between two antenna orientations.

    Antenna polarization orientations repeat every 180 degrees.
    """
    difference = abs(angle_a - angle_b) % 180.0
    return min(difference, 180.0 - difference)


class RotationAngleEstimator:
    """Implements the three-step estimation procedure of paper Sec. 3.4."""

    def __init__(self,
                 sweep_config: Optional[VoltageSweepConfig] = None,
                 orientation_step_deg: float = 1.0,
                 reference_voltages: Tuple[float, float] = (0.0, 0.0)):
        if orientation_step_deg <= 0:
            raise ValueError("orientation step must be positive")
        self.controller = CentralizedController(sweep_config)
        self.orientation_step_deg = orientation_step_deg
        self.reference_voltages = reference_voltages

    # ------------------------------------------------------------------ #
    # Step helpers
    # ------------------------------------------------------------------ #
    def find_best_orientation(self, backend, vx: float, vy: float) -> float:
        """Rotate the receiver through 180 degrees; return the best angle."""
        _require_orientation_backend(backend)
        orientations = np.arange(0.0, 180.0, self.orientation_step_deg)
        powers = [backend.measure(float(angle), vx, vy)
                  for angle in orientations]
        return float(orientations[int(np.argmax(powers))])

    def find_extreme_voltages(self, backend, orientation_deg: float,
                              exhaustive: bool = False,
                              step_v: float = 2.0) -> Tuple[Tuple[float, float],
                                                            Tuple[float, float]]:
        """Voltage pairs giving the minimum and maximum power (step 2).

        The voltage search runs against a fixed-orientation view of the
        backend, so the controller issues batched probes.
        """
        from repro.api.backend import FixedOrientationBackend
        _require_orientation_backend(backend)
        result = self.controller.optimize(
            FixedOrientationBackend(backend, orientation_deg),
            exhaustive=exhaustive, step_v=step_v)
        samples = sorted(result.samples, key=lambda sample: sample.power_dbm)
        weakest = samples[0]
        strongest = samples[-1]
        return ((weakest.vx, weakest.vy), (strongest.vx, strongest.vy))

    # ------------------------------------------------------------------ #
    # Full procedure
    # ------------------------------------------------------------------ #
    def estimate(self, backend,
                 exhaustive_voltage_sweep: bool = False) -> RotationEstimate:
        """Run steps 1-3 and return the rotation-angle estimate."""
        ref_vx, ref_vy = self.reference_voltages
        # Step 1: align the receiver with the incoming polarization.
        theta_0 = self.find_best_orientation(backend, ref_vx, ref_vy)
        # Step 2: find the bias pairs giving min and max power.
        v_min, v_max = self.find_extreme_voltages(
            backend, theta_0, exhaustive=exhaustive_voltage_sweep)
        # Step 3: re-align the receiver at each extreme bias pair.
        theta_min = self.find_best_orientation(backend, *v_min)
        theta_max = self.find_best_orientation(backend, *v_max)
        min_rotation = _orientation_difference_deg(theta_0, theta_min)
        max_rotation = _orientation_difference_deg(theta_0, theta_max)
        # The "minimum" bias pair may still rotate more than the
        # "maximum power" pair does; report the smaller/larger values.
        low, high = sorted((min_rotation, max_rotation))
        return RotationEstimate(
            reference_orientation_deg=theta_0,
            min_rotation_deg=low,
            max_rotation_deg=high,
            min_power_voltages=v_min,
            max_power_voltages=v_max,
        )


def power_slope_per_degree(orientations_deg: Sequence[float],
                           powers_linear: Sequence[float]) -> float:
    """Least-squares slope of linear received power vs orientation.

    Paper Fig. 12(a) observes that, before dBm conversion, received power
    falls approximately linearly with the Tx/Rx orientation difference;
    the slope calibrates power changes into rotation degrees at unknown
    distances.
    """
    orientations = np.asarray(orientations_deg, dtype=float)
    powers = np.asarray(powers_linear, dtype=float)
    if orientations.shape != powers.shape or orientations.size < 2:
        raise ValueError("need matching sequences of at least two points")
    slope, _intercept = np.polyfit(orientations, powers, 1)
    return float(slope)


__all__ = [
    "RotationEstimate",
    "RotationAngleEstimator",
    "power_slope_per_degree",
]
