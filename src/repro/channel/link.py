"""End-to-end link budget with and without the metasurface.

This is the work-horse of the reproduction: every figure in the paper's
evaluation ultimately measures the power a receiver sees for some
combination of

* antenna orientations (matched / mismatched),
* metasurface presence, placement (transmissive / reflective) and bias
  voltages,
* transmit power, operating frequency and distances,
* environment (absorber-covered chamber vs multipath-rich laboratory).

The model is a coherent field-summation budget:

1. the *engineered* path (direct for baselines, through-surface or
   surface-reflected when the metasurface is deployed) is computed as a
   Jones field propagated with Friis amplitude scaling and transformed
   by the surface's Jones matrix;
2. environmental clutter rays (from :class:`MultipathEnvironment`) are
   added coherently, weighted by the receive antenna pattern;
3. the receive antenna projects the total field onto its polarization
   (with finite cross-polar isolation) to yield received power.

Performance contract: :class:`LinkConfiguration` is frozen, so a
:class:`WirelessLink` caches every voltage-independent quantity (the
direct field, the pattern-weighted clutter field) on first use.  The
budget itself exists exactly once, in the N-D grid engine behind
:meth:`WirelessLink.evaluate_grid`: hand it a
:class:`~repro.channel.grid.ProbeGrid` over bias voltages and any
subset of :data:`~repro.channel.grid.SWEEP_AXES` and the whole grid
evaluates in a single vectorized pass.  The one other entry point, the
scalar :meth:`WirelessLink.received_power_dbm`, is a 0-d view over the
same engine; the parity suites pin the grid engine within 1e-9 dB to a
link rebuilt per operating point and probed through that scalar view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.channel.antenna import Antenna
from repro.channel.capacity import shannon_spectral_efficiency
from repro.channel.freespace import free_space_path_loss_db
from repro.channel.geometry import LinkGeometry
from repro.channel.grid import ProbeGrid, SWEEP_AXES
from repro.channel.multipath import MultipathEnvironment
from repro.channel.noise import thermal_noise_dbm
from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ, SPEED_OF_LIGHT
from repro.core.jones import JonesVector
from repro.metasurface.surface import Metasurface

#: Process-local count of link-budget engine passes (see
#: :func:`probe_evaluations`).
_BUDGET_EVALUATIONS = 0


def probe_evaluations() -> int:
    """How many times this process ran the link-budget engine.

    Every probe in the reproduction — scalar, batch, sweep, grid, fleet
    — funnels through :meth:`WirelessLink._budget_power_dbm`, so this
    counter is the backend instrumentation the result-store tests use
    to prove a warm :class:`~repro.experiments.store.ResultStore` run
    performs **zero** probe evaluations.  Compare deltas rather than
    absolute values; the counter is never reset.
    """
    return _BUDGET_EVALUATIONS


def _rotated_jones(antenna: Antenna, angles_deg: np.ndarray) -> np.ndarray:
    """``antenna.rotated(angle).jones`` at every angle, as ``(..., 2)``.

    Rotates the base polarization's Jones vector by ``R(theta)`` (paper
    Eq. 4) and renormalises it, as :class:`PolarizationState` does.  An
    angle of exactly 0 degrees keeps the unrotated vector, as
    :attr:`Antenna.effective_polarization` does.
    """
    base = antenna.polarization.jones
    theta = np.radians(angles_deg)
    cos, sin = np.cos(theta), np.sin(theta)
    x = cos * base.x - sin * base.y
    y = sin * base.x + cos * base.y
    amplitude = np.sqrt(np.abs(x) ** 2 + np.abs(y) ** 2)
    rotated = np.stack([x / amplitude, y / amplitude], axis=-1)
    unrotated = np.array([base.x, base.y], dtype=complex)
    return np.where(np.asarray(angles_deg == 0.0)[..., None], unrotated,
                    rotated)


def _redundant_axes(shape, *operands):
    """Axes of ``shape`` along which every operand repeats one value.

    The operands broadcast to ``shape`` (right-aligned); an axis is
    redundant when each of them is a stride-0 broadcast along it, has
    length 1 there or lacks it, while ``shape`` itself spans it.
    """
    redundant = [size > 1 for size in shape]
    for operand in operands:
        offset = len(shape) - operand.ndim
        for axis, (size, stride) in enumerate(zip(operand.shape,
                                                  operand.strides)):
            if size > 1 and stride != 0:
                redundant[offset + axis] = False
    return redundant


def _cut(operand, redundant, trailing=0):
    """``operand`` with its ``redundant`` axes sliced to length 1.

    ``trailing`` core axes (the 2 of a Jones vector) are kept whole.
    """
    leading = operand.ndim - trailing
    offset = len(redundant) - leading
    return operand[tuple(slice(0, 1) if redundant[offset + axis]
                         else slice(None) for axis in range(leading))]


class DeploymentMode(Enum):
    """How (and whether) the metasurface participates in the link."""

    NONE = "none"
    TRANSMISSIVE = "transmissive"
    REFLECTIVE = "reflective"


@dataclass(frozen=True)
class LinkConfiguration:
    """Static description of a point-to-point link under test.

    Attributes
    ----------
    tx_antenna, rx_antenna:
        Endpoint antennas (their ``orientation_deg`` encodes the
        polarization alignment; orthogonal orientations reproduce the
        paper's "mismatch" setup).
    geometry:
        Positions of the endpoints and the surface.
    frequency_hz:
        Carrier frequency.
    tx_power_dbm:
        Transmit power.
    bandwidth_hz:
        Channel bandwidth used for noise/capacity computations (the
        paper's USRP setup uses a 500 kHz tone observed at 1 MS/s).
    noise_figure_db:
        Receiver noise figure.
    environment:
        Multipath environment (defaults to the absorber-covered chamber).
    metasurface:
        The deployed surface, or ``None`` for baseline measurements.
    deployment:
        Whether the surface acts in transmissive or reflective mode.
    surface_obstruction_db:
        Penetration loss of the structural element (e.g. wall) hosting
        the surface, applied to the direct path in reflective layouts
        where the direct path does not cross the surface (0 by default).
    aim_at_surface:
        When True the endpoint antennas are physically aimed at the
        surface position rather than at each other — the paper's
        reflective experiments are set up this way.  The flag is kept
        when building the no-surface baseline so that "with" and
        "without" comparisons share identical antenna aiming.
    clutter_blocking_db:
        Attenuation the deployed surface applies to environmental
        clutter crossing its aperture in the transmissive layout (the
        0.48 m panel physically sits between the endpoints and shadows
        part of the multipath).  Applied only when a transmissive surface
        is present; it is one of the reasons the paper observes the
        surface *hurting* low-power omni links in rich multipath
        (Sec. 5.1.2).
    interference_floor_dbm:
        Effective noise-plus-interference floor of the receiver.  The
        2.4 GHz ISM band in an ordinary laboratory is interference
        limited rather than thermal-noise limited; the capacity
        experiments of Figs. 18-19 use this knob.  ``None`` keeps the
        thermal floor.
    """

    tx_antenna: Antenna
    rx_antenna: Antenna
    geometry: LinkGeometry
    frequency_hz: float = DEFAULT_CENTER_FREQUENCY_HZ
    tx_power_dbm: float = 0.0
    bandwidth_hz: float = 500e3
    noise_figure_db: float = 6.0
    environment: MultipathEnvironment = field(
        default_factory=MultipathEnvironment.anechoic)
    metasurface: Optional[Metasurface] = None
    deployment: DeploymentMode = DeploymentMode.NONE
    surface_obstruction_db: float = 0.0
    aim_at_surface: bool = False
    clutter_blocking_db: float = 6.0
    interference_floor_dbm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_figure_db < 0:
            raise ValueError("noise figure must be non-negative")
        if self.surface_obstruction_db < 0:
            raise ValueError("surface obstruction must be non-negative")
        if self.clutter_blocking_db < 0:
            raise ValueError("clutter blocking must be non-negative")
        if (self.deployment is not DeploymentMode.NONE and
                self.metasurface is None):
            raise ValueError(
                "a metasurface must be provided for transmissive/reflective "
                "deployments")

    def without_surface(self) -> "LinkConfiguration":
        """Return the matching baseline configuration (no metasurface)."""
        return replace(self, metasurface=None, deployment=DeploymentMode.NONE)

    def with_tx_power_dbm(self, tx_power_dbm: float) -> "LinkConfiguration":
        """Return a copy at a different transmit power."""
        return replace(self, tx_power_dbm=tx_power_dbm)

    def with_frequency_hz(self, frequency_hz: float) -> "LinkConfiguration":
        """Return a copy at a different carrier frequency."""
        return replace(self, frequency_hz=frequency_hz)


@dataclass(frozen=True)
class LinkReport:
    """Result of evaluating a link at one operating point."""

    received_power_dbm: float
    snr_db: float
    spectral_efficiency_bps_hz: float
    noise_power_dbm: float
    engineered_path_power_dbm: float
    clutter_power_dbm: float


class WirelessLink:
    """Evaluates :class:`LinkConfiguration` instances.

    The link object is stateless apart from its (frozen) configuration
    and the caches derived from it, so the controller can probe
    arbitrary bias voltages cheaply and reproducibly.  The direct and
    clutter fields are voltage-independent and computed exactly once
    per link; every probe after the first only pays for the surface
    response.
    """

    def __init__(self, configuration: LinkConfiguration):
        self._configuration = configuration
        self._direct_field_cache: Optional[JonesVector] = None
        self._clutter_field_cache: Optional[JonesVector] = None
        self._clutter_unit_cache: Optional[np.ndarray] = None

    @property
    def configuration(self) -> LinkConfiguration:
        """The (frozen) link configuration under evaluation.

        Read-only: the cached voltage-independent fields are derived
        from it, so swapping configurations means building a new link
        (they are cheap to construct).
        """
        return self._configuration

    # ------------------------------------------------------------------ #
    # Field-level building blocks
    # ------------------------------------------------------------------ #
    def _path_amplitude(self, distance_m, extra_gain_db=0.0,
                        frequency_hz=None, tx_power_dbm=None):
        """Field amplitude (relative to 1 mW into an isotropic antenna)
        after free-space propagation over ``distance_m``.

        All arguments may be scalars or mutually broadcastable arrays;
        frequency and transmit power default to the configuration.
        """
        config = self._configuration
        frequency = (config.frequency_hz if frequency_hz is None
                     else frequency_hz)
        tx_power = (config.tx_power_dbm if tx_power_dbm is None
                    else tx_power_dbm)
        path_db = (tx_power + extra_gain_db -
                   free_space_path_loss_db(distance_m, frequency))
        return 10.0 ** (path_db / 20.0)

    def _phase_for_distance(self, distance_m, frequency_hz=None):
        """Carrier phase accumulated over a propagation distance."""
        config = self._configuration
        frequency = (config.frequency_hz if frequency_hz is None
                     else frequency_hz)
        wavelength = SPEED_OF_LIGHT / frequency
        return 2.0 * math.pi * distance_m / wavelength

    def _direct_field(self) -> JonesVector:
        """Field of the direct Tx->Rx path (cached: voltage-independent)."""
        if self._direct_field_cache is None:
            self._direct_field_cache = self._compute_direct_field()
        return self._direct_field_cache

    def _compute_direct_field(self) -> JonesVector:
        """The cached scalar view of :meth:`_direct_fields`."""
        fields = self._direct_fields()
        return JonesVector(complex(fields[0]), complex(fields[1]))

    def _direct_fields(self, frequency_hz=None, tx_power_dbm=None,
                       distance_m=None, tx_gain_dbi=None,
                       rx_gain_dbi=None, tx_jones=None) -> np.ndarray:
        """Field of the direct Tx->Rx path (no surface interaction).

        The single implementation of the direct-path budget: arguments
        may be ``None`` (use the configuration) or mutually
        broadcastable arrays; the result is a complex ``(..., 2)``
        array of Jones fields.

        Antenna aiming convention: in direct/transmissive layouts the
        endpoints face each other, so the direct path is on boresight;
        with ``aim_at_surface`` (the paper's reflective experiments) the
        antennas point at the surface position, so the direct path
        suffers each antenna's pattern roll-off at the angle between its
        peer and the surface — both with and without the surface present.
        """
        config = self._configuration
        geometry = config.geometry
        if config.deployment is DeploymentMode.TRANSMISSIVE:
            # In the transmissive layout the only Tx->Rx route crosses
            # the surface; there is no separate unobstructed direct path.
            return np.zeros(2, dtype=complex)
        blocked_db = (config.surface_obstruction_db
                      if (config.deployment is DeploymentMode.NONE and
                          config.surface_obstruction_db) else 0.0)
        if tx_gain_dbi is None:
            if config.aim_at_surface:
                tx_gain_dbi = config.tx_antenna.gain_dbi_towards(
                    geometry.angle_at_transmitter_deg())
                rx_gain_dbi = config.rx_antenna.gain_dbi_towards(
                    geometry.angle_at_receiver_deg())
            else:
                tx_gain_dbi = config.tx_antenna.gain_dbi
                rx_gain_dbi = config.rx_antenna.gain_dbi
        distance = (geometry.direct_distance_m if distance_m is None
                    else distance_m)
        amplitude = self._path_amplitude(
            distance, extra_gain_db=tx_gain_dbi + rx_gain_dbi - blocked_db,
            frequency_hz=frequency_hz, tx_power_dbm=tx_power_dbm)
        phase = self._phase_for_distance(distance, frequency_hz=frequency_hz)
        phasor = np.asarray(amplitude) * np.exp(1j * np.asarray(phase))
        if tx_jones is None:
            tx_jones = np.array([config.tx_antenna.jones.x,
                                 config.tx_antenna.jones.y], dtype=complex)
        return phasor[..., None] * tx_jones

    def _surface_field(self, vx: float, vy: float) -> JonesVector:
        """Scalar view of :meth:`_surface_fields_batch` at one bias pair."""
        fields = self._surface_fields_batch(vx, vy)
        return JonesVector(complex(fields[..., 0]), complex(fields[..., 1]))

    def _surface_fields_batch(self, vx, vy, frequency_hz=None,
                              tx_power_dbm=None,
                              via_distance_m=None,
                              tx_jones=None) -> np.ndarray:
        """Field of the path that interacts with the metasurface.

        The single implementation of the via-surface budget: ``vx`` /
        ``vy`` and the optional frequency, transmit-power,
        via-surface-distance and transmit-polarization overrides
        broadcast against each other; returns a complex ``(..., 2)``
        array of via-surface Jones fields, one per broadcast operating
        point.  ``tx_jones`` is an optional ``(..., 2)`` array of
        transmit Jones vectors (defaults to the configured antenna).

        The surface's Jones matrix depends only on (frequency, Vx, Vy),
        so the cascade runs on the distinct operating points only:
        every axis along which ``vx``, ``vy`` and the frequency are all
        stride-0 broadcasts (the controller's per-station copies of one
        bias plane) is cut to length 1 (see :func:`_redundant_axes`),
        as is ``tx_jones`` wherever it repeats too, so the contraction
        also runs on the core.  The per-point path phasor, computed on
        the frequency as given, broadcasts the result back.  Every cell
        sees the same element-wise arithmetic, so the fields are
        bit-identical to evaluating each cell; inputs without a zero
        stride skip the analysis.
        """
        config = self._configuration
        shape = np.broadcast_shapes(
            np.shape(vx), np.shape(vy),
            np.shape(frequency_hz) if frequency_hz is not None else (),
            np.shape(tx_power_dbm) if tx_power_dbm is not None else (),
            np.shape(via_distance_m) if via_distance_m is not None else (),
            np.shape(tx_jones)[:-1] if tx_jones is not None else ())
        if config.metasurface is None or config.deployment is DeploymentMode.NONE:
            return np.zeros(shape + (2,), dtype=complex)
        geometry = config.geometry
        surface = config.metasurface
        frequency = (config.frequency_hz if frequency_hz is None
                     else frequency_hz)
        core = (np.asarray(vx), np.asarray(vy), np.asarray(frequency))
        if any(0 in operand.strides for operand in core):
            if tx_jones is not None:
                tx_jones = np.asarray(tx_jones)
                tx_jones = _cut(tx_jones, _redundant_axes(
                    shape, *core, tx_jones[..., 0]), trailing=1)
            redundant = _redundant_axes(shape, *core)
            core = tuple(_cut(operand, redundant) for operand in core)
        core_vx, core_vy, core_frequency = core
        if config.deployment is DeploymentMode.TRANSMISSIVE:
            jones = surface.jones_matrix_batch(core_frequency, core_vx,
                                               core_vy)
        else:
            jones = surface.reflection_jones_matrix_batch(
                core_frequency, core_vx, core_vy)
        legs = (geometry.tx_to_surface_m + geometry.surface_to_rx_m
                if via_distance_m is None else via_distance_m)
        # Antenna aiming convention (see _direct_fields): the surface
        # sits on boresight both in the transmissive layout (colinear)
        # and in the reflective layout (the endpoints are aimed at the
        # surface), so the via-surface path gets the full antenna gains.
        tx_gain = config.tx_antenna.gain_dbi
        rx_gain = config.rx_antenna.gain_dbi
        amplitude = self._path_amplitude(legs, extra_gain_db=tx_gain + rx_gain,
                                         frequency_hz=frequency_hz,
                                         tx_power_dbm=tx_power_dbm)
        phase = self._phase_for_distance(legs, frequency_hz=frequency_hz)
        if tx_jones is None:
            incident = np.array([config.tx_antenna.jones.x,
                                 config.tx_antenna.jones.y], dtype=complex)
            transformed = jones @ incident
        else:
            # Per-point transmit polarizations: contract the (..., 2, 2)
            # Jones matrices against the (..., 2) incident vectors with
            # full leading-dimension broadcasting.
            transformed = np.einsum("...ij,...j->...i", jones,
                                    np.asarray(tx_jones, dtype=complex))
        phasor = np.asarray(amplitude) * np.exp(1j * np.asarray(phase))
        return np.broadcast_to(phasor[..., None] * transformed, shape + (2,))

    def _clutter_unit(self) -> np.ndarray:
        """Pattern-weighted unit clutter field (cached complex ``(2,)``).

        The coherent reduction over the environment's stacked ray
        arrays, with each ray weighted by the receive antenna pattern at
        its arrival angle; the total clutter field is this unit vector
        times the (axis-dependent) direct-path reference amplitude.
        """
        if self._clutter_unit_cache is None:
            config = self._configuration
            arrays = config.environment.ray_arrays()
            if arrays.count == 0:
                self._clutter_unit_cache = np.zeros(2, dtype=complex)
            else:
                self._clutter_unit_cache = arrays.unit_field(
                    extra_gain_db=config.rx_antenna.pattern_gain_db(
                        arrays.arrival_angle_deg))
        return self._clutter_unit_cache

    def _clutter_blocking_db(self) -> float:
        """Clutter shadowing applied by a deployed transmissive surface."""
        config = self._configuration
        return (config.clutter_blocking_db
                if config.deployment is DeploymentMode.TRANSMISSIVE
                else 0.0)

    def _clutter_reference_amplitude(self, frequency_hz=None,
                                     tx_power_dbm=None,
                                     direct_distance_m=None):
        """Direct-path reference amplitude the clutter rays scale from."""
        config = self._configuration
        distance = (config.geometry.direct_distance_m
                    if direct_distance_m is None else direct_distance_m)
        return self._path_amplitude(
            distance,
            extra_gain_db=(config.tx_antenna.gain_dbi +
                           config.rx_antenna.gain_dbi -
                           self._clutter_blocking_db()),
            frequency_hz=frequency_hz, tx_power_dbm=tx_power_dbm)

    def _clutter_field(self) -> JonesVector:
        """Total clutter field weighted by the receive antenna pattern
        (cached: voltage-independent).

        When a transmissive surface is deployed it physically shadows
        part of the room, so the clutter is additionally attenuated by
        ``clutter_blocking_db``.
        """
        if self._clutter_field_cache is None:
            reference = self._clutter_reference_amplitude()
            unit = self._clutter_unit()
            self._clutter_field_cache = JonesVector(
                complex(reference * unit[0]), complex(reference * unit[1]))
        return self._clutter_field_cache

    # ------------------------------------------------------------------ #
    # Shared power projection
    # ------------------------------------------------------------------ #
    def _project_power_dbm(self, fields: np.ndarray,
                           rx_jones: Optional[np.ndarray] = None) -> np.ndarray:
        """Project total fields onto the receive polarization (dBm).

        ``fields`` is a complex ``(..., 2)`` array; ``rx_jones`` an
        optional ``(..., 2)`` array of receive Jones vectors (defaults
        to the configured antenna), broadcast against the fields.
        Applies the same finite cross-polar-isolation floor as the
        scalar :meth:`Antenna.polarization_coupling` path.
        """
        config = self._configuration
        ex, ey = fields[..., 0], fields[..., 1]
        if rx_jones is None:
            jones_x = config.rx_antenna.jones.x
            jones_y = config.rx_antenna.jones.y
        else:
            jones_x, jones_y = rx_jones[..., 0], rx_jones[..., 1]
        intensity = np.abs(ex) ** 2 + np.abs(ey) ** 2
        projected = np.conj(jones_x) * ex + np.conj(jones_y) * ey
        with np.errstate(divide="ignore", invalid="ignore"):
            matched_fraction = np.where(intensity > 0.0,
                                        np.abs(projected) ** 2 / intensity,
                                        0.0)
        floor = 10.0 ** (-config.rx_antenna.cross_pol_isolation_db / 10.0)
        coupling = np.where(intensity > 0.0,
                            np.minimum(1.0, np.maximum(matched_fraction, floor)),
                            0.0)
        power_linear_mw = intensity * coupling
        return 10.0 * np.log10(np.maximum(power_linear_mw, 1e-20))

    # ------------------------------------------------------------------ #
    # The N-D evaluation engine
    # ------------------------------------------------------------------ #
    def _geometry_at_distance(self, distance_m: float) -> LinkGeometry:
        """Geometry of this link's layout at a swept distance.

        Transmissive and no-surface layouts vary the Tx-Rx distance with
        the surface staying at the same fractional position between the
        endpoints; aimed-at-surface (reflective) layouts keep the
        endpoints fixed and vary the surface's perpendicular offset —
        exactly the two distance axes of the paper's Figs. 16 and 22.
        """
        if self._varies_surface_offset():
            return LinkGeometry.reflective(
                self._configuration.geometry.direct_distance_m, distance_m)
        return LinkGeometry.transmissive(
            distance_m, surface_fraction=self._surface_fraction())

    def _varies_surface_offset(self) -> bool:
        """Whether the distance axis moves the surface, not the endpoints."""
        config = self._configuration
        return (config.deployment is DeploymentMode.REFLECTIVE or
                config.aim_at_surface)

    def _surface_fraction(self) -> float:
        """Fractional Tx-to-surface position the distance axis preserves."""
        geometry = self._configuration.geometry
        fraction = geometry.tx_to_surface_m / geometry.direct_distance_m
        if not (0.0 < fraction < 1.0):
            # Degenerate/non-canonical layout: keep the surface midway,
            # which is where every canonical transmissive setup puts it.
            fraction = 0.5
        return fraction

    def _axis_parameters(self, axis: str, values: np.ndarray) -> Dict:
        """Per-point parameter arrays for one grid/sweep axis.

        Returns overrides (each shaped like ``values``; Jones vectors
        add a trailing axis of 2) consumed by the
        :meth:`_budget_power_dbm` engine; parameters not overridden stay
        at their configured scalar values.  Every branch is closed-form
        array math with no per-point Python objects: the distance axis
        evaluates the canonical layouts of :meth:`_geometry_at_distance`
        directly (see :meth:`_distance_parameters`), and the orientation
        axes rotate the antenna's base Jones vector (see
        :func:`_rotated_jones`).  ``_geometry_at_distance`` plus
        :meth:`Antenna.rotated` stay the scalar rule the parity and
        oracle suites check these arrays against.
        """
        config = self._configuration
        if axis == "frequency":
            if np.any(values <= 0):
                raise ValueError("frequencies must be positive")
            return {"frequency_hz": values}
        if axis == "tx_power":
            return {"tx_power_dbm": values}
        if axis == "distance":
            return self._distance_parameters(values)
        if axis == "rx_orientation":
            return {"rx_jones": _rotated_jones(config.rx_antenna, values)}
        if axis == "tx_orientation":
            return {"tx_jones": _rotated_jones(config.tx_antenna, values)}
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of "
                         f"{SWEEP_AXES}")

    def _distance_parameters(self, distances: np.ndarray) -> Dict:
        """Distance-axis overrides of :meth:`_axis_parameters`.

        Reflective (or aimed-at-surface) layouts keep the endpoints
        ``D`` apart and put the surface ``d`` off their bisector, so
        each leg is ``sqrt((D/2)^2 + d^2)`` and both antennas see the
        direct path ``arccos((D/2)/leg)`` off the surface boresight.
        Transmissive and no-surface layouts set the Tx-Rx distance to
        ``d`` with the surface at a fixed fraction ``f`` of it.  Raises
        the same errors as :class:`LinkGeometry`'s canonical layouts.
        """
        config = self._configuration
        if self._varies_surface_offset():
            separation = config.geometry.direct_distance_m
            if distances.size:
                if separation <= 0:
                    raise ValueError("Tx-Rx separation must be positive")
                if np.any(distances <= 0):
                    raise ValueError("surface offset must be positive")
            half = separation / 2.0
            leg = np.sqrt(half ** 2 + distances ** 2)
            overrides = {
                "direct_distance_m": np.full(distances.shape, separation),
                "via_distance_m": 2.0 * leg,
            }
            if config.aim_at_surface:
                angle = np.degrees(np.arccos(half / leg))
                overrides["direct_tx_gain_dbi"] = (
                    config.tx_antenna.gain_dbi_towards(angle))
                overrides["direct_rx_gain_dbi"] = (
                    config.rx_antenna.gain_dbi_towards(angle))
            return overrides
        if np.any(distances <= 0):
            raise ValueError("Tx-Rx distance must be positive")
        to_surface = distances * self._surface_fraction()
        return {"direct_distance_m": distances,
                "via_distance_m": to_surface + (distances - to_surface)}

    def _budget_power_dbm(self, vx, vy, params: Dict) -> np.ndarray:
        """The one link-budget engine every public entry point views.

        ``vx`` / ``vy`` are bias-voltage scalars or arrays; ``params``
        carries the per-axis override arrays built by
        :meth:`_axis_parameters`.  Everything broadcasts against
        everything, so a single pass covers scalar probes, bias grids,
        single-axis sweeps and full N-D product grids alike.  The
        voltage-independent direct and clutter fields are reused from
        the link's caches whenever no axis overrides a parameter they
        depend on.
        """
        global _BUDGET_EVALUATIONS
        _BUDGET_EVALUATIONS += 1
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        frequency = params.get("frequency_hz")
        tx_power = params.get("tx_power_dbm")
        direct_distance = params.get("direct_distance_m")
        via_distance = params.get("via_distance_m")
        rx_jones = params.get("rx_jones")
        tx_jones = params.get("tx_jones")

        shapes = [vx.shape, vy.shape]
        for key, value in params.items():
            shapes.append(np.shape(value)[:-1] if key in ("rx_jones",
                                                          "tx_jones")
                          else np.shape(value))
        shape = np.broadcast_shapes(*shapes)

        # Direct and clutter fields are voltage-independent: reuse the
        # cached scalars unless an axis overrides a parameter they
        # depend on (any axis that does only pays for the dimensions it
        # actually spans — the overrides keep their own slot shapes).
        # The clutter field is additionally transmit-polarization
        # independent (the rays' polarizations come from the scattering
        # environment), so a tx_jones override alone keeps it cached.
        path_overridden = (frequency is not None or tx_power is not None or
                           direct_distance is not None)
        if (not path_overridden and tx_jones is None and
                "direct_tx_gain_dbi" not in params):
            direct_field = self._direct_field()
            direct = np.array([direct_field.x, direct_field.y], dtype=complex)
        else:
            direct = self._direct_fields(
                frequency_hz=frequency, tx_power_dbm=tx_power,
                distance_m=direct_distance,
                tx_gain_dbi=params.get("direct_tx_gain_dbi"),
                rx_gain_dbi=params.get("direct_rx_gain_dbi"),
                tx_jones=tx_jones)
        if not path_overridden:
            clutter_field = self._clutter_field()
            clutter = np.array([clutter_field.x, clutter_field.y],
                               dtype=complex)
        else:
            reference = self._clutter_reference_amplitude(
                frequency_hz=frequency, tx_power_dbm=tx_power,
                direct_distance_m=direct_distance)
            clutter = np.asarray(reference)[..., None] * self._clutter_unit()

        surface = self._surface_fields_batch(
            vx, vy, frequency_hz=frequency, tx_power_dbm=tx_power,
            via_distance_m=via_distance, tx_jones=tx_jones)

        # Keep the historical (direct + surface) + clutter summation
        # order so every view agrees to floating-point round-off.
        fields = np.broadcast_to((direct + surface) + clutter, shape + (2,))
        return self._project_power_dbm(fields, rx_jones=rx_jones)

    def evaluate_grid(self, grid: ProbeGrid) -> np.ndarray:
        """Received power (dBm) at every operating point of a grid.

        ``grid`` is a :class:`~repro.channel.grid.ProbeGrid` over the
        ``vx`` / ``vy`` bias axes and any subset of
        :data:`~repro.channel.grid.SWEEP_AXES`; axes absent from the
        grid stay at the configured scalar values (voltages default to
        0 V).  The full product grid — e.g. frequency x distance x
        bias heatmaps — evaluates in one vectorized pass of the budget,
        and the returned array has ``grid.shape``.
        """
        vx = vy = 0.0
        params: Dict = {}
        for axis in grid.axes:
            if axis.name == "vx":
                vx = axis.shaped
            elif axis.name == "vy":
                vy = axis.shaped
            else:
                params.update(self._axis_parameters(axis.name, axis.shaped))
        return np.asarray(self._budget_power_dbm(vx, vy, params))

    # ------------------------------------------------------------------ #
    # Public evaluation API (views over the engine)
    # ------------------------------------------------------------------ #
    def received_field(self, vx: float = 0.0, vy: float = 0.0) -> JonesVector:
        """Total complex field at the receive aperture."""
        return (self._direct_field() + self._surface_field(vx, vy) +
                self._clutter_field())

    def received_power_dbm(self, vx: float = 0.0, vy: float = 0.0) -> float:
        """Received power (dBm) after polarization projection.

        Scalar view of the grid engine (one 0-d operating point).
        """
        return float(self._budget_power_dbm(vx, vy, {}))

    def noise_power_dbm(self) -> float:
        """Receiver noise-plus-interference floor for the configured bandwidth."""
        config = self._configuration
        thermal = thermal_noise_dbm(config.bandwidth_hz,
                                    noise_figure_db=config.noise_figure_db)
        if config.interference_floor_dbm is None:
            return thermal
        return max(thermal, config.interference_floor_dbm)

    def evaluate(self, vx=0.0, vy: float = 0.0):
        """Evaluate a probe grid, or report one operating point.

        Called with a :class:`~repro.channel.grid.ProbeGrid` as the
        first argument, returns the received-power array of
        :meth:`evaluate_grid` (shape ``grid.shape``).  Called with
        scalar bias voltages, returns the full :class:`LinkReport` at
        that single (Vx, Vy) operating point.
        """
        if isinstance(vx, ProbeGrid):
            return self.evaluate_grid(vx)
        config = self._configuration
        engineered = self._direct_field() + self._surface_field(vx, vy)
        clutter = self._clutter_field()
        rx_power = self.received_power_dbm(vx, vy)
        noise = self.noise_power_dbm()
        snr = rx_power - noise
        efficiency = shannon_spectral_efficiency(10.0 ** (snr / 10.0))
        engineered_power = 10.0 * math.log10(max(
            engineered.intensity *
            config.rx_antenna.polarization_coupling(engineered), 1e-20))
        clutter_power = 10.0 * math.log10(max(
            clutter.intensity *
            config.rx_antenna.polarization_coupling(clutter), 1e-20))
        return LinkReport(
            received_power_dbm=rx_power,
            snr_db=snr,
            spectral_efficiency_bps_hz=float(efficiency),
            noise_power_dbm=noise,
            engineered_path_power_dbm=engineered_power,
            clutter_power_dbm=clutter_power,
        )

    def baseline(self) -> "WirelessLink":
        """The matching link with the metasurface removed."""
        return WirelessLink(self._configuration.without_surface())

    def power_gain_over_baseline_db(self, vx: float, vy: float) -> float:
        """Received-power improvement over the no-surface baseline (dB)."""
        return (self.received_power_dbm(vx, vy) -
                self.baseline().received_power_dbm())


__all__ = ["DeploymentMode", "LinkConfiguration", "LinkReport", "ProbeGrid",
           "SWEEP_AXES", "WirelessLink", "probe_evaluations"]
