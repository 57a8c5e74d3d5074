"""Per-figure experiment runners (paper evaluation, Sec. 5 plus design figs).

Every table and figure of the paper's evaluation is one **registered
experiment**: a frozen :class:`~repro.experiments.registry.ExperimentSpec`
with a typed parameter schema, tags, coverage metadata, a ``summarize``
renderer (the rows/series the paper reports) and a ``check`` asserting
the result's shape.  The registry (``python -m repro.experiments list``)
enumerates them; :class:`~repro.experiments.runner.Runner` executes them
with overrides and caching.

Run one with ``run_experiment(name, **overrides).payload`` (or
``python -m repro.experiments run <name>``).

Index (registry name — paper figure or table):

* ``fig02``           — Fig. 2a/2b, polarization-mismatch RSSI PDFs
* ``fig08_10``        — Figs. 8-10, S21 efficiency of three designs
* ``fig11``           — Fig. 11, efficiency vs bias-voltage combination
* ``table1``          — Table 1, simulated rotation vs (Vx, Vy)
* ``fig12``           — Fig. 12, rotation-angle estimation
* ``fig15``           — Fig. 15a-h, transmissive (Vx, Vy) heatmaps
* ``fig16``           — Fig. 16, transmissive gain vs distance
* ``fig17``           — Fig. 17, gain across 2.40-2.50 GHz
* ``fig18_19``        — Figs. 18-19, capacity vs transmit power
* ``fig20``           — Fig. 20, ESP8266 Wi-Fi RSSI PDFs
* ``iot_families``    — Fig. 20 across Wi-Fi, BLE and Zigbee
* ``fig21``           — Fig. 21, reflective (Vx, Vy) heatmaps
* ``fig22``           — Fig. 22, reflective power and capacity
* ``fig23``           — Fig. 23, respiration sensing
* ``gain_surface``    — joint frequency x distance gain surface
* ``coverage_map``    — joint tx-power x distance coverage map
* ``sec7_scheduling`` — Sec. 7 TDMA scheduling strategies
* ``sec7_access``     — Sec. 7 polarization access isolation
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.backend import ReceiverSweepBackend
from repro.channel.capacity import spectral_efficiency_from_powers
from repro.channel.link import WirelessLink
from repro.constants import DEFAULT_CENTER_FREQUENCY_HZ
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.core.llama import LlamaSystem
from repro.devices.wifi import wifi_rate_for_rssi_mbps
from repro.experiments.registry import Param, experiment
from repro.experiments.reporting import (
    format_comparison,
    format_heatmap,
    format_table,
)
from repro.experiments.scenarios import (
    IOT_SCENARIOS,
    ReflectiveScenario,
    TransmissiveScenario,
    iot_wifi_scenario,
)
from repro.channel.grid import ProbeGrid
from repro.experiments.sweeps import (
    grid_sweep,
    multi_axis_sweep,
    optimize_link,
    voltage_grid_sweep,
)
from repro.metasurface.design import (
    MetasurfaceDesign,
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
)
from repro.radio.measurement import distribution_overlap_fraction
from repro.radio.transceiver import SimulatedReceiver
from repro.sensing.detector import RespirationDetector, RespirationReading
from repro.sensing.respiration import BreathingSubject, RespirationSensingLink
from repro.units import db_to_amplitude, dbm_to_milliwatts, milliwatts_to_dbm

#: Voltage grid used for the published Table 1.
TABLE1_VOLTAGES_V = (2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0)

#: Tx-Rx distances (cm) used in the transmissive experiments (Fig. 15/16).
TRANSMISSIVE_DISTANCES_CM = (24, 30, 36, 42, 48, 54, 60)

#: Tx-to-surface distances (cm) used in the reflective experiments
#: (Fig. 21/22).
REFLECTIVE_DISTANCES_CM = (24, 30, 36, 42, 48, 54, 60, 66)


# ---------------------------------------------------------------------- #
# Fig. 2 — polarization-mismatch impact on commodity IoT links
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MismatchImpactResult:
    """RSSI distributions for matched vs mismatched commodity links."""

    technology: str
    matched_rssi_dbm: Tuple[float, ...]
    mismatched_rssi_dbm: Tuple[float, ...]

    @property
    def matched_mean_dbm(self) -> float:
        """Mean matched RSSI."""
        return float(np.mean(self.matched_rssi_dbm))

    @property
    def mismatched_mean_dbm(self) -> float:
        """Mean mismatched RSSI."""
        return float(np.mean(self.mismatched_rssi_dbm))

    @property
    def mismatch_penalty_db(self) -> float:
        """Mean power lost to polarization mismatch."""
        return self.matched_mean_dbm - self.mismatched_mean_dbm


def _rssi_samples(configuration, sample_count: int, seed: int) -> Tuple[float, ...]:
    """Collect noisy RSSI readings from a link configuration."""
    link = WirelessLink(configuration)
    receiver = SimulatedReceiver(link, seed=seed)
    return tuple(receiver.measure_power_dbm(duration_s=0.002)
                 for _ in range(sample_count))


def _summary_fig02(payload, params) -> str:
    rows = [[payload[key].technology,
             payload[key].matched_mean_dbm,
             payload[key].mismatched_mean_dbm,
             payload[key].mismatch_penalty_db]
            for key in ("wifi", "ble") if key in payload]
    return format_table(
        ["link", "matched mean (dBm)", "mismatched mean (dBm)",
         "penalty (dB)"],
        rows, precision=1,
        title="Fig. 2 - polarization mismatch impact "
              "(paper: ~10 dB penalty on both links)")


def _check_fig02(payload, params) -> None:
    for key in ("wifi", "ble"):
        assert 6.0 <= payload[key].mismatch_penalty_db <= 16.0, key
        assert len(payload[key].matched_rssi_dbm) == params["sample_count"]


@experiment(
    "fig02",
    title="Fig. 2 — polarization-mismatch impact on commodity IoT links",
    tags=("figure", "network"),
    params=(Param("sample_count", "int", 200,
                  "noisy RSSI samples per configuration"),
            Param("seed", "int", 2021, "receiver noise seed")),
    scenarios=("iot_wifi", "iot_ble"),
    modules=("channel", "devices", "radio"),
    smoke={"sample_count": 60},
    summarize=_summary_fig02, check=_check_fig02)
def _run_fig02(sample_count: int, seed: int) -> Dict[str, MismatchImpactResult]:
    results: Dict[str, MismatchImpactResult] = {}
    wifi_matched, _, _ = IOT_SCENARIOS["iot_wifi"](mismatched=False, seed=seed)
    wifi_mismatched, _, _ = IOT_SCENARIOS["iot_wifi"](mismatched=True, seed=seed)
    results["wifi"] = MismatchImpactResult(
        technology="802.11g (ESP8266 -> AP)",
        matched_rssi_dbm=_rssi_samples(wifi_matched, sample_count, seed),
        mismatched_rssi_dbm=_rssi_samples(wifi_mismatched, sample_count,
                                          seed + 1),
    )
    ble_matched, _, _ = IOT_SCENARIOS["iot_ble"](mismatched=False, seed=seed)
    ble_mismatched, _, _ = IOT_SCENARIOS["iot_ble"](mismatched=True, seed=seed)
    results["ble"] = MismatchImpactResult(
        technology="BLE (wearable -> Raspberry Pi)",
        matched_rssi_dbm=_rssi_samples(ble_matched, sample_count, seed + 2),
        mismatched_rssi_dbm=_rssi_samples(ble_mismatched, sample_count,
                                          seed + 3),
    )
    return results


# ---------------------------------------------------------------------- #
# Figs. 8-10 — S21 efficiency for the three material designs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EfficiencyCurve:
    """S21 efficiency vs frequency for one design and excitation."""

    design_name: str
    frequencies_hz: Tuple[float, ...]
    efficiency_x_db: Tuple[float, ...]
    efficiency_y_db: Tuple[float, ...]

    def in_band_minimum_db(self, low_hz: float = 2.4e9,
                           high_hz: float = 2.5e9) -> float:
        """Worst efficiency across the ISM band (both excitations)."""
        values = [
            min(x, y) for f, x, y in zip(self.frequencies_hz,
                                         self.efficiency_x_db,
                                         self.efficiency_y_db)
            if low_hz <= f <= high_hz
        ]
        if not values:
            raise ValueError("no sweep points inside the requested band")
        return min(values)

    def bandwidth_above_hz(self, threshold_db: float = -5.0) -> float:
        """Contiguous bandwidth around the centre where both curves stay
        above ``threshold_db``."""
        frequencies = np.asarray(self.frequencies_hz)
        both = np.minimum(np.asarray(self.efficiency_x_db),
                          np.asarray(self.efficiency_y_db))
        center_index = int(np.argmax(both))
        low_index, high_index = center_index, center_index
        while low_index > 0 and both[low_index - 1] >= threshold_db:
            low_index -= 1
        while (high_index < both.size - 1 and
               both[high_index + 1] >= threshold_db):
            high_index += 1
        return float(frequencies[high_index] - frequencies[low_index])


def _efficiency_curve(design: MetasurfaceDesign,
                      frequencies_hz: Sequence[float],
                      vx: float = 8.0, vy: float = 8.0) -> EfficiencyCurve:
    # Figs. 8-10 are HFSS simulations of the idealised structure.
    surface = design.build(prototype=False)
    eff_x = tuple(surface.transmission_efficiency_db(f, vx, vy, "x")
                  for f in frequencies_hz)
    eff_y = tuple(surface.transmission_efficiency_db(f, vx, vy, "y")
                  for f in frequencies_hz)
    return EfficiencyCurve(design_name=design.name,
                           frequencies_hz=tuple(frequencies_hz),
                           efficiency_x_db=eff_x, efficiency_y_db=eff_y)


def _efficiency_table(curve: EfficiencyCurve, title: str,
                      grid_hz: float = 1e8,
                      tolerance_hz: float = 1e6) -> str:
    """One Figs. 8-10 efficiency curve, one row per 100 MHz."""
    rows = [
        (f / 1e9, x, y)
        for f, x, y in zip(curve.frequencies_hz, curve.efficiency_x_db,
                           curve.efficiency_y_db)
        if abs(f - round(f / grid_hz) * grid_hz) < tolerance_hz
    ]
    return format_table(
        ["frequency (GHz)", "x-excitation (dB)", "y-excitation (dB)"],
        rows, precision=2, title=title)


def _summary_fig08_10(payload, params) -> str:
    blocks = [
        _efficiency_table(payload["fig8_rogers"],
                          "Fig. 8 - Rogers 5880 reference "
                          "(paper: above about -3 dB in band)"),
        _efficiency_table(payload["fig9_fr4_naive"],
                          "Fig. 9 - naive FR4 port "
                          "(paper: ~10 dB worse than Rogers)"),
        _efficiency_table(payload["fig10_fr4_optimized"],
                          "Fig. 10 - optimized FR4 (LLAMA) "
                          "(paper: comparable to Rogers, >150 MHz "
                          "above -5 dB)"),
        format_table(
            ["design", "worst in-band (dB)", "-5 dB bandwidth (MHz)"],
            [[curve.design_name, curve.in_band_minimum_db(),
              curve.bandwidth_above_hz(-5.0) / 1e6]
             for curve in payload.values()],
            precision=2, title="Figs. 8-10 summary"),
    ]
    return "\n\n".join(blocks)


def _check_fig08_10(payload, params) -> None:
    rogers = payload["fig8_rogers"]
    naive = payload["fig9_fr4_naive"]
    optimized = payload["fig10_fr4_optimized"]
    # The low-loss substrate keeps the in-band efficiency high; the
    # naive FR4 port collapses; the optimized stack recovers it.
    assert rogers.in_band_minimum_db() > -4.0
    assert min(rogers.efficiency_x_db) < rogers.in_band_minimum_db() - 8.0
    assert naive.in_band_minimum_db() < -9.0
    assert rogers.in_band_minimum_db() - naive.in_band_minimum_db() > 7.0
    assert optimized.in_band_minimum_db() > -5.5
    assert rogers.in_band_minimum_db() >= optimized.in_band_minimum_db()
    assert optimized.in_band_minimum_db() - naive.in_band_minimum_db() > 5.0
    assert optimized.bandwidth_above_hz(-5.0) >= 100e6


@experiment(
    "fig08_10",
    title="Figs. 8-10 — S21 efficiency of the three material designs",
    tags=("figure", "design"),
    params=(Param("frequency_count", "int", 81,
                  "sweep points across 2.0-2.8 GHz"),),
    modules=("metasurface",),
    smoke={"frequency_count": 41},
    summarize=_summary_fig08_10, check=_check_fig08_10)
def _run_fig08_10(frequency_count: int) -> Dict[str, EfficiencyCurve]:
    frequencies = np.linspace(2.0e9, 2.8e9, frequency_count)
    return {
        "fig8_rogers": _efficiency_curve(rogers_reference_design(), frequencies),
        "fig9_fr4_naive": _efficiency_curve(fr4_naive_design(), frequencies),
        "fig10_fr4_optimized": _efficiency_curve(llama_design(), frequencies),
    }


# ---------------------------------------------------------------------- #
# Fig. 11 — efficiency vs frequency under different bias voltages
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class VoltageEfficiencyResult:
    """Efficiency-vs-frequency curves for a set of Vy values (Vx fixed)."""

    vx: float
    frequencies_hz: Tuple[float, ...]
    curves_db: Dict[float, Tuple[float, ...]]

    def worst_in_band_db(self, low_hz: float = 2.4e9,
                         high_hz: float = 2.5e9) -> float:
        """Worst in-band efficiency over all bias settings."""
        worst = 0.0
        for curve in self.curves_db.values():
            for f, value in zip(self.frequencies_hz, curve):
                if low_hz <= f <= high_hz:
                    worst = min(worst, value)
        return worst


def _summary_fig11(payload, params) -> str:
    frequencies = np.asarray(payload.frequencies_hz)
    in_band = (frequencies >= 2.4e9) & (frequencies <= 2.5e9)
    rows = []
    for vy, curve in sorted(payload.curves_db.items()):
        values = np.asarray(curve)
        rows.append([vy, float(values[in_band].max()),
                     float(values[in_band].min())])
    table = format_table(
        ["Vy (V)", "best in-band (dB)", "worst in-band (dB)"],
        rows, precision=2,
        title="Fig. 11 - efficiency under bias-voltage combinations "
              "(paper: always above -8 dB in 2.4-2.5 GHz)")
    return (f"{table}\n\nworst efficiency over all bias settings: "
            f"{payload.worst_in_band_db():.2f} dB")


def _check_fig11(payload, params) -> None:
    assert payload.worst_in_band_db() > -8.0
    curves = sorted(payload.curves_db)
    if len(curves) >= 2:
        first = payload.curves_db[curves[0]]
        last = payload.curves_db[curves[-1]]
        assert not np.allclose(first, last)


@experiment(
    "fig11",
    title="Fig. 11 — efficiency vs frequency under bias voltages",
    tags=("figure", "design"),
    params=(Param("vx", "float", 8.0, "fixed X-axis bias (V)"),
            Param("vy_v", "float_seq", (2, 3, 4, 5, 6, 10, 15),
                  "Y-axis bias settings (V)"),
            Param("frequency_count", "int", 41,
                  "sweep points across 2.0-2.8 GHz")),
    modules=("metasurface",),
    smoke={"frequency_count": 21},
    summarize=_summary_fig11, check=_check_fig11)
def _run_fig11(vx: float, vy_v: Tuple[float, ...],
               frequency_count: int) -> VoltageEfficiencyResult:
    # Like Figs. 8-10 this is a simulation of the idealised structure.
    surface = llama_design().build(prototype=False)
    frequencies = tuple(np.linspace(2.0e9, 2.8e9, frequency_count))
    curves: Dict[float, Tuple[float, ...]] = {}
    for vy in vy_v:
        curves[float(vy)] = tuple(
            surface.transmission_efficiency_db(f, vx, float(vy), "x")
            for f in frequencies)
    return VoltageEfficiencyResult(vx=vx, frequencies_hz=frequencies,
                                   curves_db=curves)


# ---------------------------------------------------------------------- #
# Table 1 — simulated rotation degrees
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RotationTableResult:
    """Rotation magnitude for every (Vx, Vy) pair of the published table."""

    voltages_v: Tuple[float, ...]
    rotation_deg: Dict[Tuple[float, float], float]

    @property
    def maximum_deg(self) -> float:
        """Largest rotation in the table."""
        return max(self.rotation_deg.values())

    @property
    def minimum_deg(self) -> float:
        """Smallest rotation in the table."""
        return min(self.rotation_deg.values())

    def row(self, vy: float) -> List[float]:
        """One table row (fixed Vy, sweeping Vx) as the paper prints it."""
        return [self.rotation_deg[(vx, vy)] for vx in self.voltages_v]


def _summary_table1(payload, params) -> str:
    voltages = payload.voltages_v
    rows = []
    for vy in voltages:
        rows.append([vy] + [payload.rotation_deg[(vx, vy)]
                            for vx in voltages])
    table = format_table(
        ["Vy \\ Vx (V)"] + [f"{vx:g}" for vx in voltages],
        rows, precision=1,
        title="Table 1 - simulated rotation degrees "
              "(paper range: 1.9 - 48.7 deg)")
    return (f"{table}\n\nreproduced range: {payload.minimum_deg:.1f} - "
            f"{payload.maximum_deg:.1f} deg")


def _check_table1(payload, params) -> None:
    assert payload.minimum_deg < 6.0
    voltages = set(payload.voltages_v)
    if {2.0, 15.0} <= voltages:
        assert 40.0 <= payload.maximum_deg <= 62.0
        corner = max(payload.rotation_deg[(15.0, 2.0)],
                     payload.rotation_deg[(2.0, 15.0)])
        assert corner == payload.maximum_deg
    if 5.0 in voltages:
        assert payload.rotation_deg[(5.0, 5.0)] < 15.0


@experiment(
    "table1",
    title="Table 1 — simulated polarization rotation vs (Vx, Vy)",
    tags=("table", "design"),
    params=(Param("voltage_v", "float_seq", TABLE1_VOLTAGES_V,
                  "bias grid of the published table (V)"),
            Param("frequency_hz", "float", DEFAULT_CENTER_FREQUENCY_HZ,
                  "evaluation frequency")),
    modules=("metasurface",),
    smoke={"voltage_v": (2.0, 5.0, 15.0)},
    summarize=_summary_table1, check=_check_table1)
def _run_table1(voltage_v: Tuple[float, ...],
                frequency_hz: float) -> RotationTableResult:
    # Table 1 is an HFSS-style simulation of the idealised structure, so
    # the stated voltages act directly on the varactor junctions.
    surface = llama_design().build(prototype=False)
    rotation: Dict[Tuple[float, float], float] = {}
    for vx in voltage_v:
        for vy in voltage_v:
            rotation[(float(vx), float(vy))] = abs(
                surface.rotation_angle_deg(frequency_hz, float(vx), float(vy)))
    return RotationTableResult(voltages_v=tuple(float(v) for v in voltage_v),
                               rotation_deg=rotation)


# ---------------------------------------------------------------------- #
# Fig. 12 — rotation-angle estimation procedure
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RotationEstimationResult:
    """Output of the Sec. 3.4 estimation on the matched benchmark link."""

    reference_orientation_deg: float
    min_rotation_deg: float
    max_rotation_deg: float
    power_slope_sign: float


def _summary_fig12(payload, params) -> str:
    return format_table(
        ["quantity", "reproduced", "paper"],
        [
            ["reference orientation (deg)",
             payload.reference_orientation_deg, 0.0],
            ["minimum rotation (deg)", payload.min_rotation_deg, 4.8],
            ["maximum rotation (deg)", payload.max_rotation_deg, 45.1],
            ["power-vs-angle slope sign", payload.power_slope_sign, -1.0],
        ],
        precision=1,
        title="Fig. 12 - rotation-angle estimation (match setup)")


def _check_fig12(payload, params) -> None:
    # The estimated range stays inside the physically achievable span
    # and linear power falls with orientation mismatch (Fig. 12a).
    assert (0.0 <= payload.min_rotation_deg
            <= payload.max_rotation_deg <= 60.0)
    assert payload.max_rotation_deg > 25.0
    assert payload.power_slope_sign < 0.0


@experiment(
    "fig12",
    title="Fig. 12 — rotation-angle estimation procedure (Sec. 3.4)",
    tags=("figure", "control"),
    params=(Param("distance_m", "float", 0.42, "Tx-Rx distance (m)"),),
    scenarios=("transmissive",),
    axes=("rx_orientation",),
    modules=("channel", "core", "metasurface"),
    smoke={"distance_m": 0.42},
    summarize=_summary_fig12, check=_check_fig12)
def _run_fig12(distance_m: float) -> RotationEstimationResult:
    scenario = TransmissiveScenario(tx_rx_distance_m=distance_m,
                                    rx_orientation_deg=0.0)
    system = LlamaSystem(scenario.configuration(),
                         sweep_config=VoltageSweepConfig(iterations=2,
                                                         switches_per_axis=5))
    estimate = system.estimate_rotation(orientation_step_deg=3.0)
    # Fig. 12(a): received *linear* power falls as the orientation
    # difference grows; report the sign of that slope as a sanity check.
    orientations = np.arange(0.0, 91.0, 15.0)
    baseline = WirelessLink(scenario.configuration().without_surface())
    powers = dbm_to_milliwatts(
        baseline.evaluate_grid(ProbeGrid.aligned(rx_orientation=orientations)))
    slope = np.polyfit(orientations, powers, 1)[0]
    return RotationEstimationResult(
        reference_orientation_deg=estimate.reference_orientation_deg,
        min_rotation_deg=estimate.min_rotation_deg,
        max_rotation_deg=estimate.max_rotation_deg,
        power_slope_sign=float(np.sign(slope)),
    )


# ---------------------------------------------------------------------- #
# Fig. 15 — transmissive voltage heatmaps and rotation range vs distance
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class HeatmapResult:
    """A received-power heatmap over the (Vx, Vy) grid at one distance."""

    distance_cm: float
    grid_dbm: Dict[Tuple[float, float], float]

    @property
    def best_point(self) -> Tuple[float, float, float]:
        """(vx, vy, power) of the strongest grid cell."""
        (vx, vy), power = max(self.grid_dbm.items(), key=lambda item: item[1])
        return (vx, vy, power)

    @property
    def dynamic_range_db(self) -> float:
        """Spread between the strongest and weakest grid cell."""
        powers = list(self.grid_dbm.values())
        return max(powers) - min(powers)


@dataclass(frozen=True)
class Figure15Result:
    """Fig. 15: per-distance heatmaps plus the rotation range (15h)."""

    heatmaps: Tuple[HeatmapResult, ...]
    rotation_ranges_deg: Dict[float, Tuple[float, float]]

    def heatmap_for(self, distance_cm: float) -> HeatmapResult:
        """Heatmap at one of the measured distances."""
        for heatmap in self.heatmaps:
            if math.isclose(heatmap.distance_cm, distance_cm):
                return heatmap
        raise KeyError(f"no heatmap for {distance_cm} cm")


def _summary_fig15(payload, params) -> str:
    example = payload.heatmaps[min(1, len(payload.heatmaps) - 1)]
    heatmap = format_heatmap(
        example.grid_dbm, precision=1,
        title="Fig. 15 - received power (dBm) vs (Vx, Vy) at "
              f"{example.distance_cm:.0f} cm")
    rows = []
    for entry in payload.heatmaps:
        vx, vy, power = entry.best_point
        low, high = payload.rotation_ranges_deg[entry.distance_cm]
        rows.append([entry.distance_cm, power, vx, vy,
                     entry.dynamic_range_db, low, high])
    summary = format_table(
        ["distance (cm)", "best power (dBm)", "best Vx", "best Vy",
         "sweep range (dB)", "min rot (deg)", "max rot (deg)"],
        rows, precision=1,
        title="Fig. 15 summary (paper Fig. 15h: rotation spans ~3-45 deg)")
    return f"{heatmap}\n\n{summary}"


def _check_fig15(payload, params) -> None:
    for heatmap in payload.heatmaps:
        assert heatmap.dynamic_range_db > 10.0
    best_powers = [h.best_point[2] for h in payload.heatmaps]
    if len(best_powers) > 1:
        assert best_powers[0] > best_powers[-1]
    for low, high in payload.rotation_ranges_deg.values():
        assert low < 10.0 and 35.0 <= high <= 60.0


@experiment(
    "fig15",
    title="Fig. 15 — transmissive voltage heatmaps + rotation range",
    tags=("figure", "sweep"),
    params=(Param("distance_cm", "float_seq", TRANSMISSIVE_DISTANCES_CM,
                  "Tx-Rx distances (cm)"),
            Param("voltage_step_v", "float", 5.0, "bias grid step (V)")),
    scenarios=("transmissive",),
    modules=("api", "channel", "metasurface"),
    smoke={"distance_cm": (24, 36, 48, 60), "voltage_step_v": 6.0},
    summarize=_summary_fig15, check=_check_fig15)
def _run_fig15(distance_cm: Tuple[float, ...],
               voltage_step_v: float) -> Figure15Result:
    heatmaps: List[HeatmapResult] = []
    rotation_ranges: Dict[float, Tuple[float, float]] = {}
    for distance in distance_cm:
        scenario = TransmissiveScenario(tx_rx_distance_m=distance / 100.0)
        link = scenario.link()
        grid = voltage_grid_sweep(link, step_v=voltage_step_v)
        heatmaps.append(HeatmapResult(distance_cm=float(distance),
                                      grid_dbm=grid))
        # Fig. 15h reports the rotation range realised over the full
        # 0-30 V terminal sweep of the prototype.
        surface = scenario.metasurface
        rotation_ranges[float(distance)] = surface.rotation_range_deg(
            scenario.frequency_hz, voltage_low_v=0.0, voltage_high_v=30.0)
    return Figure15Result(heatmaps=tuple(heatmaps),
                          rotation_ranges_deg=rotation_ranges)


# ---------------------------------------------------------------------- #
# Fig. 16 — transmissive received power with/without the surface
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GainVsDistanceResult:
    """Received power with/without the surface across distances."""

    distances_cm: Tuple[float, ...]
    power_with_dbm: Tuple[float, ...]
    power_without_dbm: Tuple[float, ...]

    @property
    def gains_db(self) -> Tuple[float, ...]:
        """Per-distance power improvement."""
        return tuple(w - wo for w, wo in zip(self.power_with_dbm,
                                             self.power_without_dbm))

    @property
    def max_gain_db(self) -> float:
        """Best improvement across the sweep (paper: up to 15 dB)."""
        return max(self.gains_db)

    @property
    def range_extension_factor(self) -> float:
        """Friis-implied range extension at the best improvement."""
        return float(db_to_amplitude(self.max_gain_db))


def _summary_fig16(payload, params) -> str:
    comparison = format_comparison(
        "Fig. 16 - received power vs Tx-Rx distance (dBm), mismatch setup "
        "(paper: up to 15 dB improvement)",
        payload.distances_cm, payload.power_with_dbm,
        payload.power_without_dbm, x_label="distance (cm)", precision=1)
    return (f"{comparison}\n\n"
            f"max improvement          : {payload.max_gain_db:.1f} dB "
            "(paper: 15 dB)\n"
            "implied range extension  : "
            f"{payload.range_extension_factor:.1f}x (paper: 5.6x)")


def _check_fig16(payload, params) -> None:
    # The surface wins at every distance, by roughly the paper's factor.
    assert all(gain > 8.0 for gain in payload.gains_db)
    assert 12.0 <= payload.max_gain_db <= 22.0
    assert payload.range_extension_factor > 4.0


@experiment(
    "fig16",
    title="Fig. 16 — transmissive received power with/without the surface",
    tags=("figure", "sweep"),
    params=(Param("distance_cm", "float_seq", TRANSMISSIVE_DISTANCES_CM,
                  "Tx-Rx distances (cm)"),
            Param("exhaustive", "bool", False,
                  "exhaustive bias search instead of coarse-to-fine")),
    scenarios=("transmissive",),
    axes=("distance",),
    modules=("api", "channel", "core"),
    smoke={"distance_cm": (24.0, 42.0, 60.0)},
    summarize=_summary_fig16, check=_check_fig16)
def _run_fig16(distance_cm: Tuple[float, ...],
               exhaustive: bool) -> GainVsDistanceResult:
    # Driven by the vectorized sweep engine: one scenario covers the
    # whole distance axis, per-point optimization batched across it.
    distances_m = np.asarray(distance_cm, dtype=float) / 100.0
    scenario = TransmissiveScenario(tx_rx_distance_m=float(distances_m[0]))
    points = multi_axis_sweep("distance", distances_m, scenario.link(),
                              baseline_link=scenario.baseline_link(),
                              exhaustive=exhaustive)
    return GainVsDistanceResult(
        distances_cm=tuple(float(d) for d in distance_cm),
        power_with_dbm=tuple(point.power_with_dbm for point in points),
        power_without_dbm=tuple(point.power_without_dbm for point in points),
    )


# ---------------------------------------------------------------------- #
# Fig. 17 — received power vs operating frequency
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FrequencySweepResult:
    """Received power with/without the surface across the ISM band."""

    frequencies_hz: Tuple[float, ...]
    power_with_dbm: Tuple[float, ...]
    power_without_dbm: Tuple[float, ...]

    @property
    def gains_db(self) -> Tuple[float, ...]:
        """Per-frequency improvement."""
        return tuple(w - wo for w, wo in zip(self.power_with_dbm,
                                             self.power_without_dbm))

    @property
    def min_gain_db(self) -> float:
        """Worst-case improvement across the band (paper: > 10 dB)."""
        return min(self.gains_db)


#: Default Fig. 17 frequency axis: 2.40-2.50 GHz in 10 MHz steps.
FIG17_FREQUENCIES_HZ = tuple(float(f)
                             for f in np.arange(2.40e9, 2.501e9, 0.01e9))


def _summary_fig17(payload, params) -> str:
    comparison = format_comparison(
        "Fig. 17 - received power vs operating frequency (dBm), mismatch "
        "setup (paper: >10 dB improvement across the band)",
        [f / 1e9 for f in payload.frequencies_hz],
        payload.power_with_dbm, payload.power_without_dbm,
        x_label="frequency (GHz)", precision=1)
    return (f"{comparison}\n\nworst-case improvement across the band: "
            f"{payload.min_gain_db:.1f} dB (paper: >10 dB)")


def _check_fig17(payload, params) -> None:
    assert payload.min_gain_db > 8.0
    assert len(payload.frequencies_hz) == len(params["frequency_hz"])


@experiment(
    "fig17",
    title="Fig. 17 — power improvement across 2.40-2.50 GHz",
    tags=("figure", "sweep"),
    params=(Param("frequency_hz", "float_seq", FIG17_FREQUENCIES_HZ,
                  "carrier frequencies (Hz)"),
            Param("distance_m", "float", 0.42, "Tx-Rx distance (m)")),
    scenarios=("transmissive",),
    axes=("frequency",),
    modules=("api", "channel", "core"),
    smoke={"frequency_hz": (2.40e9, 2.45e9, 2.50e9)},
    summarize=_summary_fig17, check=_check_fig17)
def _run_fig17(frequency_hz: Tuple[float, ...],
               distance_m: float) -> FrequencySweepResult:
    # The whole band is one batched frequency axis; the per-frequency
    # Algorithm 1 optimizations are probed together.
    frequencies = np.asarray(frequency_hz, dtype=float)
    scenario = TransmissiveScenario(tx_rx_distance_m=distance_m,
                                    frequency_hz=float(frequencies[0]))
    points = multi_axis_sweep("frequency", frequencies, scenario.link(),
                              baseline_link=scenario.baseline_link())
    return FrequencySweepResult(
        frequencies_hz=tuple(float(f) for f in frequencies),
        power_with_dbm=tuple(point.power_with_dbm for point in points),
        power_without_dbm=tuple(point.power_without_dbm for point in points),
    )


# ---------------------------------------------------------------------- #
# Figs. 18 and 19 — capacity vs transmit power (clean chamber / multipath)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CapacityVsPowerResult:
    """Spectral efficiency vs transmit power for one antenna/environment."""

    antenna_kind: str
    absorber: bool
    tx_powers_mw: Tuple[float, ...]
    efficiency_with: Tuple[float, ...]
    efficiency_without: Tuple[float, ...]

    @property
    def improvements(self) -> Tuple[float, ...]:
        """Per-power capacity improvement (bit/s/Hz)."""
        return tuple(w - wo for w, wo in zip(self.efficiency_with,
                                             self.efficiency_without))

    def crossover_tx_power_mw(self) -> Optional[float]:
        """Lowest transmit power at which the surface starts helping.

        Returns ``None`` when the surface helps at every probed power.
        The paper's Fig. 19a places this crossover near 2 mW for omni
        antennas in a multipath-rich room.
        """
        for power_mw, improvement in zip(self.tx_powers_mw, self.improvements):
            if improvement > 0:
                previous_hurt = any(
                    other <= 0 for p, other in zip(self.tx_powers_mw,
                                                   self.improvements)
                    if p < power_mw)
                return power_mw if previous_hurt else None
        return None


#: Noise-plus-interference floor used for the capacity experiments.  An
#: ordinary laboratory's 2.4 GHz band is interference limited (co-channel
#: Wi-Fi, Bluetooth) whereas the absorber-covered chamber is close to the
#: receiver's own floor.  The values are referenced to the short-range,
#: high-gain setups of Figs. 18-19 and are what make the low-transmit-
#: power regime measurement-noise limited, as the paper observes.
LAB_INTERFERENCE_FLOOR_DBM = -42.0
CHAMBER_NOISE_FLOOR_DBM = -85.0

#: Transmit-power axis (mW) of the published Figs. 18-19.
FIG18_19_TX_POWERS_MW = (0.002, 0.02, 0.2, 2.0, 20.0, 200.0, 1000.0)


def _capacity_vs_power(antenna_kind: str, absorber: bool,
                       tx_powers_mw: Sequence[float],
                       distance_m: float = 0.42,
                       seed: int = 5) -> CapacityVsPowerResult:
    floor_dbm = (CHAMBER_NOISE_FLOOR_DBM if absorber
                 else LAB_INTERFERENCE_FLOOR_DBM)
    tx_powers_dbm = np.asarray(milliwatts_to_dbm(np.asarray(tx_powers_mw,
                                                             dtype=float)))
    scenario = TransmissiveScenario(tx_rx_distance_m=distance_m,
                                    tx_power_dbm=float(tx_powers_dbm[0]),
                                    antenna_kind=antenna_kind,
                                    absorber=absorber)
    configuration = replace(scenario.configuration(),
                            interference_floor_dbm=floor_dbm)
    link = WirelessLink(configuration)
    baseline_link = WirelessLink(configuration.without_surface())
    noise = link.noise_power_dbm()
    # The controller only sees noisy power reports; at low transmit
    # power the sweep differences sink below the measurement floor
    # and the chosen bias pair degrades towards random — this is the
    # mechanism behind the paper's ~2 mW crossover for omni antennas
    # in multipath (Fig. 19a).  The whole transmit-power axis is swept
    # at once: the sweep backend draws one noise realisation per probe
    # and shares it across axis points, replaying the sample streams of
    # the per-point receivers (identically seeded) the scalar loop
    # would construct.
    receiver = SimulatedReceiver(link, seed=seed)
    controller = CentralizedController(
        VoltageSweepConfig(iterations=2, switches_per_axis=5))
    sweep = controller.coarse_to_fine_sweep_grid(
        ReceiverSweepBackend(receiver, duration_s=0.0002),
        ProbeGrid.product(tx_power=tx_powers_dbm))
    achieved_powers = link.evaluate_grid(ProbeGrid.aligned(
        tx_power=tx_powers_dbm, vx=sweep.best_vx, vy=sweep.best_vy))
    baseline_powers = baseline_link.evaluate_grid(
        ProbeGrid.aligned(tx_power=tx_powers_dbm))
    efficiency_with = spectral_efficiency_from_powers(achieved_powers, noise)
    efficiency_without = spectral_efficiency_from_powers(baseline_powers,
                                                         noise)
    return CapacityVsPowerResult(
        antenna_kind=antenna_kind,
        absorber=absorber,
        tx_powers_mw=tuple(float(p) for p in tx_powers_mw),
        efficiency_with=tuple(float(e) for e in efficiency_with),
        efficiency_without=tuple(float(e) for e in efficiency_without),
    )


def _capacity_table(series: CapacityVsPowerResult, title: str) -> str:
    """One Figs. 18-19 capacity-vs-power panel."""
    rows = [
        (power, with_eff, without_eff, with_eff - without_eff)
        for power, with_eff, without_eff in zip(
            series.tx_powers_mw, series.efficiency_with,
            series.efficiency_without)
    ]
    return format_table(
        ["Tx power (mW)", "with surface (bit/s/Hz)",
         "without surface (bit/s/Hz)", "improvement"],
        rows, precision=2, title=title)


def _summary_fig18_19(payload, params) -> str:
    titles = {
        "fig18a_omni_clean": "Fig. 18a - omni antenna, absorber chamber",
        "fig18b_directional_clean":
            "Fig. 18b - directional antenna, absorber chamber",
        "fig19a_omni_multipath":
            "Fig. 19a - omni antenna, multipath laboratory "
            "(paper: benefit collapses below ~2 mW)",
        "fig19b_directional_multipath":
            "Fig. 19b - directional antenna, multipath laboratory",
    }
    return "\n\n".join(_capacity_table(payload[key], title)
                       for key, title in titles.items() if key in payload)


def _check_fig18_19(payload, params) -> None:
    # Clean chamber: the surface helps at every transmit power.
    for key in ("fig18a_omni_clean", "fig18b_directional_clean"):
        assert all(improvement > 1.0
                   for improvement in payload[key].improvements), key
    clean = payload["fig18b_directional_clean"]
    assert clean.efficiency_with[-1] > clean.efficiency_with[0]
    # Multipath: the omni benefit collapses at the lowest powers and
    # recovers above the ~2 mW region; directional stays more robust.
    omni = payload["fig19a_omni_multipath"]
    directional = payload["fig19b_directional_multipath"]
    assert sum(directional.improvements) > sum(omni.improvements)
    if len(omni.tx_powers_mw) > 1:
        assert omni.improvements[0] < 1.0
        assert omni.improvements[-1] > 2.0
    if 2.0 in omni.tx_powers_mw:
        low_power_index = omni.tx_powers_mw.index(2.0)
        assert omni.improvements[low_power_index] > omni.improvements[0]


@experiment(
    "fig18_19",
    title="Figs. 18-19 — capacity vs transmit power (chamber / multipath)",
    tags=("figure", "sweep"),
    params=(Param("tx_power_mw", "float_seq", FIG18_19_TX_POWERS_MW,
                  "transmit powers (mW)"),
            Param("distance_m", "float", 0.42, "Tx-Rx distance (m)")),
    scenarios=("transmissive",),
    axes=("tx_power",),
    modules=("api", "channel", "core", "radio"),
    smoke={"tx_power_mw": (0.002, 2.0, 20.0, 1000.0)},
    summarize=_summary_fig18_19, check=_check_fig18_19)
def _run_fig18_19(tx_power_mw: Tuple[float, ...],
                  distance_m: float) -> Dict[str, CapacityVsPowerResult]:
    return {
        "fig18a_omni_clean": _capacity_vs_power("omni", True, tx_power_mw,
                                                distance_m),
        "fig18b_directional_clean": _capacity_vs_power("directional", True,
                                                       tx_power_mw, distance_m),
        "fig19a_omni_multipath": _capacity_vs_power("omni", False,
                                                    tx_power_mw, distance_m),
        "fig19b_directional_multipath": _capacity_vs_power(
            "directional", False, tx_power_mw, distance_m),
    }


# ---------------------------------------------------------------------- #
# Fig. 20 — commodity IoT links with/without the surface
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class IoTDeviceResult:
    """RSSI distributions of a commodity link with/without the surface."""

    with_surface_rssi_dbm: Tuple[float, ...]
    without_surface_rssi_dbm: Tuple[float, ...]
    optimal_bias_v: Tuple[float, float]

    @property
    def improvement_db(self) -> float:
        """Mean RSSI improvement (paper: ~10 dB)."""
        return (float(np.mean(self.with_surface_rssi_dbm)) -
                float(np.mean(self.without_surface_rssi_dbm)))

    @property
    def throughput_improvement_mbps(self) -> float:
        """802.11g PHY-rate improvement unlocked by the RSSI gain."""
        with_rate = wifi_rate_for_rssi_mbps(
            float(np.mean(self.with_surface_rssi_dbm)))
        without_rate = wifi_rate_for_rssi_mbps(
            float(np.mean(self.without_surface_rssi_dbm)))
        return float(with_rate - without_rate)


def _device_pdf(with_config, without_config, sample_count: int,
                seed: int) -> IoTDeviceResult:
    """Optimize the surface, then sample both configurations' RSSI."""
    with_link = WirelessLink(with_config)
    best_power, best_vx, best_vy = optimize_link(with_link)
    receiver_with = SimulatedReceiver(with_link, seed=seed)
    receiver_without = SimulatedReceiver(WirelessLink(without_config),
                                         seed=seed + 1)
    with_samples = tuple(
        receiver_with.measure_power_dbm(vx=best_vx, vy=best_vy,
                                        duration_s=0.002)
        for _ in range(sample_count))
    without_samples = tuple(
        receiver_without.measure_power_dbm(duration_s=0.002)
        for _ in range(sample_count))
    return IoTDeviceResult(with_surface_rssi_dbm=with_samples,
                           without_surface_rssi_dbm=without_samples,
                           optimal_bias_v=(best_vx, best_vy))


def _summary_fig20(payload, params) -> str:
    rows = [
        ["without surface", float(np.mean(payload.without_surface_rssi_dbm)),
         float(np.min(payload.without_surface_rssi_dbm)),
         float(np.max(payload.without_surface_rssi_dbm))],
        ["with surface", float(np.mean(payload.with_surface_rssi_dbm)),
         float(np.min(payload.with_surface_rssi_dbm)),
         float(np.max(payload.with_surface_rssi_dbm))],
    ]
    table = format_table(
        ["configuration", "mean RSSI (dBm)", "min (dBm)", "max (dBm)"],
        rows, precision=1,
        title="Fig. 20 - ESP8266 Wi-Fi link, mismatch setup "
              "(paper: ~10 dB improvement with the surface)")
    overlap = distribution_overlap_fraction(payload.with_surface_rssi_dbm,
                                            payload.without_surface_rssi_dbm)
    return (f"{table}\n\n"
            f"mean improvement            : {payload.improvement_db:.1f} dB\n"
            f"distribution overlap        : {overlap * 100:.0f}%\n"
            "802.11g PHY rate unlocked   : "
            f"+{payload.throughput_improvement_mbps:.0f} Mbit/s\n"
            "optimal bias pair           : "
            f"Vx={payload.optimal_bias_v[0]:.0f} V, "
            f"Vy={payload.optimal_bias_v[1]:.0f} V")


def _check_fig20(payload, params) -> None:
    overlap = distribution_overlap_fraction(payload.with_surface_rssi_dbm,
                                            payload.without_surface_rssi_dbm)
    assert 5.0 <= payload.improvement_db <= 18.0
    assert overlap < 0.5


@experiment(
    "fig20",
    title="Fig. 20 — ESP8266 Wi-Fi link RSSI with/without the metasurface",
    tags=("figure", "network"),
    params=(Param("sample_count", "int", 200, "RSSI samples per config"),
            Param("distance_m", "float", 3.0, "station-AP distance (m)"),
            Param("seed", "int", 2021, "receiver noise seed")),
    scenarios=("iot_wifi",),
    modules=("api", "channel", "core", "devices", "radio"),
    smoke={"sample_count": 60},
    summarize=_summary_fig20, check=_check_fig20)
def _run_fig20(sample_count: int, distance_m: float,
               seed: int) -> IoTDeviceResult:
    with_config, _station, _ap = iot_wifi_scenario(
        mismatched=True, distance_m=distance_m, with_surface=True, seed=seed)
    without_config, _station, _ap = iot_wifi_scenario(
        mismatched=True, distance_m=distance_m, with_surface=False, seed=seed)
    return _device_pdf(with_config, without_config, sample_count, seed)


# ---------------------------------------------------------------------- #
# Fig. 20 generalised — all three commodity IoT device families
# ---------------------------------------------------------------------- #
def _summary_iot_families(payload, params) -> str:
    rows = [[family,
             float(np.mean(result.without_surface_rssi_dbm)),
             float(np.mean(result.with_surface_rssi_dbm)),
             result.improvement_db]
            for family, result in payload.items()]
    return format_table(
        ["family", "without surface (dBm)", "with surface (dBm)",
         "improvement (dB)"],
        rows, precision=1,
        title="Fig. 20 generalised - Wi-Fi / BLE / Zigbee links "
              "(paper names all three as beneficiaries)")


def _check_iot_families(payload, params) -> None:
    assert set(payload) == set(IOT_SCENARIOS)
    for family, result in payload.items():
        assert result.improvement_db > 3.0, family


@experiment(
    "iot_families",
    title="Fig. 20 generalised — Wi-Fi, BLE and Zigbee commodity links",
    tags=("figure", "network"),
    params=(Param("sample_count", "int", 150, "RSSI samples per config"),
            Param("seed", "int", 2021, "receiver noise seed")),
    scenarios=("iot_wifi", "iot_ble", "iot_zigbee"),
    modules=("api", "channel", "core", "devices", "radio"),
    smoke={"sample_count": 50},
    summarize=_summary_iot_families, check=_check_iot_families)
def _run_iot_families(sample_count: int,
                      seed: int) -> Dict[str, IoTDeviceResult]:
    results: Dict[str, IoTDeviceResult] = {}
    for family, factory in IOT_SCENARIOS.items():
        with_config, _tx, _rx = factory(mismatched=True, with_surface=True,
                                        seed=seed)
        without_config, _tx, _rx = factory(mismatched=True,
                                           with_surface=False, seed=seed)
        results[family] = _device_pdf(with_config, without_config,
                                      sample_count, seed)
    return results


# ---------------------------------------------------------------------- #
# Fig. 21 — reflective voltage heatmaps
# ---------------------------------------------------------------------- #
def _summary_fig21(payload, params) -> str:
    example = payload[min(1, len(payload) - 1)]
    heatmap = format_heatmap(
        example.grid_dbm, precision=1,
        title="Fig. 21 - reflective received power (dBm) vs (Vx, Vy) at "
              f"{example.distance_cm:.0f} cm Tx-surface distance")
    rows = []
    for entry in payload:
        vx, vy, power = entry.best_point
        rows.append([entry.distance_cm, power, vx, vy,
                     entry.dynamic_range_db])
    summary = format_table(
        ["Tx-surface distance (cm)", "best power (dBm)", "best Vx",
         "best Vy", "sweep range (dB)"],
        rows, precision=1,
        title="Fig. 21 summary (paper: voltage sensitivity present but "
              "smaller than the transmissive case)")
    return f"{heatmap}\n\n{summary}"


def _check_fig21(payload, params) -> None:
    for heatmap in payload:
        assert heatmap.dynamic_range_db > 1.0
    best_powers = [heatmap.best_point[2] for heatmap in payload]
    if len(best_powers) > 1:
        assert best_powers[0] > best_powers[-1]


@experiment(
    "fig21",
    title="Fig. 21 — reflective voltage heatmaps vs Tx-surface distance",
    tags=("figure", "sweep"),
    params=(Param("distance_cm", "float_seq", REFLECTIVE_DISTANCES_CM,
                  "Tx-to-surface distances (cm)"),
            Param("voltage_step_v", "float", 5.0, "bias grid step (V)")),
    scenarios=("reflective",),
    modules=("api", "channel", "metasurface"),
    smoke={"distance_cm": (24, 36, 48, 66), "voltage_step_v": 6.0},
    summarize=_summary_fig21, check=_check_fig21)
def _run_fig21(distance_cm: Tuple[float, ...],
               voltage_step_v: float) -> Tuple[HeatmapResult, ...]:
    heatmaps: List[HeatmapResult] = []
    for distance in distance_cm:
        scenario = ReflectiveScenario(surface_distance_m=distance / 100.0)
        grid = voltage_grid_sweep(scenario.link(), step_v=voltage_step_v)
        heatmaps.append(HeatmapResult(distance_cm=float(distance),
                                      grid_dbm=grid))
    return tuple(heatmaps)


# ---------------------------------------------------------------------- #
# Fig. 22 — reflective power and capacity improvement
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReflectiveGainResult:
    """Reflective received power and capacity with/without the surface."""

    distances_cm: Tuple[float, ...]
    power_with_dbm: Tuple[float, ...]
    power_without_dbm: Tuple[float, ...]
    efficiency_with: Tuple[float, ...]
    efficiency_without: Tuple[float, ...]

    @property
    def gains_db(self) -> Tuple[float, ...]:
        """Per-distance power improvement."""
        return tuple(w - wo for w, wo in zip(self.power_with_dbm,
                                             self.power_without_dbm))

    @property
    def max_gain_db(self) -> float:
        """Best reflective power improvement (paper: up to 17 dB)."""
        return max(self.gains_db)

    @property
    def max_capacity_improvement(self) -> float:
        """Best spectral-efficiency improvement (bit/s/Hz)."""
        return max(w - wo for w, wo in zip(self.efficiency_with,
                                           self.efficiency_without))


def _summary_fig22(payload, params) -> str:
    power = format_comparison(
        "Fig. 22 (top) - reflective received power vs Tx-surface distance "
        "(dBm) (paper: up to 17 dB improvement)",
        payload.distances_cm, payload.power_with_dbm,
        payload.power_without_dbm, x_label="distance (cm)", precision=1)
    capacity = format_comparison(
        "Fig. 22 (bottom) - spectral efficiency (bit/s/Hz)",
        payload.distances_cm, payload.efficiency_with,
        payload.efficiency_without, x_label="distance (cm)", precision=2)
    return (f"{power}\n\n{capacity}\n\n"
            f"max power improvement    : {payload.max_gain_db:.1f} dB "
            "(paper: 17 dB)\n"
            "max capacity improvement : "
            f"{payload.max_capacity_improvement:.2f} bit/s/Hz")


def _check_fig22(payload, params) -> None:
    assert all(gain > 0.0 for gain in payload.gains_db)
    assert payload.max_gain_db > 10.0
    assert payload.max_capacity_improvement > 0.5


@experiment(
    "fig22",
    title="Fig. 22 — reflective power and capacity with/without the surface",
    tags=("figure", "sweep"),
    params=(Param("distance_cm", "float_seq", REFLECTIVE_DISTANCES_CM,
                  "Tx-to-surface distances (cm)"),
            Param("exhaustive", "bool", False,
                  "exhaustive bias search instead of coarse-to-fine")),
    scenarios=("reflective",),
    axes=("distance",),
    modules=("api", "channel", "core"),
    smoke={"distance_cm": (24.0, 42.0, 66.0)},
    summarize=_summary_fig22, check=_check_fig22)
def _run_fig22(distance_cm: Tuple[float, ...],
               exhaustive: bool) -> ReflectiveGainResult:
    # The surface-offset axis is one batched distance sweep (with the
    # aimed-antenna direct-path roll-off recomputed per offset, as the
    # scalar per-point loop did), then one vectorized Shannon pass.
    distances_m = np.asarray(distance_cm, dtype=float) / 100.0
    scenario = ReflectiveScenario(surface_distance_m=float(distances_m[0]))
    # The noise floor depends only on bandwidth/noise figure, not on the
    # swept distance, so one link's floor covers the whole axis.
    noise = scenario.link().noise_power_dbm()
    points = multi_axis_sweep("distance", distances_m, scenario.link(),
                              baseline_link=scenario.baseline_link(),
                              exhaustive=exhaustive)
    power_with = np.array([point.power_with_dbm for point in points])
    power_without = np.array([point.power_without_dbm for point in points])
    eff_with = spectral_efficiency_from_powers(power_with, noise)
    eff_without = spectral_efficiency_from_powers(power_without, noise)
    return ReflectiveGainResult(
        distances_cm=tuple(float(d) for d in distance_cm),
        power_with_dbm=tuple(float(p) for p in power_with),
        power_without_dbm=tuple(float(p) for p in power_without),
        efficiency_with=tuple(float(e) for e in eff_with),
        efficiency_without=tuple(float(e) for e in eff_without),
    )


# ---------------------------------------------------------------------- #
# Two-axis scenario runners (the N-D grid engine's figure plane)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GainSurfaceResult:
    """Optimized gain over a joint frequency x distance grid.

    Every 2-D array is indexed ``[frequency, distance]``; the surface
    is optimized per cell (Algorithm 1, all cells batched together) and
    compared against the matching no-surface baseline.
    """

    frequencies_hz: Tuple[float, ...]
    distances_m: Tuple[float, ...]
    power_with_dbm: np.ndarray
    power_without_dbm: np.ndarray
    best_vx: np.ndarray
    best_vy: np.ndarray

    @property
    def gain_db(self) -> np.ndarray:
        """Per-cell received-power improvement (dB)."""
        return self.power_with_dbm - self.power_without_dbm

    @property
    def min_gain_db(self) -> float:
        """Worst-case improvement anywhere on the surface."""
        return float(np.min(self.gain_db))

    @property
    def max_gain_db(self) -> float:
        """Best improvement anywhere on the surface."""
        return float(np.max(self.gain_db))


#: Default gain-surface frequency axis: 2.40-2.50 GHz in 20 MHz steps.
GAIN_SURFACE_FREQUENCIES_HZ = tuple(
    float(f) for f in np.arange(2.40e9, 2.501e9, 0.02e9))

#: Default gain-surface distance axis (m): the transmissive range.
GAIN_SURFACE_DISTANCES_M = tuple(
    float(d) / 100.0 for d in TRANSMISSIVE_DISTANCES_CM)


def _summary_gain_surface(payload, params) -> str:
    rows = [[f / 1e9] + list(payload.gain_db[i])
            for i, f in enumerate(payload.frequencies_hz)]
    table = format_table(
        ["freq (GHz) \\ dist (m)"] + [f"{d:.2f}"
                                      for d in payload.distances_m],
        rows, precision=1,
        title="Gain surface - optimized improvement (dB) over the "
              "frequency x distance grid")
    return (f"{table}\n\nimprovement span: {payload.min_gain_db:.1f} to "
            f"{payload.max_gain_db:.1f} dB")


def _check_gain_surface(payload, params) -> None:
    assert payload.gain_db.shape == (len(payload.frequencies_hz),
                                     len(payload.distances_m))
    assert payload.min_gain_db > 8.0


@experiment(
    "gain_surface",
    title="Gain surface — joint frequency x distance improvement grid",
    tags=("sweep",),
    params=(Param("frequency_hz", "float_seq", GAIN_SURFACE_FREQUENCIES_HZ,
                  "carrier frequencies (Hz)"),
            Param("distance_m", "float_seq", GAIN_SURFACE_DISTANCES_M,
                  "Tx-Rx distances (m)")),
    scenarios=("transmissive",),
    axes=("frequency", "distance"),
    modules=("api", "channel", "core"),
    smoke={"frequency_hz": (2.40e9, 2.44e9, 2.48e9),
           "distance_m": (0.24, 0.42, 0.60)},
    summarize=_summary_gain_surface, check=_check_gain_surface)
def _run_gain_surface(frequency_hz: Tuple[float, ...],
                      distance_m: Tuple[float, ...]) -> GainSurfaceResult:
    # One ProbeGrid covers the whole ISM band crossed with the
    # transmissive distance range; per-cell Algorithm 1 searches all
    # batch through the grid engine.
    frequencies = np.asarray(frequency_hz, dtype=float).ravel()
    distances = np.asarray(distance_m, dtype=float).ravel()
    scenario = TransmissiveScenario(frequency_hz=float(frequencies[0]),
                                    tx_rx_distance_m=float(distances[0]))
    grid = ProbeGrid.product(frequency=frequencies, distance=distances)
    comparison = grid_sweep(grid, scenario.link(),
                            baseline_link=scenario.baseline_link())
    return GainSurfaceResult(
        frequencies_hz=tuple(float(f) for f in frequencies),
        distances_m=tuple(float(d) for d in distances),
        power_with_dbm=comparison.power_with_dbm,
        power_without_dbm=comparison.power_without_dbm,
        best_vx=comparison.best_vx,
        best_vy=comparison.best_vy,
    )


@dataclass(frozen=True)
class CoverageMapResult:
    """Capacity coverage over a joint tx-power x distance grid.

    Every 2-D array is indexed ``[tx_power, distance]``.  A cell is
    "covered" when its spectral efficiency reaches
    ``threshold_bps_hz``; the coverage fractions summarise how much of
    the operating envelope the surface opens up.
    """

    tx_powers_dbm: Tuple[float, ...]
    distances_m: Tuple[float, ...]
    efficiency_with: np.ndarray
    efficiency_without: np.ndarray
    threshold_bps_hz: float

    @property
    def covered_with(self) -> np.ndarray:
        """Boolean coverage map with the surface deployed."""
        return self.efficiency_with >= self.threshold_bps_hz

    @property
    def covered_without(self) -> np.ndarray:
        """Boolean coverage map of the no-surface baseline."""
        return self.efficiency_without >= self.threshold_bps_hz

    @property
    def coverage_fraction_with(self) -> float:
        """Fraction of the grid the surface-assisted link covers."""
        return float(np.mean(self.covered_with))

    @property
    def coverage_fraction_without(self) -> float:
        """Fraction of the grid the baseline link covers."""
        return float(np.mean(self.covered_without))

    @property
    def newly_covered_fraction(self) -> float:
        """Fraction of the grid only the surface-assisted link covers."""
        return float(np.mean(self.covered_with & ~self.covered_without))


#: Default coverage-map axes.
COVERAGE_MAP_TX_POWERS_DBM = tuple(
    float(p) for p in np.arange(-60.0, 0.1, 10.0))
COVERAGE_MAP_DISTANCES_M = (0.3, 1.0, 3.0, 10.0, 30.0)


def _summary_coverage_map(payload, params) -> str:
    rows = [[p] + ["#" if w else ("+" if ww else ".")
                   for w, ww in zip(payload.covered_without[i],
                                    payload.covered_with[i])]
            for i, p in enumerate(payload.tx_powers_dbm)]
    table = format_table(
        ["Tx (dBm) \\ dist (m)"] + [f"{d:.1f}" for d in payload.distances_m],
        rows, precision=0,
        title=f"Coverage map at {payload.threshold_bps_hz:.0f} bit/s/Hz "
              "(# baseline covers, + only with surface, . uncovered)")
    return (f"{table}\n\n"
            f"coverage with surface   : {payload.coverage_fraction_with:.0%}\n"
            "coverage without surface: "
            f"{payload.coverage_fraction_without:.0%}\n"
            "opened by the surface   : "
            f"{payload.newly_covered_fraction:.0%} of the envelope")


def _check_coverage_map(payload, params) -> None:
    # The surface strictly extends the operating envelope, and more
    # power never shrinks coverage.
    assert (payload.coverage_fraction_with
            >= payload.coverage_fraction_without)
    covered_per_power = np.sum(payload.covered_with, axis=1)
    assert np.all(np.diff(covered_per_power) >= 0)


@experiment(
    "coverage_map",
    title="Coverage map — tx-power x distance capacity envelope",
    tags=("sweep",),
    params=(Param("tx_power_dbm", "float_seq", COVERAGE_MAP_TX_POWERS_DBM,
                  "transmit powers (dBm)"),
            Param("distance_m", "float_seq", COVERAGE_MAP_DISTANCES_M,
                  "Tx-Rx distances (m)"),
            Param("threshold_bps_hz", "float", 2.0,
                  "coverage threshold (bit/s/Hz)"),
            Param("antenna_kind", "str", "directional",
                  "directional / omni / dipole"),
            Param("absorber", "bool", True, "absorber-covered chamber")),
    scenarios=("transmissive",),
    axes=("tx_power", "distance"),
    modules=("api", "channel", "core"),
    smoke={"tx_power_dbm": (-60.0, -40.0, -20.0, 0.0),
           "distance_m": (0.3, 3.0, 30.0)},
    summarize=_summary_coverage_map, check=_check_coverage_map)
def _run_coverage_map(tx_power_dbm: Tuple[float, ...],
                      distance_m: Tuple[float, ...],
                      threshold_bps_hz: float,
                      antenna_kind: str,
                      absorber: bool) -> CoverageMapResult:
    tx_powers = np.asarray(tx_power_dbm, dtype=float).ravel()
    distances = np.asarray(distance_m, dtype=float).ravel()
    floor_dbm = (CHAMBER_NOISE_FLOOR_DBM if absorber
                 else LAB_INTERFERENCE_FLOOR_DBM)
    scenario = TransmissiveScenario(tx_power_dbm=float(tx_powers[0]),
                                    tx_rx_distance_m=float(distances[0]),
                                    antenna_kind=antenna_kind,
                                    absorber=absorber)
    configuration = replace(scenario.configuration(),
                            interference_floor_dbm=floor_dbm)
    link = WirelessLink(configuration)
    baseline_link = WirelessLink(configuration.without_surface())
    noise = link.noise_power_dbm()
    grid = ProbeGrid.product(tx_power=tx_powers, distance=distances)
    comparison = grid_sweep(grid, link, baseline_link=baseline_link)
    return CoverageMapResult(
        tx_powers_dbm=tuple(float(p) for p in tx_powers),
        distances_m=tuple(float(d) for d in distances),
        efficiency_with=spectral_efficiency_from_powers(
            comparison.power_with_dbm, noise),
        efficiency_without=spectral_efficiency_from_powers(
            comparison.power_without_dbm, noise),
        threshold_bps_hz=float(threshold_bps_hz),
    )


# ---------------------------------------------------------------------- #
# Fig. 23 — respiration sensing at low transmit power
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RespirationSensingResult:
    """Detection outcome with and without the metasurface."""

    true_rate_hz: float
    reading_with: RespirationReading
    reading_without: RespirationReading
    trace_swing_with_db: float
    trace_swing_without_db: float

    @property
    def surface_enables_detection(self) -> bool:
        """True when breathing is detected only with the surface present."""
        return self.reading_with.detected and not self.reading_without.detected


def _summary_fig23(payload, params) -> str:
    rows = [
        ["without surface",
         "yes" if payload.reading_without.detected else "no",
         payload.reading_without.peak_to_noise_db,
         payload.reading_without.estimated_rate_bpm or float("nan")],
        ["with surface",
         "yes" if payload.reading_with.detected else "no",
         payload.reading_with.peak_to_noise_db,
         payload.reading_with.estimated_rate_bpm or float("nan")],
    ]
    return format_table(
        ["configuration", "respiration detected", "peak/noise (dB)",
         "estimated rate (bpm)"],
        rows, precision=1,
        title="Fig. 23 - respiration sensing at low transmit power "
              f"(ground truth {payload.true_rate_hz * 60:.0f} bpm)")


def _check_fig23(payload, params) -> None:
    assert payload.surface_enables_detection
    assert abs(payload.reading_with.estimated_rate_hz -
               payload.true_rate_hz) < 0.05


@experiment(
    "fig23",
    title="Fig. 23 — respiration sensing at 5 mW with/without the surface",
    tags=("figure", "sensing"),
    params=(Param("tx_power_mw", "float", 5.0, "transmit power (mW)"),
            Param("duration_s", "float", 60.0, "capture duration (s)"),
            Param("seed", "int", 11, "noise seed")),
    scenarios=("respiration",),
    modules=("channel", "metasurface", "sensing"),
    smoke={"duration_s": 30.0},
    summarize=_summary_fig23, check=_check_fig23)
def _run_fig23(tx_power_mw: float, duration_s: float,
               seed: int) -> RespirationSensingResult:
    subject = BreathingSubject()
    tx_power_dbm = float(milliwatts_to_dbm(tx_power_mw))
    surface = llama_design().build()
    with_link = RespirationSensingLink(subject=subject, metasurface=surface,
                                       tx_power_dbm=tx_power_dbm, seed=seed)
    without_link = RespirationSensingLink(subject=subject, metasurface=None,
                                          tx_power_dbm=tx_power_dbm, seed=seed)
    trace_with = with_link.capture(duration_s=duration_s)
    trace_without = without_link.capture(duration_s=duration_s)
    detector = RespirationDetector()
    return RespirationSensingResult(
        true_rate_hz=subject.respiration_rate_hz,
        reading_with=detector.analyse(trace_with),
        reading_without=detector.analyse(trace_without),
        trace_swing_with_db=trace_with.peak_to_peak_db,
        trace_swing_without_db=trace_without.peak_to_peak_db,
    )


# ---------------------------------------------------------------------- #
# Sec. 7 / conclusion — dense-deployment scheduling and access control
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeploymentSchedulingResult:
    """One epoch of every scheduling strategy over one fleet.

    The Sec. 7 comparison the paper sketches as "polarization reuse":
    ``results`` maps each strategy of
    :data:`repro.api.fleet.SCHEDULE_STRATEGIES` to its
    :class:`~repro.network.scheduler.ScheduleResult`.
    """

    spec: "FleetSpec"
    epoch_duration_s: float
    results: Dict[str, "ScheduleResult"]

    def result_for(self, strategy: str) -> "ScheduleResult":
        """One strategy's schedule (raises ``KeyError`` when unknown)."""
        if strategy not in self.results:
            raise KeyError(f"no schedule for strategy {strategy!r}; ran "
                           f"{sorted(self.results)}")
        return self.results[strategy]

    @property
    def best_surface_strategy(self) -> str:
        """The surface-using strategy with the highest net throughput."""
        surface_strategies = [name for name in self.results
                              if name != "no-surface"]
        return max(surface_strategies,
                   key=lambda name: self.results[name].total_throughput_mbps)

    @property
    def reuse_throughput_gain_mbps(self) -> float:
        """Polarization reuse's net-throughput gain over no surface."""
        return (self.results["polarization-reuse"].total_throughput_mbps -
                self.results["no-surface"].total_throughput_mbps)

    @property
    def reuse_retune_savings(self) -> int:
        """Retunes saved per epoch by clustering vs per-station tuning."""
        return (self.results["per-station"].retune_count -
                self.results["polarization-reuse"].retune_count)

    def rows(self) -> List[List]:
        """Table rows (strategy, throughput, worst rate, fairness,
        retunes) in the benchmark's standard format."""
        return [
            [name, result.total_throughput_mbps,
             result.worst_station_rate_mbps, result.fairness,
             result.retune_count]
            for name, result in self.results.items()
        ]


def _scheduling_comparison(spec: "FleetSpec",
                           epoch_duration_s: float,
                           bias_search_step_v: float,
                           orientation_tolerance_deg: float
                           ) -> DeploymentSchedulingResult:
    from repro.api.fleet import FleetSession
    session = FleetSession(spec)
    return DeploymentSchedulingResult(
        spec=spec,
        epoch_duration_s=float(epoch_duration_s),
        results=session.schedule_all(
            epoch_duration_s=epoch_duration_s,
            bias_search_step_v=bias_search_step_v,
            orientation_tolerance_deg=orientation_tolerance_deg))


def _summary_sec7_scheduling(payload, params) -> str:
    table = format_table(
        ["strategy", "throughput (Mbit/s)", "worst rate (Mbit/s)",
         "fairness", "retunes"],
        payload.rows(), precision=2,
        title="Sec. 7 - one epoch of every scheduling strategy "
              f"({len(payload.spec.stations)} stations)")
    return (f"{table}\n\n"
            f"best surface strategy      : {payload.best_surface_strategy}\n"
            "reuse gain over no surface : "
            f"{payload.reuse_throughput_gain_mbps:.2f} Mbit/s\n"
            f"retunes saved by reuse     : {payload.reuse_retune_savings}")


def _check_sec7_scheduling(payload, params) -> None:
    from repro.api.fleet import SCHEDULE_STRATEGIES
    assert set(payload.results) == set(SCHEDULE_STRATEGIES)
    for result in payload.results.values():
        assert 0.0 <= result.fairness <= 1.0
    assert payload.reuse_throughput_gain_mbps > 0.0


@experiment(
    "sec7_scheduling",
    title="Sec. 7 — TDMA scheduling strategies over a dense fleet",
    tags=("table", "network"),
    params=(Param("station_count", "int", 8, "stations in the office fleet"),
            Param("seed", "int", 42, "fleet placement seed"),
            Param("epoch_duration_s", "float", 300.0, "epoch length (s)"),
            Param("bias_search_step_v", "float", 5.0,
                  "bias grid step of the utility search (V)"),
            Param("orientation_tolerance_deg", "float", 20.0,
                  "clustering tolerance for polarization reuse (deg)")),
    scenarios=("fleet",),
    axes=("tx_orientation",),
    modules=("api", "channel", "devices", "network"),
    smoke={"station_count": 4},
    summarize=_summary_sec7_scheduling, check=_check_sec7_scheduling)
def _run_sec7_scheduling(station_count: int, seed: int,
                         epoch_duration_s: float,
                         bias_search_step_v: float,
                         orientation_tolerance_deg: float
                         ) -> DeploymentSchedulingResult:
    from repro.api.fleet import FleetSpec
    spec = FleetSpec.office(station_count=station_count, seed=seed)
    return _scheduling_comparison(spec, epoch_duration_s,
                                  bias_search_step_v,
                                  orientation_tolerance_deg)


@dataclass(frozen=True)
class AccessIsolationResult:
    """Access-control isolation achieved for every ordered station pair."""

    spec: "FleetSpec"
    pairs: Tuple[Tuple[str, str], ...]
    isolation_db: Tuple[float, ...]
    improvement_db: Tuple[float, ...]

    @property
    def best_pair(self) -> Tuple[str, str]:
        """The station pair the surface isolates best."""
        return self.pairs[int(np.argmax(self.isolation_db))]

    @property
    def max_isolation_db(self) -> float:
        """Best intended-over-unauthorised power margin achieved."""
        return float(max(self.isolation_db))

    @property
    def mean_improvement_db(self) -> float:
        """Mean isolation improvement over the no-surface baseline."""
        return float(np.mean(self.improvement_db))


def _access_isolation(spec: "FleetSpec", step_v: float) -> AccessIsolationResult:
    from repro.api.fleet import FleetSession
    session = FleetSession(spec)
    levels = np.arange(0.0, 30.0 + 0.5 * step_v, step_v)
    vx_grid, vy_grid = np.meshgrid(levels, levels, indexing="ij")
    rssi = session.measure_grid(vx_grid.ravel(), vy_grid.ravel())
    baseline = session.baseline_rssi_dbm()
    pairs: List[Tuple[str, str]] = []
    isolation: List[float] = []
    improvement: List[float] = []
    for i, intended in enumerate(session.station_names):
        for j, unauthorized in enumerate(session.station_names):
            if i == j:
                continue
            margin = rssi[i] - rssi[j]
            best = float(margin[int(np.argmax(margin))])
            pairs.append((intended, unauthorized))
            isolation.append(best)
            improvement.append(best - float(baseline[i] - baseline[j]))
    return AccessIsolationResult(
        spec=spec, pairs=tuple(pairs), isolation_db=tuple(isolation),
        improvement_db=tuple(improvement))


def _summary_sec7_access(payload, params) -> str:
    rows = [[f"{intended} -> {unauthorized}", isolation, improvement]
            for (intended, unauthorized), isolation, improvement in zip(
                payload.pairs, payload.isolation_db, payload.improvement_db)]
    table = format_table(
        ["pair (intended -> unauthorised)", "isolation (dB)",
         "improvement (dB)"],
        rows, precision=1,
        title="Sec. 7 - polarization access control over station pairs")
    best = payload.best_pair
    return (f"{table}\n\n"
            f"best isolated pair : {best[0]} -> {best[1]} "
            f"({payload.max_isolation_db:.1f} dB)\n"
            "mean improvement   : "
            f"{payload.mean_improvement_db:.1f} dB over no surface")


def _check_sec7_access(payload, params) -> None:
    station_count = len(payload.spec.stations)
    assert len(payload.pairs) == station_count * (station_count - 1)
    assert payload.max_isolation_db > 0.0
    assert payload.mean_improvement_db > 0.0


@experiment(
    "sec7_access",
    title="Sec. 7 — polarization access control over every station pair",
    tags=("table", "network"),
    params=(Param("station_count", "int", 4, "stations in the office fleet"),
            Param("seed", "int", 42, "fleet placement seed"),
            Param("step_v", "float", 5.0, "bias grid step (V)")),
    scenarios=("fleet",),
    axes=("tx_orientation",),
    modules=("api", "channel", "network"),
    smoke={"station_count": 3, "step_v": 7.5},
    summarize=_summary_sec7_access, check=_check_sec7_access)
def _run_sec7_access(station_count: int, seed: int,
                     step_v: float) -> AccessIsolationResult:
    from repro.api.fleet import FleetSpec
    spec = FleetSpec.office(station_count=station_count, seed=seed)
    return _access_isolation(spec, step_v)


__all__ = [
    "TABLE1_VOLTAGES_V",
    "TRANSMISSIVE_DISTANCES_CM",
    "REFLECTIVE_DISTANCES_CM",
    "FIG17_FREQUENCIES_HZ",
    "FIG18_19_TX_POWERS_MW",
    "GAIN_SURFACE_FREQUENCIES_HZ",
    "GAIN_SURFACE_DISTANCES_M",
    "COVERAGE_MAP_TX_POWERS_DBM",
    "COVERAGE_MAP_DISTANCES_M",
    "MismatchImpactResult",
    "EfficiencyCurve",
    "VoltageEfficiencyResult",
    "RotationTableResult",
    "RotationEstimationResult",
    "HeatmapResult",
    "Figure15Result",
    "GainVsDistanceResult",
    "FrequencySweepResult",
    "CapacityVsPowerResult",
    "IoTDeviceResult",
    "ReflectiveGainResult",
    "GainSurfaceResult",
    "CoverageMapResult",
    "RespirationSensingResult",
    "DeploymentSchedulingResult",
    "AccessIsolationResult",
]
