"""Tests for the LinkSession facade and the fluent ScenarioBuilder."""

import itertools

import numpy as np
import pytest

from repro.api import LinkSession, ProbeGrid, ScenarioBuilder
from repro.channel.link import DeploymentMode
from repro.core.controller import VoltageSweepConfig
from repro.experiments.scenarios import TransmissiveScenario


@pytest.fixture()
def mismatched_session():
    return (ScenarioBuilder()
            .with_antennas("directional", rx_orientation_deg=90.0)
            .transmissive(0.42)
            .with_environment("anechoic")
            .with_surface()
            .with_sweep_config(VoltageSweepConfig(iterations=2,
                                                  switches_per_axis=5))
            .session())


class TestScenarioBuilder:
    def test_builder_matches_handwritten_scenario(self):
        built = (ScenarioBuilder()
                 .with_antennas("directional", rx_orientation_deg=90.0)
                 .transmissive(0.42)
                 .with_environment("anechoic", seed=2021)
                 .with_surface(TransmissiveScenario().metasurface)
                 .build())
        reference = TransmissiveScenario().configuration()
        assert built.geometry == reference.geometry
        assert built.deployment is reference.deployment
        assert built.tx_antenna == reference.tx_antenna
        assert built.rx_antenna == reference.rx_antenna

    def test_builder_is_immutable(self):
        base = ScenarioBuilder().with_antennas("omni")
        near = base.transmissive(0.3)
        far = base.transmissive(3.0)
        assert near.geometry.direct_distance_m != far.geometry.direct_distance_m
        assert base.geometry is None

    def test_with_surface_defaults_to_transmissive(self):
        config = (ScenarioBuilder().with_antennas("dipole")
                  .transmissive(1.0).with_surface().build())
        assert config.deployment is DeploymentMode.TRANSMISSIVE
        assert config.metasurface is not None

    def test_reflective_sets_aiming(self):
        config = (ScenarioBuilder().with_antennas("directional")
                  .reflective(0.7, 0.42).with_surface().build())
        assert config.deployment is DeploymentMode.REFLECTIVE
        assert config.aim_at_surface

    def test_direct_builds_baseline(self):
        config = (ScenarioBuilder().with_antennas("omni").direct(2.0).build())
        assert config.deployment is DeploymentMode.NONE
        assert config.metasurface is None

    def test_device_preset_sets_radio_parameters(self):
        config = (ScenarioBuilder().for_device("wifi")
                  .transmissive(3.0).with_surface().build())
        assert config.bandwidth_hz == pytest.approx(20e6)
        assert config.tx_power_dbm == pytest.approx(14.0)

    def test_antenna_instance_keeps_its_orientation(self):
        from repro.channel.antenna import directional_antenna
        config = (ScenarioBuilder()
                  .with_antennas(directional_antenna(orientation_deg=45.0))
                  .transmissive(0.4).build())
        assert config.tx_antenna.orientation_deg == 45.0
        # An explicit orientation still re-orients the instance.
        config = (ScenarioBuilder()
                  .with_antennas(directional_antenna(orientation_deg=45.0),
                                 tx_orientation_deg=10.0)
                  .transmissive(0.4).build())
        assert config.tx_antenna.orientation_deg == 10.0

    def test_matched_aligns_polarizations(self):
        config = (ScenarioBuilder()
                  .with_antennas("dipole", rx_orientation_deg=90.0)
                  .matched().transmissive(1.0).build())
        assert config.rx_antenna.orientation_deg == config.tx_antenna.orientation_deg

    def test_missing_pieces_raise(self):
        with pytest.raises(ValueError):
            ScenarioBuilder().transmissive(1.0).build()
        with pytest.raises(ValueError):
            ScenarioBuilder().with_antennas("omni").build()
        with pytest.raises(ValueError):
            ScenarioBuilder().with_antennas(kind="bogus")
        with pytest.raises(ValueError):
            ScenarioBuilder().with_environment("bogus")
        with pytest.raises(ValueError):
            ScenarioBuilder().for_device("bogus")


class TestLinkSession:
    def test_optimize_parks_hardware_at_best_pair(self, mismatched_session):
        result = mismatched_session.optimize()
        assert mismatched_session.supply.bias_pair() == (result.best_vx,
                                                         result.best_vy)
        assert mismatched_session.rotator.bias_voltages == (result.best_vx,
                                                            result.best_vy)

    def test_optimized_beats_baseline(self, mismatched_session):
        result = mismatched_session.optimize()
        gain = (mismatched_session.measure(result.best_vx, result.best_vy) -
                mismatched_session.baseline_power_dbm())
        assert gain > 5.0

    def test_baseline_session_cached_and_surface_free(self, mismatched_session):
        baseline = mismatched_session.baseline()
        assert baseline is mismatched_session.baseline()
        assert not baseline.has_surface
        assert baseline.baseline() is baseline

    def test_measure_grid_matches_scalar_probes(self, mismatched_session):
        levels = np.arange(0.0, 31.0, 10.0)
        powers = mismatched_session.measure_grid(
            ProbeGrid.product(vx=levels, vy=levels))
        assert powers.shape == (4, 4)
        for (i, vx), (j, vy) in itertools.product(enumerate(levels),
                                                  repeat=2):
            assert powers[i, j] == pytest.approx(
                mismatched_session.measure(vx, vy), abs=1e-9)

    def test_with_rx_orientation_cached(self, mismatched_session):
        rotated = mismatched_session.with_rx_orientation(30.0)
        assert rotated is mismatched_session.with_rx_orientation(30.0)
        assert rotated.configuration.rx_antenna.orientation_deg == 30.0

    def test_estimate_rotation_physical_range(self, mismatched_session):
        estimate = mismatched_session.estimate_rotation(
            orientation_step_deg=6.0)
        assert 0.0 <= estimate.min_rotation_deg <= estimate.max_rotation_deg <= 90.0

    def test_baseline_session_has_no_hardware(self, mismatched_session):
        baseline = mismatched_session.baseline()
        assert baseline.supply is None and baseline.rotator is None
        # apply() is a no-op pass-through without hardware.
        assert baseline.apply(3.0, 4.0) == (3.0, 4.0)

    def test_session_adopts_existing_link(self):
        link = TransmissiveScenario().link()
        session = LinkSession(link)
        assert session.link is link
        assert session.has_surface

    def test_full_sweep_probe_count(self, mismatched_session):
        sweep = mismatched_session.full_sweep(step_v=10.0)
        assert sweep.probe_count == 16

    def test_evaluate_and_noise(self, mismatched_session):
        report = mismatched_session.evaluate(10.0, 20.0)
        assert report.snr_db == pytest.approx(
            report.received_power_dbm - mismatched_session.noise_power_dbm())
