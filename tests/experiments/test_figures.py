"""Tests for the per-figure experiment runners.

These tests assert the *shape* of every reproduced result: who wins, by
roughly what factor, and where the qualitative transitions happen —
mirroring the claims of the paper's evaluation without pinning exact dBm
values that depend on the authors' hardware.
"""

import numpy as np
import pytest

from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def material_curves():
    return run_experiment("fig08_10", frequency_count=41).payload


@pytest.fixture(scope="module")
def rotation_table():
    return run_experiment("table1").payload


class TestFigure2MismatchImpact:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig02", sample_count=60).payload

    def test_wifi_penalty_close_to_10db(self, result):
        assert 6.0 <= result["wifi"].mismatch_penalty_db <= 16.0

    def test_ble_penalty_close_to_10db(self, result):
        assert 6.0 <= result["ble"].mismatch_penalty_db <= 16.0

    def test_distributions_are_separated(self, result):
        wifi = result["wifi"]
        assert min(wifi.matched_rssi_dbm) > max(wifi.mismatched_rssi_dbm) - 2.0

    def test_sample_counts(self, result):
        assert len(result["wifi"].matched_rssi_dbm) == 60
        assert len(result["ble"].mismatched_rssi_dbm) == 60


class TestFigures8To10:
    def test_rogers_high_efficiency_in_band(self, material_curves):
        assert material_curves["fig8_rogers"].in_band_minimum_db() > -4.0

    def test_naive_fr4_collapses(self, material_curves):
        assert material_curves["fig9_fr4_naive"].in_band_minimum_db() < -9.0

    def test_optimized_fr4_recovers(self, material_curves):
        optimized = material_curves["fig10_fr4_optimized"].in_band_minimum_db()
        assert optimized > -5.5

    def test_optimized_bandwidth_above_100mhz(self, material_curves):
        """Paper: 150 MHz of > -5 dB bandwidth, wider than the ISM band."""
        bandwidth = material_curves["fig10_fr4_optimized"].bandwidth_above_hz(-5.0)
        assert bandwidth >= 100e6

    def test_ordering_of_the_three_designs(self, material_curves):
        rogers = material_curves["fig8_rogers"].in_band_minimum_db()
        optimized = material_curves["fig10_fr4_optimized"].in_band_minimum_db()
        naive = material_curves["fig9_fr4_naive"].in_band_minimum_db()
        assert rogers >= optimized > naive

    def test_curves_cover_requested_band(self, material_curves):
        curve = material_curves["fig8_rogers"]
        assert min(curve.frequencies_hz) == pytest.approx(2.0e9)
        assert max(curve.frequencies_hz) == pytest.approx(2.8e9)

    def test_in_band_minimum_requires_points(self, material_curves):
        with pytest.raises(ValueError):
            material_curves["fig8_rogers"].in_band_minimum_db(5e9, 6e9)


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig11", frequency_count=21).payload

    def test_every_bias_setting_has_a_curve(self, result):
        assert set(result.curves_db) == {2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0}

    def test_in_band_efficiency_above_minus_8db(self, result):
        """Paper Fig. 11: efficiencies stay above -8 dB in 2.4-2.5 GHz."""
        assert result.worst_in_band_db() > -8.0

    def test_voltage_changes_the_curves(self, result):
        low = np.array(result.curves_db[2.0])
        high = np.array(result.curves_db[15.0])
        assert not np.allclose(low, high)


class TestTable1:
    def test_rotation_range_matches_paper(self, rotation_table):
        """Paper Table 1: 1.9 to 48.7 degrees."""
        assert rotation_table.minimum_deg < 6.0
        assert 40.0 <= rotation_table.maximum_deg <= 62.0

    def test_table_is_complete(self, rotation_table):
        assert len(rotation_table.rotation_deg) == 49

    def test_extreme_corner_is_the_maximum(self, rotation_table):
        corner = max(rotation_table.rotation_deg[(15.0, 2.0)],
                     rotation_table.rotation_deg[(2.0, 15.0)])
        assert corner == pytest.approx(rotation_table.maximum_deg)

    def test_rotation_grows_with_voltage_asymmetry(self, rotation_table):
        symmetric = rotation_table.rotation_deg[(5.0, 5.0)]
        asymmetric = rotation_table.rotation_deg[(15.0, 2.0)]
        assert asymmetric > symmetric

    def test_row_accessor(self, rotation_table):
        row = rotation_table.row(2.0)
        assert len(row) == 7
        assert max(row) <= rotation_table.maximum_deg


class TestFigure12:
    def test_estimation_within_achievable_range(self):
        result = run_experiment("fig12").payload
        assert 0.0 <= result.min_rotation_deg <= result.max_rotation_deg
        assert result.max_rotation_deg <= 60.0

    def test_power_slope_is_negative(self):
        """Fig. 12a: linear received power falls as the mismatch grows."""
        result = run_experiment("fig12").payload
        assert result.power_slope_sign < 0.0


class TestFigure15:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig15", distance_cm=(24, 42, 60),
                              voltage_step_v=7.5).payload

    def test_one_heatmap_per_distance(self, result):
        assert len(result.heatmaps) == 3

    def test_power_varies_significantly_with_voltage(self, result):
        """Fig. 15a-g: the bias pair changes received power by >10 dB."""
        for heatmap in result.heatmaps:
            assert heatmap.dynamic_range_db > 10.0

    def test_power_decreases_with_distance_at_best_point(self, result):
        best_powers = [heatmap.best_point[2] for heatmap in result.heatmaps]
        assert best_powers[0] > best_powers[-1]

    def test_rotation_range_matches_paper_3_to_45(self, result):
        """Fig. 15h: the surface rotates polarization over ~3-45 degrees."""
        for low, high in result.rotation_ranges_deg.values():
            assert low < 10.0
            assert 35.0 <= high <= 60.0

    def test_heatmap_lookup(self, result):
        assert result.heatmap_for(42).distance_cm == 42.0
        with pytest.raises(KeyError):
            result.heatmap_for(99)


class TestFigure16:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig16", distance_cm=(24, 42, 60)).payload

    def test_improvement_at_every_distance(self, result):
        assert all(gain > 8.0 for gain in result.gains_db)

    def test_max_gain_matches_paper_15db(self, result):
        """Paper: up to 15 dBm transmissive improvement."""
        assert 12.0 <= result.max_gain_db <= 22.0

    def test_range_extension_factor(self, result):
        """Paper: the 15 dB gain implies ~5.6x range extension."""
        assert result.range_extension_factor > 4.0

    def test_power_decays_with_distance(self, result):
        assert result.power_with_dbm[0] > result.power_with_dbm[-1]


class TestFigure17:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig17", frequency_hz=tuple(
            np.arange(2.40e9, 2.501e9, 0.025e9))).payload

    def test_improvement_everywhere_in_band(self, result):
        """Paper: >10 dB improvement across the whole ISM band."""
        assert result.min_gain_db > 8.0

    def test_sweep_covers_band(self, result):
        assert min(result.frequencies_hz) == pytest.approx(2.40e9)
        assert max(result.frequencies_hz) >= 2.49e9


class TestFigures18And19:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "fig18_19", tx_power_mw=(0.002, 0.2, 2.0, 200.0)).payload

    def test_four_series_produced(self, result):
        assert set(result) == {"fig18a_omni_clean", "fig18b_directional_clean",
                               "fig19a_omni_multipath",
                               "fig19b_directional_multipath"}

    def test_clean_chamber_surface_helps_at_all_powers(self, result):
        """Fig. 18: with absorber the surface helps from 0.002 mW up."""
        for key in ("fig18a_omni_clean", "fig18b_directional_clean"):
            assert all(improvement > 1.0
                       for improvement in result[key].improvements)

    def test_multipath_omni_degrades_at_low_power(self, result):
        """Fig. 19a: with omni antennas in multipath the benefit collapses
        at low transmit power (paper: below ~2 mW)."""
        series = result["fig19a_omni_multipath"]
        low_power_improvement = series.improvements[0]
        high_power_improvement = series.improvements[-1]
        assert low_power_improvement < 1.0
        assert high_power_improvement > 2.0

    def test_directional_more_robust_than_omni_in_multipath(self, result):
        omni = result["fig19a_omni_multipath"].improvements
        directional = result["fig19b_directional_multipath"].improvements
        assert sum(directional) > sum(omni)

    def test_capacity_increases_with_tx_power(self, result):
        series = result["fig18b_directional_clean"]
        assert series.efficiency_with[-1] > series.efficiency_with[0]


class TestFigure20:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig20", sample_count=60).payload

    def test_improvement_close_to_10db(self, result):
        """Paper: ~10 dBm improvement for the ESP8266 link."""
        assert 5.0 <= result.improvement_db <= 18.0

    def test_throughput_unlocked(self, result):
        assert result.throughput_improvement_mbps >= 0.0

    def test_bias_pair_recorded(self, result):
        vx, vy = result.optimal_bias_v
        assert 0.0 <= vx <= 30.0
        assert 0.0 <= vy <= 30.0


class TestFigures21And22:
    @pytest.fixture(scope="class")
    def heatmaps(self):
        return run_experiment("fig21", distance_cm=(24, 42, 66),
                              voltage_step_v=7.5).payload

    @pytest.fixture(scope="class")
    def gains(self):
        return run_experiment("fig22", distance_cm=(24, 42, 66)).payload

    def test_one_heatmap_per_distance(self, heatmaps):
        assert len(heatmaps) == 3

    def test_reflective_voltage_sensitivity_present_but_modest(self, heatmaps):
        """Fig. 21: power still varies with the bias pair in reflection."""
        for heatmap in heatmaps:
            assert heatmap.dynamic_range_db > 1.0

    def test_reflective_improvement_matches_paper_scale(self, gains):
        """Paper: up to ~17 dBm reflective improvement."""
        assert gains.max_gain_db > 10.0

    def test_capacity_improvement_positive(self, gains):
        assert gains.max_capacity_improvement > 0.5

    def test_with_surface_beats_baseline_at_every_distance(self, gains):
        assert all(gain > 0.0 for gain in gains.gains_db)


class TestFigure23:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig23").payload

    def test_surface_enables_detection(self, result):
        """Fig. 23: breathing detectable only with the metasurface at 5 mW."""
        assert result.surface_enables_detection

    def test_estimated_rate_close_to_truth(self, result):
        assert result.reading_with.estimated_rate_hz == pytest.approx(
            result.true_rate_hz, abs=0.05)

    def test_detection_margin_larger_with_surface(self, result):
        assert (result.reading_with.peak_to_noise_db >
                result.reading_without.peak_to_noise_db + 3.0)


class TestDeploymentRunners:
    @pytest.fixture(scope="class")
    def scheduling(self):
        return run_experiment(
            "sec7_scheduling", station_count=4, seed=42,
            epoch_duration_s=300.0, bias_search_step_v=7.5).payload

    def test_scheduling_covers_every_strategy(self, scheduling):
        from repro.api import SCHEDULE_STRATEGIES
        assert set(scheduling.results) == set(SCHEDULE_STRATEGIES)
        assert all(len(result.allocations) == 4
                   for result in scheduling.results.values())

    def test_scheduling_rows_match_results(self, scheduling):
        rows = scheduling.rows()
        assert len(rows) == len(scheduling.results)
        for name, throughput, _worst, _fairness, retunes in rows:
            result = scheduling.result_for(name)
            assert throughput == result.total_throughput_mbps
            assert retunes == result.retune_count

    def test_reuse_saves_retunes(self, scheduling):
        assert scheduling.reuse_retune_savings > 0
        assert scheduling.best_surface_strategy != "no-surface"

    def test_result_for_miss_raises(self, scheduling):
        with pytest.raises(KeyError):
            scheduling.result_for("round-robin")

    def test_access_isolation_covers_every_ordered_pair(self):
        result = run_experiment("sec7_access", station_count=3, seed=42,
                                step_v=10.0).payload
        assert len(result.pairs) == 3 * 2
        assert result.best_pair in result.pairs
        assert result.max_isolation_db == max(result.isolation_db)
        assert np.isfinite(result.mean_improvement_db)

    def test_access_isolation_matches_pairwise_access_control(self):
        from repro.api import FleetSession, FleetSpec
        from repro.network.access_control import polarization_access_control
        spec = FleetSpec.office(station_count=3, seed=42)
        result = run_experiment("sec7_access", station_count=3, seed=42,
                                step_v=10.0).payload
        deployment = FleetSession(spec).deployment
        for pair, isolation, improvement in zip(
                result.pairs, result.isolation_db, result.improvement_db):
            direct = polarization_access_control(deployment, *pair,
                                                 step_v=10.0)
            assert isolation == pytest.approx(direct.isolation_db, abs=1e-9)
            assert improvement == pytest.approx(
                direct.isolation_improvement_db, abs=1e-9)
