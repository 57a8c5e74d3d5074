"""Tests for the assembled metasurface."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jones import JonesMatrix, JonesVector
from repro.units import linear_to_db
from repro.metasurface.design import (
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
)
from repro.metasurface.surface import Metasurface, PassivityError, SurfaceMode

voltages = st.floats(min_value=0.0, max_value=30.0)


@pytest.fixture(scope="module")
def ideal_surface():
    """The idealised (simulation) structure used for Table 1 / Figs. 8-11."""
    return llama_design().build(prototype=False)


@pytest.fixture(scope="module")
def prototype_surface():
    """The fabricated prototype with bias derating."""
    return llama_design().build(prototype=True)


class TestTransmissionEfficiency:
    def test_in_band_efficiency_above_minus_5db(self, ideal_surface):
        """Paper Fig. 10/11: the optimized FR4 design stays above about
        -5 dB across the 2.4-2.5 GHz ISM band."""
        for frequency in np.linspace(2.40e9, 2.50e9, 11):
            for excitation in ("x", "y"):
                efficiency = ideal_surface.transmission_efficiency_db(
                    frequency, 8.0, 8.0, excitation)
                assert efficiency > -5.5

    def test_efficiency_rolls_off_out_of_band(self, ideal_surface):
        in_band = ideal_surface.transmission_efficiency_db(2.44e9, 8.0, 8.0)
        out_band = ideal_surface.transmission_efficiency_db(2.0e9, 8.0, 8.0)
        assert in_band - out_band > 8.0

    def test_efficiency_bounded_by_unity(self, ideal_surface):
        assert ideal_surface.transmission_efficiency(2.44e9, 8.0, 8.0) <= 1.0

    def test_x_and_y_curves_differ_slightly(self, ideal_surface):
        x_curve = ideal_surface.transmission_efficiency_db(2.50e9, 8.0, 8.0, "x")
        y_curve = ideal_surface.transmission_efficiency_db(2.50e9, 8.0, 8.0, "y")
        assert x_curve != pytest.approx(y_curve, abs=1e-6)

    def test_excitation_validation(self, ideal_surface):
        with pytest.raises(ValueError):
            ideal_surface.transmission_efficiency(2.44e9, 8.0, 8.0, "circular")

    def test_voltage_validation(self, ideal_surface):
        with pytest.raises(ValueError):
            ideal_surface.transmission_efficiency(2.44e9, -1.0, 8.0)
        with pytest.raises(ValueError):
            ideal_surface.transmission_efficiency(2.44e9, 8.0, 31.0)

    @given(voltages, voltages)
    @settings(max_examples=30)
    def test_surface_is_passive(self, vx, vy):
        surface = llama_design().build(prototype=False)
        for excitation in ("x", "y"):
            assert surface.transmission_efficiency(
                2.44e9, vx, vy, excitation) <= 1.0 + 1e-9


class TestRotation:
    def test_rotation_range_matches_table1(self, ideal_surface):
        """Paper Table 1: rotation between 1.9 and 48.7 degrees over the
        2-15 V simulated range."""
        low, high = ideal_surface.rotation_range_deg(2.44e9)
        assert 0.5 <= low <= 6.0
        assert 40.0 <= high <= 60.0

    def test_rotation_is_half_differential_phase(self, ideal_surface):
        delta = ideal_surface.birefringent.differential_phase_rad(
            2.44e9, 15.0, 2.0)
        assert ideal_surface.rotation_angle_deg(2.44e9, 15.0, 2.0) == \
            pytest.approx(math.degrees(delta) / 2.0)

    def test_equal_voltages_give_small_rotation(self, ideal_surface):
        assert abs(ideal_surface.rotation_angle_deg(2.44e9, 8.0, 8.0)) < 10.0

    def test_rotation_realised_on_transmitted_wave(self, ideal_surface):
        """The Jones matrix actually rotates an incident linear wave by the
        reported angle."""
        rotation = ideal_surface.rotation_angle_deg(2.44e9, 15.0, 2.0)
        incident = JonesVector.horizontal()
        transmitted = ideal_surface.jones_matrix(2.44e9, 15.0, 2.0).apply(incident)
        orientation = transmitted.orientation_deg
        difference = min(abs(orientation - abs(rotation)),
                         abs(orientation - (180.0 - abs(rotation))))
        assert difference < 3.0

    def test_prototype_rotation_over_full_sweep_matches_measured_range(
            self, prototype_surface):
        """Paper Sec. 5.1.1: the prototype rotates 3-45 degrees over its
        0-30 V terminal sweep."""
        low, high = prototype_surface.rotation_range_deg(
            2.44e9, voltage_low_v=0.0, voltage_high_v=30.0)
        assert high == pytest.approx(50.0, abs=10.0)
        assert low < 10.0

    def test_prototype_derating_reduces_2_15v_range(self, ideal_surface,
                                                    prototype_surface):
        ideal_high = ideal_surface.rotation_range_deg(2.44e9)[1]
        prototype_high = prototype_surface.rotation_range_deg(2.44e9)[1]
        assert prototype_high < ideal_high


class TestReflectiveMode:
    def test_reflection_efficiency_bounded(self, prototype_surface):
        assert 0.0 <= prototype_surface.reflection_efficiency(
            2.44e9, 30.0, 0.0) <= 1.0

    def test_reflection_couples_into_orthogonal_polarization(self, ideal_surface):
        """At large differential phase the double traversal converts an
        x-polarized wave substantially into y — the mechanism behind the
        reflective gain of Fig. 22."""
        jones = ideal_surface.reflection_jones_matrix(2.44e9, 15.0, 2.0)
        reflected = jones.apply(JonesVector.horizontal())
        cross_fraction = abs(reflected.y) ** 2 / reflected.intensity
        assert cross_fraction > 0.3

    def test_reflection_voltage_sensitivity_smaller_than_transmissive(
            self, ideal_surface):
        """Paper Sec. 5.2.1: the power spread across the voltage sweep is
        smaller in reflection than in transmission."""
        rx = JonesVector.vertical()
        def coupling(jones):
            out = jones.apply(JonesVector.horizontal())
            return max(out.projection_power(rx), 1e-6)

        voltages = [(2.0, 2.0), (8.0, 8.0), (15.0, 2.0), (2.0, 15.0), (15.0, 15.0)]
        transmissive = [coupling(ideal_surface.jones_matrix(2.44e9, vx, vy))
                        for vx, vy in voltages]
        reflective = [coupling(ideal_surface.reflection_jones_matrix(2.44e9, vx, vy))
                      for vx, vy in voltages]
        def spread(values):
            return float(linear_to_db(max(values) / min(values)))

        assert spread(reflective) < spread(transmissive)

    def test_response_mode_dispatch(self, prototype_surface):
        transmissive = prototype_surface.response(2.44e9, 30.0, 0.0,
                                                  SurfaceMode.TRANSMISSIVE)
        reflective = prototype_surface.response(2.44e9, 30.0, 0.0,
                                                SurfaceMode.REFLECTIVE)
        assert transmissive.efficiency_x != pytest.approx(reflective.efficiency_x)
        assert transmissive.efficiency_x_db <= 0.0
        assert reflective.efficiency_y_db <= 0.0


class TestBookkeeping:
    def test_area(self, prototype_surface):
        assert prototype_surface.area_m2 == pytest.approx(0.48 ** 2)

    def test_standby_power_is_sub_microwatt(self, prototype_surface):
        """Paper: 15 nA leakage means the surface runs off a buffer cap."""
        assert prototype_surface.standby_power_w(30.0) < 1e-6

    def test_standby_power_validation(self, prototype_surface):
        with pytest.raises(ValueError):
            prototype_surface.standby_power_w(-1.0)

    def test_bandpass_loss_validation(self, prototype_surface):
        with pytest.raises(ValueError):
            prototype_surface.bandpass_loss_db(0.0)
        with pytest.raises(ValueError):
            prototype_surface.bandpass_loss_db(2.44e9, axis="z")

    def test_construction_validation(self, prototype_surface):
        with pytest.raises(ValueError):
            replace(prototype_surface, selectivity_q=0.0)
        with pytest.raises(ValueError):
            replace(prototype_surface, unit_count=0)
        with pytest.raises(ValueError):
            replace(prototype_surface, reflective_conversion_fraction=1.5)
        with pytest.raises(ValueError):
            replace(prototype_surface, bias_derating=(15.0, 2.0))


class TestFrequencyFlatQwpMatrices:
    """The QWP matrices are hoisted out of the per-call cascade."""

    @staticmethod
    def _cascade_rebuilding_qwps(surface, frequency_hz, vx, vy):
        """The cascade with both QWP matrices rebuilt on this call."""
        front = surface.front_qwp.jones_matrix(
            surface.design_frequency_hz).as_array()
        back = surface.back_qwp.jones_matrix(
            surface.design_frequency_hz).as_array()
        vx, vy = surface._effective_voltages(np.asarray(vx, dtype=float),
                                             np.asarray(vy, dtype=float))
        dx, dy = surface.birefringent.diagonal_batch(
            np.asarray(frequency_hz, dtype=float), vx, vy)
        diagonal = np.stack(np.broadcast_arrays(dx, dy), axis=-1)
        cascade = (front * diagonal[..., None, :]) @ back
        amp_x, amp_y = surface._bandpass_amplitudes(
            np.asarray(frequency_hz, dtype=float))
        bandpass = np.stack(np.broadcast_arrays(amp_x, amp_y), axis=-1)
        return cascade * bandpass[..., None, :]

    @pytest.mark.parametrize("prototype", [False, True])
    def test_batch_is_bit_identical_to_rebuilding_the_qwps(self, prototype):
        surface = llama_design().build(prototype=prototype)
        frequency = np.array([[2.40e9], [2.44e9], [2.50e9]])
        vx = np.linspace(0.0, 30.0, 7)
        vy = np.linspace(30.0, 0.0, 7)
        for _ in range(2):  # first call fills the cache, second reuses it
            np.testing.assert_array_equal(
                surface.jones_matrix_batch(frequency, vx, vy),
                self._cascade_rebuilding_qwps(surface, frequency, vx, vy))

    def test_matrices_are_computed_once_and_read_only(self, ideal_surface):
        front, back = ideal_surface._qwp_matrices
        assert ideal_surface._qwp_matrices[0] is front
        assert not front.flags.writeable and not back.flags.writeable
        with pytest.raises(ValueError):
            front[0, 0] = 0.0

    def test_replaced_surface_gets_its_own_matrices(self, ideal_surface):
        ideal_surface.jones_matrix_batch(2.44e9, 5.0, 5.0)
        flipped = replace(ideal_surface, front_qwp=ideal_surface.back_qwp)
        np.testing.assert_array_equal(flipped._qwp_matrices[0],
                                      ideal_surface._qwp_matrices[1])


class TestPassivity:
    """A passive stack never delivers more power than it receives."""

    FREQUENCY = np.linspace(2.0e9, 2.8e9, 17)[:, None, None]
    VOLTAGES = np.linspace(0.0, 30.0, 16)

    @pytest.mark.parametrize("design", [llama_design, rogers_reference_design,
                                        fr4_naive_design])
    @pytest.mark.parametrize("prototype", [False, True])
    @pytest.mark.parametrize("mode", list(SurfaceMode))
    def test_largest_singular_value_at_most_one(self, design, prototype,
                                                mode):
        surface = design().build(prototype=prototype)
        batch = (surface.jones_matrix_batch
                 if mode is SurfaceMode.TRANSMISSIVE
                 else surface.reflection_jones_matrix_batch)
        jones = batch(self.FREQUENCY, self.VOLTAGES[:, None], self.VOLTAGES)
        assert jones.shape == (17, 16, 16, 2, 2)
        sigma_max = np.linalg.svd(jones, compute_uv=False)[..., 0]
        assert np.all(sigma_max <= 1.0)
        assert 0.0 < np.min(sigma_max)

    def test_llama_peak_gain_well_inside_the_bound(self, ideal_surface):
        jones = ideal_surface.jones_matrix_batch(
            self.FREQUENCY, self.VOLTAGES[:, None], self.VOLTAGES)
        sigma_max = np.linalg.svd(jones, compute_uv=False)[..., 0]
        assert 0.7 < np.max(sigma_max) < 0.8

    @pytest.mark.parametrize("method", ["transmission_efficiency",
                                        "reflection_efficiency"])
    def test_gain_raises_instead_of_clamping(self, monkeypatch,
                                             prototype_surface, method):
        amplifying = JonesMatrix(1.5 * np.eye(2, dtype=complex))
        monkeypatch.setattr(Metasurface, "jones_matrix",
                            lambda self, f, vx, vy: amplifying)
        monkeypatch.setattr(Metasurface, "reflection_jones_matrix",
                            lambda self, f, vx, vy: amplifying)
        with pytest.raises(PassivityError, match="not passive"):
            getattr(prototype_surface, method)(2.44e9, 5.0, 5.0, "y")

    def test_efficiency_is_the_unclamped_intensity(self, prototype_surface):
        jones = prototype_surface.jones_matrix(2.44e9, 7.0, 22.0)
        expected = jones.apply(JonesVector.horizontal()).intensity
        assert prototype_surface.transmission_efficiency(
            2.44e9, 7.0, 22.0, "x") == expected
