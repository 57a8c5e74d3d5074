"""Tests for QWP and birefringent layers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metasurface.design import llama_design, rogers_reference_design
from repro.metasurface.layers import BirefringentLayer, QuarterWavePlateLayer
from repro.metasurface.materials import FR4, ROGERS_5880
from repro.metasurface.phase_shifter import PhaseShifterLayer
from repro.units import db_to_amplitude


@pytest.fixture()
def qwp():
    return QuarterWavePlateLayer()


@pytest.fixture()
def bfs():
    return BirefringentLayer.symmetric(PhaseShifterLayer(), layers_per_axis=2)


class TestQuarterWavePlateLayer:
    def test_insertion_loss_positive_on_fr4(self, qwp):
        assert qwp.dielectric_insertion_loss_db > 0.0

    def test_rogers_qwp_nearly_lossless(self):
        rogers = QuarterWavePlateLayer(substrate=ROGERS_5880)
        assert rogers.dielectric_insertion_loss_db < 0.2

    def test_amplitude_factor_below_unity(self, qwp):
        assert 0.0 < qwp.amplitude_factor(2.44e9) < 1.0

    def test_jones_matrix_scaled_quarter_wave_plate(self, qwp):
        matrix = qwp.jones_matrix(2.44e9).as_array()
        # Determinant magnitude = amplitude^2 (pure QWP has |det| = 1).
        amplitude = qwp.amplitude_factor(2.44e9)
        assert abs(np.linalg.det(matrix)) == pytest.approx(amplitude ** 2, rel=1e-9)

    def test_insertion_loss_frequency_validation(self, qwp):
        with pytest.raises(ValueError):
            qwp.insertion_loss_db(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuarterWavePlateLayer(thickness_m=0.0)
        with pytest.raises(ValueError):
            QuarterWavePlateLayer(loaded_q=-1.0)
        with pytest.raises(ValueError):
            QuarterWavePlateLayer(dielectric_fill_factor=2.0)
        with pytest.raises(ValueError):
            QuarterWavePlateLayer(design_frequency_hz=-1.0)
        with pytest.raises(ValueError):
            QuarterWavePlateLayer(substrate=FR4, loaded_q=51.0,
                                  dielectric_fill_factor=1.0)


class TestBirefringentLayer:
    def test_symmetric_builder_layer_count(self, bfs):
        assert bfs.layers_per_axis == 2
        assert len(bfs.x_layers) == len(bfs.y_layers) == 2

    def test_symmetric_builder_validation(self):
        with pytest.raises(ValueError):
            BirefringentLayer.symmetric(PhaseShifterLayer(), layers_per_axis=0)
        with pytest.raises(ValueError):
            BirefringentLayer.symmetric(PhaseShifterLayer(),
                                        y_axis_inductance_scale=0.0)

    def test_needs_layers(self):
        with pytest.raises(ValueError):
            BirefringentLayer(x_layers=(), y_layers=())

    def test_axis_phase_sums_layers(self, bfs):
        single = bfs.x_layers[0].transmission_phase_rad(2.44e9, 5.0)
        assert bfs.axis_phase_rad(2.44e9, 5.0, "x") == pytest.approx(2.0 * single)

    def test_axis_validation(self, bfs):
        with pytest.raises(ValueError):
            bfs.axis_phase_rad(2.44e9, 5.0, "z")
        with pytest.raises(ValueError):
            bfs.axis_amplitude(2.44e9, "z")

    def test_differential_phase_zero_for_identical_axes_and_voltages(self, bfs):
        assert bfs.differential_phase_rad(2.44e9, 8.0, 8.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_differential_phase_antisymmetric(self, bfs):
        forward = bfs.differential_phase_rad(2.44e9, 15.0, 2.0)
        backward = bfs.differential_phase_rad(2.44e9, 2.0, 15.0)
        assert forward == pytest.approx(-backward)

    def test_asymmetric_axes_give_nonzero_diagonal(self):
        asymmetric = BirefringentLayer.symmetric(PhaseShifterLayer(),
                                                 y_axis_inductance_scale=1.06)
        delta = asymmetric.differential_phase_rad(2.44e9, 5.0, 5.0)
        assert abs(delta) > 0.0

    def test_phase_difference_range_covers_table1(self, bfs):
        """Paper Table 1: rotation up to 48.7 deg = delta/2, so |delta| must
        reach ~95 degrees over the 2-15 V capacitance range."""
        max_delta = bfs.phase_difference_range_rad(2.44e9, 2.0, 15.0)
        assert math.degrees(max_delta) > 85.0

    def test_jones_matrix_is_diagonal(self, bfs):
        matrix = bfs.jones_matrix(2.44e9, 5.0, 12.0).as_array()
        assert matrix[0, 1] == pytest.approx(0.0)
        assert matrix[1, 0] == pytest.approx(0.0)

    def test_jones_diagonal_phases_match_axis_phases(self, bfs):
        matrix = bfs.jones_matrix(2.44e9, 5.0, 12.0).as_array()
        assert np.angle(matrix[0, 0]) == pytest.approx(
            bfs.axis_phase_rad(2.44e9, 5.0, "x"))
        assert np.angle(matrix[1, 1]) == pytest.approx(
            bfs.axis_phase_rad(2.44e9, 12.0, "y"))

    def test_insertion_loss_positive(self, bfs):
        assert bfs.insertion_loss_db(2.44e9) > 0.0

    def test_axis_amplitude_below_unity(self, bfs):
        assert 0.0 < bfs.axis_amplitude(2.44e9, "x") < 1.0

    @given(st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=30)
    def test_jones_matrix_never_amplifies(self, vx, vy):
        bfs = BirefringentLayer.symmetric(PhaseShifterLayer())
        matrix = bfs.jones_matrix(2.44e9, vx, vy).as_array()
        assert np.all(np.abs(np.diag(matrix)) <= 1.0 + 1e-12)


def _summed_public_diagonal(bfs, frequency_hz, vx, vy):
    """``diagonal_batch`` rebuilt by summing the per-layer public methods."""
    phase_x = sum(layer.transmission_phase_rad_batch(frequency_hz, vx)
                  for layer in bfs.x_layers)
    phase_y = sum(layer.transmission_phase_rad_batch(frequency_hz, vy)
                  for layer in bfs.y_layers)
    loss_x_db = sum(layer.insertion_loss_db_batch(frequency_hz, vx)
                    for layer in bfs.x_layers)
    loss_y_db = sum(layer.insertion_loss_db_batch(frequency_hz, vy)
                    for layer in bfs.y_layers)
    return (db_to_amplitude(-loss_x_db) * np.exp(1j * phase_x),
            db_to_amplitude(-loss_y_db) * np.exp(1j * phase_y))


def _mixed_stack():
    thin = PhaseShifterLayer(thickness_m=0.5e-3, loading_factor=0.7)
    thick = PhaseShifterLayer(inductance_h=3.6e-9)
    return BirefringentLayer(x_layers=(thin, thin, thick),
                             y_layers=(thick, thick))


class TestFusedDiagonal:
    """One resonance per distinct layer, bit-identical to per-layer sums."""

    FREQUENCY = np.array([[2.30e9], [2.44e9], [2.60e9]])
    VX = np.linspace(0.0, 30.0, 11)
    VY = np.linspace(30.0, 0.0, 11)

    @pytest.mark.parametrize("bfs", [
        llama_design().build().birefringent,
        rogers_reference_design().build().birefringent,
        BirefringentLayer.symmetric(PhaseShifterLayer(), layers_per_axis=3,
                                    y_axis_inductance_scale=1.3),
        _mixed_stack(),
    ], ids=["llama", "rogers", "asymmetric", "mixed"])
    @pytest.mark.parametrize("frequency", [2.44e9, FREQUENCY],
                             ids=["scalar", "column"])
    def test_equals_summed_public_methods(self, bfs, frequency):
        fused = bfs.diagonal_batch(frequency, self.VX, self.VY)
        reference = _summed_public_diagonal(bfs, frequency, self.VX, self.VY)
        for axis in range(2):
            assert np.array_equal(fused[axis], reference[axis])

    def test_each_distinct_layer_resonates_once(self, monkeypatch):
        calls = []
        original = PhaseShifterLayer.resonant_frequencies_hz_batch

        def counting(layer, bias_voltages_v):
            calls.append(layer)
            return original(layer, bias_voltages_v)

        monkeypatch.setattr(PhaseShifterLayer,
                            "resonant_frequencies_hz_batch", counting)
        bfs = llama_design().build().birefringent
        bfs.diagonal_batch(2.44e9, self.VX, self.VY)
        assert calls == [bfs.x_layers[0], bfs.y_layers[0]]
        calls.clear()
        _mixed_stack().diagonal_batch(2.44e9, self.VX, self.VY)
        assert len(calls) == 3

    def test_response_batch_halves_are_the_public_views(self):
        layer = PhaseShifterLayer()
        phase_rad, loss_db = layer.response_batch(self.FREQUENCY, self.VX)
        assert np.array_equal(
            phase_rad, layer.transmission_phase_rad_batch(self.FREQUENCY,
                                                          self.VX))
        assert np.array_equal(
            loss_db, layer.insertion_loss_db_batch(self.FREQUENCY, self.VX))
        assert np.array_equal(
            loss_db, layer.dielectric_insertion_loss_db +
            layer.detuning_loss_db_batch(self.FREQUENCY, self.VX))
