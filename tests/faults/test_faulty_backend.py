"""FaultyBackend: zero-fault parity across 0-d, bias-only, one-axis and
product probe grids, and the behaviour of each fault kind when it does
fire."""

import numpy as np
import pytest

from repro.api.backend import LinkBackend
from repro.api.session import LinkSession
from repro.channel.grid import ProbeGrid
from repro.experiments.scenarios import TransmissiveScenario
from repro.faults import (
    NO_FAULTS,
    FaultSchedule,
    FaultSpec,
    FaultyBackend,
    HealthMonitor,
    ProbeFaultError,
)

LEVELS = np.arange(0.0, 30.0 + 1.0, 6.0)
VX, VY = np.meshgrid(LEVELS, LEVELS, indexing="ij")
BIAS_GRID = ProbeGrid.aligned(vx=VX, vy=VY)

#: Zero-fault wrapping must be bit-identical (<= 1e-12 dB) to the bare
#: backend on every grid layout.
PARITY_DB = 1e-12


def scalar(backend, vx, vy):
    """One 0-d grid probe, as a float."""
    return float(backend.measure_grid(ProbeGrid.aligned(vx=vx, vy=vy)))


@pytest.fixture(scope="module")
def link():
    return LinkSession(TransmissiveScenario().configuration()).link


@pytest.fixture()
def bare(link):
    return LinkBackend(link)


class TestZeroFaultParity:
    """An inactive spec takes the pure-delegation fast path."""

    @pytest.fixture(params=[NO_FAULTS, FaultSpec(station_mtbf_epochs=5.0)],
                    ids=["no-faults", "churn-only"])
    def wrapped(self, request, bare):
        # Churn-only specs perturb stations, never probes: the probe
        # plane must still be on the fast path.
        return FaultyBackend(bare, FaultSchedule(request.param, seed=0))

    def test_zero_d_grid(self, bare, wrapped):
        assert abs(scalar(wrapped, 12.0, 18.0)
                   - scalar(bare, 12.0, 18.0)) <= PARITY_DB

    def test_bias_grid(self, bare, wrapped):
        delta = np.abs(wrapped.measure_grid(BIAS_GRID)
                       - bare.measure_grid(BIAS_GRID))
        assert float(np.max(delta)) <= PARITY_DB

    def test_one_axis_grid(self, bare, wrapped):
        grid = ProbeGrid.aligned(frequency=np.linspace(2.4e9, 2.5e9, 7),
                                 vx=6.0, vy=9.0)
        delta = np.abs(wrapped.measure_grid(grid) - bare.measure_grid(grid))
        assert float(np.max(delta)) <= PARITY_DB

    def test_product_grid(self, bare, wrapped):
        grid = ProbeGrid.product(vx=LEVELS, vy=LEVELS)
        delta = np.abs(wrapped.measure_grid(grid) - bare.measure_grid(grid))
        assert float(np.max(delta)) <= PARITY_DB

    def test_fast_path_consumes_no_streams(self, bare, wrapped):
        wrapped.measure_grid(BIAS_GRID)
        assert wrapped.schedule.trace.events == ()
        # The stream dictionary itself stays untouched (no draws at all).
        assert wrapped.schedule._streams == {}


class TestDataPlaneFaults:
    def test_dropouts_are_nans_at_the_masked_cells(self, bare):
        spec = FaultSpec(probe_dropout_rate=0.25)
        schedule = FaultSchedule(spec, seed=3)
        powers = FaultyBackend(bare, schedule).measure_grid(BIAS_GRID)
        mask = schedule.replay().fault_mask("probe.dropout", VX.shape,
                                            spec.probe_dropout_rate)
        assert np.isnan(powers[mask]).all()
        np.testing.assert_allclose(powers[~mask],
                                   bare.measure_grid(BIAS_GRID)[~mask])

    def test_noise_bursts_offset_by_exactly_the_burst_magnitude(self, bare):
        spec = FaultSpec(noise_burst_rate=0.3, noise_burst_db=6.0)
        schedule = FaultSchedule(spec, seed=5)
        powers = FaultyBackend(bare, schedule).measure_grid(BIAS_GRID)
        clean = bare.measure_grid(BIAS_GRID)
        offsets = np.abs(powers - clean)
        hit = offsets > 0
        np.testing.assert_allclose(offsets[hit], spec.noise_burst_db)
        assert hit.any()

    def test_zero_d_grid_goes_through_the_fault_plane(self, bare):
        spec = FaultSpec(probe_dropout_rate=1.0)
        power = FaultyBackend(bare, FaultSchedule(spec, seed=0)).measure_grid(
            ProbeGrid.aligned(vx=6.0, vy=6.0))
        assert power.shape == () and np.isnan(power)


class TestActuatorFaults:
    def test_stuck_actuators_probe_the_stuck_voltage(self, bare):
        spec = FaultSpec(stuck_rate=1.0, stuck_voltage_v=0.0)
        powers = FaultyBackend(bare, FaultSchedule(spec, seed=0)) \
            .measure_grid(BIAS_GRID)
        stuck = scalar(bare, 0.0, 0.0)
        np.testing.assert_allclose(powers, np.full(VX.shape, stuck))

    def test_quantization_snaps_commanded_voltages(self, bare):
        spec = FaultSpec(quantize_step_v=10.0)
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0))
        assert scalar(wrapped, 14.0, 14.0) == pytest.approx(
            scalar(bare, 10.0, 10.0))
        assert scalar(wrapped, 16.0, 16.0) == pytest.approx(
            scalar(bare, 20.0, 20.0))

    def test_brownouts_clip_voltages_from_above(self, bare):
        spec = FaultSpec(brownout_rate=1.0, brownout_clip_v=18.0)
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0))
        assert scalar(wrapped, 25.0, 30.0) == pytest.approx(
            scalar(bare, 18.0, 18.0))
        # Voltages already under the clip are untouched.
        assert scalar(wrapped, 6.0, 9.0) == pytest.approx(
            scalar(bare, 6.0, 9.0))

    def test_grid_probe_rebuilds_voltage_axes(self, bare):
        grid = ProbeGrid.product(vx=LEVELS, vy=LEVELS)
        spec = FaultSpec(stuck_rate=1.0, stuck_voltage_v=3.0)
        powers = FaultyBackend(bare, FaultSchedule(spec, seed=0)) \
            .measure_grid(grid)
        np.testing.assert_allclose(
            powers, np.full(grid.shape, scalar(bare, 3.0, 3.0)))


class TestCallFaults:
    def test_probe_errors_raise_retryable(self, bare):
        spec = FaultSpec(probe_error_rate=1.0)
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0))
        with pytest.raises(ProbeFaultError):
            wrapped.measure_grid(BIAS_GRID)


class TestAccounting:
    def test_monitor_tallies_probes_and_faults(self, bare):
        spec = FaultSpec(probe_dropout_rate=1.0)
        monitor = HealthMonitor()
        wrapped = FaultyBackend(bare, FaultSchedule(spec, seed=0),
                                monitor=monitor)
        wrapped.measure_grid(BIAS_GRID)
        report = monitor.report()
        assert report.probes == 1
        assert report.faults_seen["probe.dropout"] == VX.size
        assert report.degraded

    def test_replay_reproduces_powers_and_trace(self, bare):
        spec = FaultSpec(probe_dropout_rate=0.2, noise_burst_rate=0.2,
                         stuck_rate=0.1)
        schedule = FaultSchedule(spec, seed=9)
        first = FaultyBackend(bare, schedule).measure_grid(BIAS_GRID)
        replayed = schedule.replay()
        second = FaultyBackend(bare, replayed).measure_grid(BIAS_GRID)
        np.testing.assert_array_equal(first, second)
        assert schedule.trace.digest() == replayed.trace.digest()
