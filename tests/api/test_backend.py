"""Unit tests for the measurement-backend primitives.

Every backend and wrapper speaks one probe protocol,
``measure_grid(ProbeGrid)``.  The parametrized protocol suite probes
each with a 0-d grid, a bias-only grid, a one-sweep-axis grid and a
two-sweep-axis grid, and checks the result against a scalar reference
(a link rebuilt per point, probed with ``received_power_dbm``) or the
``TypeError`` for axes the backend cannot serve.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    CallableBackend,
    CallableOrientationBackend,
    FixedOrientationBackend,
    LinkBackend,
    MeasurementBackend,
    OrientationBackend,
    ProbeGrid,
    ReceiverSweepBackend,
)
from repro.channel.link import WirelessLink
from repro.core.controller import CentralizedController
from repro.core.llama import LlamaSystem
from repro.experiments.scenarios import TransmissiveScenario
from repro.faults import (
    FaultSchedule,
    FaultSpec,
    FaultyBackend,
    RetryingBackend,
    RetryPolicy,
)
from repro.radio.transceiver import SimulatedReceiver

LINK = TransmissiveScenario().link()
ROTATED = OrientationBackend(LINK).link_for_orientation(30.0)
FREQUENCIES_HZ = np.array([2.40e9, 2.45e9, 2.48e9])
# Whole volts: exact under the rotator's and the fault plane's 1 V
# quantization, so every backend reports the noiseless physics.
VX = np.array([0.0, 7.0, 22.0])
VY = np.array([3.0, 15.0])

#: backend name -> (factory, link the backend probes, axes it serves):
#: "any" (every grid), "bias" (bias-only grids) or "one" (exactly one
#: sweep axis).
CASES = {
    "link": (lambda: LinkBackend(LINK), LINK, "any"),
    "callable": (lambda: CallableBackend(LINK.received_power_dbm), LINK,
                 "bias"),
    "fixed-orientation": (
        lambda: FixedOrientationBackend(OrientationBackend(LINK), 30.0),
        ROTATED, "bias"),
    "supply-in-the-loop": (
        lambda: LlamaSystem(LINK.configuration).backend, LINK, "bias"),
    "receiver": (
        lambda: ReceiverSweepBackend(SimulatedReceiver(LINK, seed=3)), LINK,
        "one"),
    "faulty": (
        lambda: FaultyBackend(LinkBackend(LINK), FaultSchedule(
            FaultSpec(quantize_step_v=1.0), seed=1)), LINK, "any"),
    "retrying": (
        lambda: RetryingBackend(LinkBackend(LINK), RetryPolicy()), LINK,
        "any"),
}


def reference(link, vx, vy, frequency_hz=None, tx_power_dbm=None):
    """Scalar reference: a link rebuilt per point, probed one at a time."""
    config = link.configuration
    vx, vy, frequency, tx_power = np.broadcast_arrays(
        vx, vy,
        config.frequency_hz if frequency_hz is None else frequency_hz,
        config.tx_power_dbm if tx_power_dbm is None else tx_power_dbm)
    powers = [WirelessLink(replace(config, frequency_hz=float(f),
                                   tx_power_dbm=float(p))
                           ).received_power_dbm(float(a), float(b))
              for a, b, f, p in zip(vx.ravel(), vy.ravel(),
                                    frequency.ravel(), tx_power.ravel())]
    return np.reshape(powers, vx.shape)


def check(name, grid, expected):
    factory, _link, _served = CASES[name]
    backend = factory()
    if expected is TypeError:
        with pytest.raises(TypeError):
            backend.measure_grid(grid)
        return
    powers = backend.measure_grid(grid)
    assert powers.shape == grid.shape
    # The sampling receiver reports noisy powers; the link sits ~60 dB
    # above its noise floor, so the reports stay within 0.05 dB.
    tolerance = 0.05 if name == "receiver" else 1e-9
    assert np.allclose(powers, expected, rtol=0.0, atol=tolerance)


@pytest.mark.parametrize("name", list(CASES))
class TestMeasureGridProtocol:
    def test_zero_d_grid(self, name):
        _factory, link, served = CASES[name]
        grid = ProbeGrid.aligned(vx=7.0, vy=15.0)
        check(name, grid, TypeError if served == "one"
              else reference(link, 7.0, 15.0))

    def test_bias_only_grid(self, name):
        _factory, link, served = CASES[name]
        grid = ProbeGrid.product(vx=VX, vy=VY)
        check(name, grid, TypeError if served == "one"
              else reference(link, VX[:, None], VY[None, :]))

    def test_one_axis_grid(self, name):
        _factory, link, served = CASES[name]
        grid = ProbeGrid.aligned(frequency=FREQUENCIES_HZ[:, None],
                                 vx=VX[None, :], vy=VY[0])
        check(name, grid, TypeError if served == "bias"
              else reference(link, VX[None, :], VY[0],
                             FREQUENCIES_HZ[:, None]))

    def test_two_axis_grid_served_only_by_the_engine(self, name):
        _factory, link, served = CASES[name]
        tx_powers = np.array([0.0, 10.0])
        grid = ProbeGrid.product(frequency=FREQUENCIES_HZ, tx_power=tx_powers,
                                 vx=VX)
        check(name, grid, TypeError if served != "any"
              else reference(link, VX[None, None, :], 0.0,
                             FREQUENCIES_HZ[:, None, None],
                             tx_powers[None, :, None]))

    def test_measure_grid_is_the_only_probe_method(self, name):
        backend = CASES[name][0]()
        assert isinstance(backend, MeasurementBackend)
        probes = {name for name in dir(backend) if name.startswith("measure")}
        assert probes == {"measure_grid"}


class TestCallableBackend:
    def test_preserves_vx_major_probe_order(self):
        seen = []

        def spy(vx, vy):
            seen.append((vx, vy))
            return 0.0

        CallableBackend(spy).measure_grid(
            ProbeGrid.product(vx=[1.0, 2.0], vy=[4.0, 5.0]))
        assert seen == [(1.0, 4.0), (1.0, 5.0), (2.0, 4.0), (2.0, 5.0)]

    def test_absent_voltage_axis_reads_zero(self):
        backend = CallableBackend(lambda vx, vy: vx + 10.0 * vy)
        powers = backend.measure_grid(ProbeGrid.product(vx=[1.0, 2.0]))
        assert np.array_equal(powers, [1.0, 2.0])

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            CallableBackend(42)

    def test_callable_and_backend_agree(self):
        controller = CentralizedController()
        wrapped = controller.full_sweep(
            CallableBackend(LINK.received_power_dbm), step_v=5.0)
        engine = controller.full_sweep(LinkBackend(LINK), step_v=5.0)
        assert wrapped.best_vx == engine.best_vx
        assert wrapped.best_vy == engine.best_vy
        assert wrapped.best_power_dbm == pytest.approx(engine.best_power_dbm,
                                                       abs=1e-9)


class TestReceiverSweepBackend:
    def test_matches_identically_seeded_receiver(self):
        grid = ProbeGrid.aligned(frequency=FREQUENCIES_HZ[:, None],
                                 vx=VX[None, :], vy=VY[0])
        powers = ReceiverSweepBackend(
            SimulatedReceiver(LINK, seed=3)).measure_grid(grid)
        direct = SimulatedReceiver(LINK, seed=3).measure_power_dbm_sweep(
            "frequency", FREQUENCIES_HZ[:, None], vx=VX[None, :], vy=VY[0])
        assert np.array_equal(powers, direct)


class TestOrientationBackend:
    def test_caches_one_link_per_orientation(self):
        backend = OrientationBackend(LINK)
        first = backend.link_for_orientation(30.0)
        second = backend.link_for_orientation(30.0)
        assert first is second
        assert backend.link_for_orientation(60.0) is not first

    def test_rotation_changes_received_power(self):
        backend = OrientationBackend(LINK)
        aligned = backend.measure(0.0, 0.0, 0.0)
        rotated = backend.measure(90.0, 0.0, 0.0)
        assert aligned != rotated

    def test_batch_matches_scalar(self):
        backend = OrientationBackend(LINK)
        vx = np.array([0.0, 10.0, 20.0])
        vy = np.array([5.0, 15.0, 25.0])
        batch = backend.measure_batch(45.0, vx, vy)
        scalar = [backend.measure(45.0, float(a), float(b))
                  for a, b in zip(vx, vy)]
        assert np.allclose(batch, scalar)

    def test_callable_orientation_backend_matches_link_backend(self):
        backend = OrientationBackend(LINK)
        wrapped = CallableOrientationBackend(backend.measure)
        assert wrapped.measure(30.0, 2.0, 4.0) == backend.measure(30.0, 2.0,
                                                                  4.0)
        assert np.allclose(
            wrapped.measure_batch(30.0, VX, VY[0]),
            backend.measure_batch(30.0, VX, VY[0]), rtol=0.0, atol=1e-9)

    def test_fixed_orientation_view(self):
        backend = OrientationBackend(LINK)
        fixed = FixedOrientationBackend(backend, 30.0)
        powers = fixed.measure_grid(ProbeGrid.aligned(vx=[2.0], vy=[4.0]))
        assert powers[0] == backend.measure(30.0, 2.0, 4.0)
