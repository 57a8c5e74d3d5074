"""The via-surface budget evaluates the Jones cascade once per distinct
operating point.

``WirelessLink._surface_fields_batch`` cuts every grid axis along which
the bias voltages and the frequency are stride-0 broadcasts (the
controller's per-station copies of one bias plane) before running the
cascade.  These tests pin that the cut is invisible in the results —
each broadcast grid evaluates ``np.array_equal`` to the same values
materialised — and that it really shrinks the cascade.
"""

import numpy as np
import pytest

from repro.api import LinkSession, ProbeGrid
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario
from repro.metasurface.surface import Metasurface

STATIONS = 5
LEVELS = np.linspace(0.0, 30.0, 7)
PLANE_VX = np.repeat(LEVELS, LEVELS.size)
PLANE_VY = np.tile(LEVELS, LEVELS.size)


@pytest.fixture()
def cascade_cells(monkeypatch):
    """Jones-cascade cells per ``Metasurface.jones_matrix_batch`` call."""
    cells = []
    original = Metasurface.jones_matrix_batch

    def counting(self, frequency_hz, vx, vy):
        result = original(self, frequency_hz, vx, vy)
        cells.append(result.size // 4)
        return result

    monkeypatch.setattr(Metasurface, "jones_matrix_batch", counting)
    return cells


def _station_plane(stations=STATIONS):
    """One bias plane repeated per station as stride-0 views."""
    shape = (stations, PLANE_VX.size)
    return (np.broadcast_to(PLANE_VX, shape),
            np.broadcast_to(PLANE_VY, shape))


def _materialised(axes):
    return {name: np.array(values) for name, values in axes.items()}


def _assert_compaction_invisible(link, axes):
    broadcast = link.evaluate_grid(ProbeGrid.aligned(**axes))
    dense = link.evaluate_grid(ProbeGrid.aligned(**_materialised(axes)))
    assert broadcast.shape == dense.shape
    assert np.array_equal(broadcast, dense)


def _per_station(values):
    return np.asarray(values, dtype=float)[:, None]


class TestCompactionIsInvisible:
    @pytest.mark.parametrize("scenario", [TransmissiveScenario(),
                                          ReflectiveScenario()],
                             ids=["transmissive", "reflective"])
    def test_station_broadcast_plane(self, scenario, cascade_cells):
        vx, vy = _station_plane()
        axes = {"vx": vx, "vy": vy,
                "distance": _per_station(np.linspace(0.3, 0.9, STATIONS))}
        _assert_compaction_invisible(scenario.link(), axes)
        assert cascade_cells == [PLANE_VX.size, STATIONS * PLANE_VX.size]

    def test_scalar_frequency(self, cascade_cells):
        vx, vy = _station_plane()
        axes = {"vx": vx, "vy": vy, "frequency": 2.47e9,
                "tx_power": _per_station(np.arange(STATIONS) - 2.0)}
        _assert_compaction_invisible(TransmissiveScenario().link(), axes)
        assert cascade_cells[0] == PLANE_VX.size

    def test_frequency_column_keeps_its_axis(self, cascade_cells):
        # (repeat, frequency, bias) cube: the leading axis repeats one
        # (frequency, bias) slab and is cut; the frequency axis is not.
        frequencies = np.array([[2.40e9], [2.44e9], [2.48e9]])
        shape = (4, frequencies.shape[0], PLANE_VX.size)
        axes = {"vx": np.broadcast_to(PLANE_VX, shape),
                "vy": np.broadcast_to(PLANE_VY, shape),
                "frequency": frequencies}
        _assert_compaction_invisible(ReflectiveScenario().link(), axes)
        assert cascade_cells[0] == frequencies.size * PLANE_VX.size

    def test_per_point_tx_orientation(self, cascade_cells):
        vx, vy = _station_plane()
        axes = {"vx": vx, "vy": vy,
                "tx_orientation": _per_station(
                    np.linspace(0.0, 90.0, STATIONS))}
        _assert_compaction_invisible(TransmissiveScenario().link(), axes)
        assert cascade_cells[0] == PLANE_VX.size

    def test_zero_length_station_axis(self):
        vx, vy = _station_plane(stations=0)
        axes = {"vx": vx, "vy": vy,
                "distance": _per_station(np.full(0, 0.5))}
        link = TransmissiveScenario().link()
        _assert_compaction_invisible(link, axes)
        assert link.evaluate_grid(ProbeGrid.aligned(**axes)).shape == (
            0, PLANE_VX.size)

    def test_only_vx_stride_zero_does_not_compact(self, cascade_cells):
        vx, _ = _station_plane()
        vy = np.arange(vx.size, dtype=float).reshape(vx.shape) % 31.0
        _assert_compaction_invisible(TransmissiveScenario().link(),
                                     {"vx": vx, "vy": vy})
        assert cascade_cells == [vx.size, vx.size]


def test_exhaustive_search_evaluates_each_bias_pair_once(cascade_cells):
    session = LinkSession(TransmissiveScenario().configuration())
    grid = ProbeGrid.product(tx_orientation=np.linspace(0.0, 90.0, 64))
    result = session.optimize_grid(grid, exhaustive=True, step_v=0.5)
    assert result.probe_count_per_point == 61 * 61
    assert cascade_cells == [3721]
