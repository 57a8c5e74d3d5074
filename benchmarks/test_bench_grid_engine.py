"""N-D grid engine vs looping the single-axis sweep (joint scenarios).

The grid engine evaluates a whole frequency x distance (or tx-power x
distance) product grid in one pass of the link budget; the reference
loops a one-axis (frequency) probe grid over the second axis with a
link rebuilt per value — the best a single-axis sweep engine can do for
joint grids.  Gated at >= 3x with parity <= 1e-9 dB.

The Jones cascade's absolute cost is archived alongside: µs per
distinct operating point on a 64-station exhaustive search (whose
per-station bias planes are one plane broadcast) and µs per 49-cell
cascade call.  Those rows gate on the distinct-cell count, not on time.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from bench_utils import (
    assert_speedup,
    machine_fingerprint,
    print_speedup_table,
    run_once,
    speedup_row,
    speedup_rows_as_records,
    timed,
    write_bench_rows,
)
from repro.channel.geometry import LinkGeometry
from repro.api import LinkSession
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.experiments.reporting import format_table
from repro.experiments.scenarios import TransmissiveScenario
from repro.metasurface.surface import Metasurface

FREQUENCIES = np.arange(2.40e9, 2.501e9, 0.005e9)
TX_POWERS_DBM = np.arange(-30.0, 30.1, 2.0)
DISTANCES_M = np.linspace(0.24, 0.90, 23)
VOLTAGE_PAIRS = (np.array([0.0, 7.0, 15.0, 30.0]),
                 np.array([30.0, 22.0, 15.0, 0.0]))


def _looped_second_axis(link, axis, values):
    """Reference: one link rebuild + one-axis grid per outer value."""
    vx, vy = VOLTAGE_PAIRS
    rows = []
    for value in values:
        if axis == "tx_power":
            config = replace(link.configuration, tx_power_dbm=float(value))
        else:
            config = replace(link.configuration,
                             geometry=LinkGeometry.transmissive(float(value)))
        point_link = WirelessLink(config)
        rows.append(point_link.evaluate_grid(ProbeGrid.aligned(
            frequency=FREQUENCIES[:, None], vx=vx, vy=vy)))
    return np.stack(rows, axis=1)


def _grid_pass(link, axis, values):
    """One evaluation of the full (frequency, axis, bias) product grid."""
    vx, vy = VOLTAGE_PAIRS
    grid = ProbeGrid.aligned(
        frequency=FREQUENCIES[:, None, None],
        **{axis: np.asarray(values)[:, None]},
        vx=vx, vy=vy)
    return link.evaluate(grid)


def run_grid_engine_comparison():
    rows = []
    for label, axis, values in (
            ("frequency x tx-power", "tx_power", TX_POWERS_DBM),
            ("frequency x distance", "distance", DISTANCES_M)):
        link = TransmissiveScenario().link()
        looped, loop_s = timed(_looped_second_axis, link, axis, values)
        gridded, grid_s = timed(_grid_pass, link, axis, values)
        max_error_db = float(np.max(np.abs(gridded - looped)))
        points = FREQUENCIES.size * len(values) * VOLTAGE_PAIRS[0].size
        rows.append(speedup_row(label, points, loop_s, grid_s, max_error_db))
    return rows


def test_bench_grid_engine(benchmark):
    rows = run_once(benchmark, run_grid_engine_comparison)

    print_speedup_table(
        "N-D grid engine vs looping a one-axis grid over the "
        "second axis", rows, row_label="grid", count_label="points",
        slow_label="looped sweep", fast_label="grid engine")

    write_bench_rows(
        "grid engine vs looped sweep",
        speedup_rows_as_records(rows, row_label="grid"),
        meta={"min_speedup_x": 3.0,
              "grid_shape": [int(FREQUENCIES.size), int(TX_POWERS_DBM.size),
                             int(VOLTAGE_PAIRS[0].size)]})

    # Acceptance bar for the grid engine: >= 3x per joint grid.
    assert_speedup(rows, min_speedup=3.0)


SEARCH_STATIONS = 64
SEARCH_STEP_V = 0.5
SEARCH_LEVELS = int(30.0 / SEARCH_STEP_V) + 1
CALL_VOLTAGES = np.linspace(0.0, 30.0, 7)
CASCADE_REPEATS = 5
SMALL_CALLS = 200


@contextmanager
def recorded_cascade():
    """Record ``(cells, seconds)`` of every Jones-cascade call."""
    calls = []
    original = Metasurface.jones_matrix_batch

    def recording(self, frequency_hz, vx, vy):
        start = time.perf_counter()
        result = original(self, frequency_hz, vx, vy)
        calls.append((result.size // 4, time.perf_counter() - start))
        return result

    Metasurface.jones_matrix_batch = recording
    try:
        yield calls
    finally:
        Metasurface.jones_matrix_batch = original


def _exhaustive_search_row():
    session = LinkSession(TransmissiveScenario().configuration())
    grid = ProbeGrid.product(
        tx_orientation=np.linspace(0.0, 90.0, SEARCH_STATIONS))
    samples = []
    for _ in range(CASCADE_REPEATS):
        with recorded_cascade() as calls:
            start = time.perf_counter()
            result = session.optimize_grid(grid, exhaustive=True,
                                           step_v=SEARCH_STEP_V)
            wall_s = time.perf_counter() - start
        samples.append((wall_s, calls))
    wall_s, calls = min(samples, key=lambda sample: sample[0])
    distinct = sum(cells for cells, _seconds in calls)
    cascade_s = sum(seconds for _cells, seconds in calls)
    grid_cells = SEARCH_STATIONS * result.probe_count_per_point
    return {"label": f"{SEARCH_STATIONS}-station exhaustive search "
                     f"({SEARCH_STEP_V} V)",
            "grid_cells": grid_cells, "distinct_cells": distinct,
            "cascade_calls": len(calls), "wall_ms": wall_s * 1e3,
            "cascade_ms": cascade_s * 1e3,
            "us_per_distinct_cell": cascade_s * 1e6 / distinct,
            "us_per_grid_cell": wall_s * 1e6 / grid_cells}


def _small_call_row():
    surface = TransmissiveScenario().configuration().metasurface
    vx, vy = np.meshgrid(CALL_VOLTAGES, CALL_VOLTAGES, indexing="ij")
    surface.jones_matrix_batch(2.44e9, vx, vy)  # warm the QWP cache
    best_s = min(
        _seconds_per_call(surface, vx, vy) for _ in range(CASCADE_REPEATS))
    return {"label": f"{vx.size}-cell cascade call", "grid_cells": vx.size,
            "distinct_cells": vx.size, "cascade_calls": 1,
            "wall_ms": best_s * 1e3, "cascade_ms": best_s * 1e3,
            "us_per_distinct_cell": best_s * 1e6 / vx.size,
            "us_per_grid_cell": best_s * 1e6 / vx.size}


def _seconds_per_call(surface, vx, vy):
    start = time.perf_counter()
    for _ in range(SMALL_CALLS):
        surface.jones_matrix_batch(2.44e9, vx, vy)
    return (time.perf_counter() - start) / SMALL_CALLS


def test_bench_cascade_absolute_cost(benchmark):
    rows = run_once(benchmark,
                    lambda: [_exhaustive_search_row(), _small_call_row()])
    print()
    print(format_table(
        ["workload", "grid cells", "distinct cells", "wall (ms)",
         "cascade (ms)", "us / distinct cell"],
        [[row["label"], row["grid_cells"], row["distinct_cells"],
          row["wall_ms"], row["cascade_ms"], row["us_per_distinct_cell"]]
         for row in rows],
        precision=3, title="Jones cascade absolute cost"))

    write_bench_rows(
        "jones cascade absolute cost", rows,
        meta={"repeats": CASCADE_REPEATS, "statistic": "min",
              "gate": "distinct cells per exhaustive search",
              "machine": machine_fingerprint()})

    search, small = rows
    # One cascade call over the one shared bias plane, however many
    # stations the search spans.
    assert search["cascade_calls"] == 1
    assert search["distinct_cells"] == SEARCH_LEVELS ** 2
    assert small["distinct_cells"] == CALL_VOLTAGES.size ** 2
