"""Resilience-layer overhead with injection disabled.

The fault plane promises a pure-delegation fast path: an inactive
``FaultySchedule`` draws from no stream and a ``RetryingBackend`` adds
one guarded call per probe, so wrapping the whole resilience stack
around the measurement backend must cost <5% on amortized batched
probes — and stay bit-identical.  The timed rows land in the current
PR's ``BENCH_<n>.json`` archive (``trajectory.write_bench_rows``) so
the gate's evidence ships with the tree; ``BENCH_7.json`` remains the
PR 7 measurement.
"""

import time

import numpy as np

from bench_utils import run_once, write_bench_rows
from repro.api.backend import LinkBackend
from repro.api.session import LinkSession
from repro.channel.grid import ProbeGrid
from repro.experiments.reporting import format_table
from repro.experiments.scenarios import TransmissiveScenario
from repro.faults import (
    FaultSchedule,
    FaultyBackend,
    RetryingBackend,
    RetryPolicy,
)

#: Acceptance bar from the issue: disabled-injection overhead <5%.
MAX_OVERHEAD_FRACTION = 0.05
PARITY_DB = 1e-12

STEP_V = 0.5
LEVELS = np.arange(0.0, 30.0 + 0.5 * STEP_V, STEP_V)
VX_GRID, VY_GRID = np.meshgrid(LEVELS, LEVELS, indexing="ij")
CALLS = 20
PAIRS = 21


def wrap_resilience(backend):
    """The full disabled-injection resilience stack around a backend."""
    schedule = FaultSchedule(seed=0)  # NO_FAULTS: the fast path
    return RetryingBackend(FaultyBackend(backend, schedule),
                           RetryPolicy(), schedule=schedule)


def _seconds(function):
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def paired_seconds(bare_fn, wrapped_fn):
    """``PAIRS`` back-to-back (bare, wrapped) wall-clock samples.

    Each pair runs the two paths adjacently, so machine-load drift hits
    both samples of a pair alike; the order inside the pair alternates
    so neither path always runs second (warmer caches, later in a
    scheduler slice).
    """
    pairs = []
    for index in range(PAIRS):
        if index % 2:
            wrapped_s = _seconds(wrapped_fn)
            bare_s = _seconds(bare_fn)
        else:
            bare_s = _seconds(bare_fn)
            wrapped_s = _seconds(wrapped_fn)
        pairs.append((bare_s, wrapped_s))
    return np.array(pairs)


def overhead_row(label, probes, bare_fn, wrapped_fn, parity_db):
    """Overhead as the median of the per-pair ``wrapped / bare`` ratios.

    A scheduler hiccup inflates one sample, and so one pair's ratio;
    the median over the pairs ignores it, where a ratio of per-path
    minima could pair a lucky bare sample with an unlucky wrapped one.
    """
    pairs = paired_seconds(bare_fn, wrapped_fn)
    ratios = pairs[:, 1] / pairs[:, 0]
    return {
        "plane": label,
        "probes": probes,
        "pairs": PAIRS,
        "bare_ms": float(np.median(pairs[:, 0])) * 1e3,
        "wrapped_ms": float(np.median(pairs[:, 1])) * 1e3,
        "overhead_fraction": float(np.median(ratios)) - 1.0,
        "max_error_db": parity_db,
    }


def run_overhead_comparison():
    link = LinkSession(TransmissiveScenario().configuration()).link
    bare = LinkBackend(link)
    wrapped = wrap_resilience(LinkBackend(link))
    grid = ProbeGrid.product(vx=LEVELS, vy=LEVELS)
    aligned = ProbeGrid.aligned(vx=VX_GRID, vy=VY_GRID)

    # Warm-up both paths (NumPy dispatch, surface response caches).
    bare.measure_grid(aligned)
    wrapped.measure_grid(aligned)
    bare.measure_grid(grid)
    wrapped.measure_grid(grid)

    rows = [
        overhead_row(
            f"measure_grid x{CALLS} ({LEVELS.size}^2 aligned bias grid)",
            CALLS * VX_GRID.size,
            lambda: [bare.measure_grid(aligned) for _ in range(CALLS)],
            lambda: [wrapped.measure_grid(aligned) for _ in range(CALLS)],
            float(np.max(np.abs(wrapped.measure_grid(aligned)
                                - bare.measure_grid(aligned))))),
        overhead_row(
            f"measure_grid x{CALLS} ({LEVELS.size}^2 probe grid)",
            CALLS * grid.size,
            lambda: [bare.measure_grid(grid) for _ in range(CALLS)],
            lambda: [wrapped.measure_grid(grid) for _ in range(CALLS)],
            float(np.max(np.abs(wrapped.measure_grid(grid)
                                - bare.measure_grid(grid))))),
    ]
    return rows


def test_bench_disabled_injection_overhead(benchmark):
    rows = run_once(benchmark, run_overhead_comparison)

    print()
    print(format_table(
        ["plane", "probes", "bare (ms)", "resilience-wrapped (ms)",
         "overhead", "max |diff| (dB)"],
        [[row["plane"], row["probes"], row["bare_ms"], row["wrapped_ms"],
          row["overhead_fraction"], row["max_error_db"]] for row in rows],
        precision=4,
        title="Resilience stack overhead with injection disabled"))

    write_bench_rows(
        "disabled-injection resilience overhead", rows,
        meta={"max_overhead_fraction": MAX_OVERHEAD_FRACTION,
              "statistic": "median of per-pair wrapped/bare ratios",
              "pairs": PAIRS, "calls_per_sample": CALLS})

    for row in rows:
        assert row["max_error_db"] <= PARITY_DB, row
        assert row["overhead_fraction"] < MAX_OVERHEAD_FRACTION, row
