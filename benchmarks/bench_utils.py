"""Helpers shared by the benchmark modules.

Every per-figure benchmark follows the same shape — run a deterministic
figure generator once under pytest-benchmark, print the paper's
rows/series, assert the result's shape — and the engine benchmarks all
time a scalar reference against a vectorized path and gate the speedup.
The scaffolding for both lives here so the ``test_bench_*`` modules
stay declarative.
"""

import os
import platform
import time

import numpy as np

from repro.experiments.reporting import format_table
from trajectory import CURRENT_PR, bench_archive_path, write_bench_rows

__all__ = [
    "CURRENT_PR",
    "assert_speedup",
    "bench_archive_path",
    "machine_fingerprint",
    "print_speedup_table",
    "run_once",
    "speedup_row",
    "speedup_rows_as_records",
    "timed",
    "write_bench_rows",
]


def run_once(benchmark, function, *args, **kwargs):
    """Run a figure generator exactly once under pytest-benchmark timing.

    The figure runners are deterministic simulations, so a single
    measurement round per benchmark is sufficient and keeps the whole
    suite fast.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def machine_fingerprint():
    """The facts an absolute timing depends on, for the archive's meta."""
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


# ---------------------------------------------------------------------- #
# Scalar-vs-vectorized speedup scaffolding
# ---------------------------------------------------------------------- #
def timed(function, *args, **kwargs):
    """Run ``function`` once; returns ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def speedup_row(label, probe_count, slow_s, fast_s, max_error_db):
    """One standard row of a scalar-vs-vectorized comparison table."""
    return [label, probe_count, slow_s * 1e3, fast_s * 1e3, slow_s / fast_s,
            max_error_db]


def print_speedup_table(title, rows, row_label="sweep", count_label="points",
                        slow_label="scalar loop", fast_label="vectorized"):
    """Print rows built by :func:`speedup_row` with the standard headers."""
    print()
    print(format_table(
        [row_label, count_label, f"{slow_label} (ms)", f"{fast_label} (ms)",
         "speedup (x)", "max |diff| (dB)"],
        rows, precision=3, title=title))


def assert_speedup(rows, min_speedup, tolerance_db=1e-9):
    """Gate every :func:`speedup_row`: fast enough and numerically tight."""
    for row in rows:
        speedup, max_error_db = row[-2], row[-1]
        assert speedup >= min_speedup, row
        assert max_error_db <= tolerance_db, row


def speedup_rows_as_records(rows, row_label="label", count_label="points"):
    """Convert :func:`speedup_row` lists into perf-trajectory records.

    The returned dicts are what :func:`trajectory.write_bench_rows`
    archives into ``BENCH_<pr>.json``, so every speedup table printed
    by a benchmark also lands in the persistent trajectory.
    """
    return [{
        row_label: row[0],
        count_label: row[1],
        "slow_ms": row[2],
        "fast_ms": row[3],
        "speedup_x": row[4],
        "max_error_db": row[5],
    } for row in rows]


# The per-figure table scaffolding that used to live here moved into
# the experiment specs' ``summarize`` hooks (repro.experiments.figures);
# the registry bench prints those summaries directly.
