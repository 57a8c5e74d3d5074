"""Persistent result store gate: warm ``run_all`` >= 10x cold.

A second ``run_all`` of the figure tag against the warm store — fresh
runner, empty memory tier, every result re-hydrated from disk — must be
at least 10x faster than the cold computing pass, and every re-hydrated
result ``equal`` (<= 1e-9 dB) to its computed twin.  The row is
archived in the perf trajectory (``BENCH_<pr>.json``).
"""

import tempfile

from bench_utils import run_once, timed, write_bench_rows
from repro.experiments import REGISTRY
from repro.experiments.runner import Runner

TAG = "figure"
MIN_WARM_SPEEDUP = 10.0
PARITY_DB = 1e-9


def run_store_comparison():
    """Cold computing ``run_all`` vs warm store re-hydration."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        cold_runner = Runner(REGISTRY, store=tmp)
        cold, cold_s = timed(cold_runner.run_all, tag=TAG)
        # A fresh runner on the same store: empty memory tier, so every
        # result must come back through the disk tier.
        warm_runner = Runner(REGISTRY, store=tmp)
        warm, warm_s = timed(warm_runner.run_all, tag=TAG)
        stats = warm_runner.store.stats
    mismatched = [ours.name for ours, theirs in zip(cold, warm)
                  if not ours.equal(theirs, tolerance=PARITY_DB)]
    return {
        "label": f"{TAG} tag, warm store vs cold compute",
        "experiments": len(cold),
        "slow_ms": cold_s * 1e3,
        "fast_ms": warm_s * 1e3,
        "speedup_x": cold_s / warm_s,
        "store_hits": stats.hits,
        "store_misses": stats.misses,
        "mismatched": mismatched,
    }


def test_bench_warm_store_run_all(benchmark):
    row = run_once(benchmark, run_store_comparison)
    write_bench_rows(
        "warm result store vs cold compute", [row],
        meta={"min_speedup_x": MIN_WARM_SPEEDUP})

    print(f"\nwarm store run-all: {row['slow_ms']:.0f} ms cold vs "
          f"{row['fast_ms']:.1f} ms warm ({row['speedup_x']:.0f}x)")

    assert row["mismatched"] == [], row
    assert row["store_hits"] >= row["experiments"], row
    assert row["speedup_x"] >= MIN_WARM_SPEEDUP, row
