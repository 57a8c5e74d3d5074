"""Two-axis scenario runners: gain surface and coverage map.

The N-D grid engine's figure plane: a joint frequency x distance gain
surface (the two-axis generalisation of Figs. 16/17) and a tx-power x
distance capacity coverage map (the envelope view of Figs. 18/19),
every cell optimized by the grid-native Algorithm 1 in batched probes.
"""

import numpy as np

from bench_utils import run_once
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_experiment


def run_two_axis_scenarios():
    gain = run_experiment("gain_surface").payload
    coverage = run_experiment("coverage_map").payload
    return gain, coverage


def test_bench_two_axis_scenarios(benchmark):
    gain, coverage = run_once(benchmark, run_two_axis_scenarios)

    rows = [[f / 1e9] + list(gain.gain_db[i])
            for i, f in enumerate(gain.frequencies_hz)]
    print()
    print(format_table(
        ["freq (GHz) \\ dist (m)"] + [f"{d:.2f}" for d in gain.distances_m],
        rows, precision=1,
        title="Gain surface - optimized improvement (dB) over the "
              "frequency x distance grid"))

    rows = [[p] + ["#" if w else ("+" if ww else ".")
                   for w, ww in zip(coverage.covered_without[i],
                                    coverage.covered_with[i])]
            for i, p in enumerate(coverage.tx_powers_dbm)]
    print()
    print(format_table(
        ["Tx (dBm) \\ dist (m)"] + [f"{d:.1f}" for d in coverage.distances_m],
        rows, precision=0,
        title=f"Coverage map at {coverage.threshold_bps_hz:.0f} bit/s/Hz "
              "(# baseline covers, + only with surface, . uncovered)"))
    print("\ncoverage with surface   : "
          f"{coverage.coverage_fraction_with:.0%}")
    print("coverage without surface: "
          f"{coverage.coverage_fraction_without:.0%}")
    print("opened by the surface   : "
          f"{coverage.newly_covered_fraction:.0%} of the envelope")

    # Shape: the surface helps across the whole joint band/distance grid,
    # most at the mismatch-dominated short range.
    assert gain.min_gain_db > 8.0
    assert gain.gain_db.shape == (len(gain.frequencies_hz),
                                  len(gain.distances_m))
    # Coverage: the surface strictly extends the operating envelope.
    assert coverage.coverage_fraction_with > coverage.coverage_fraction_without
    assert coverage.newly_covered_fraction > 0.05
    # Monotonicity: more power never shrinks coverage.
    covered_per_power = np.sum(coverage.covered_with, axis=1)
    assert np.all(np.diff(covered_per_power) >= 0)
