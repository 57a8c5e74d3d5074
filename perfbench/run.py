"""Repository benchmark: four seeded workloads, checked while timed.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Workloads: ``serve_mixed``, ``world_timeline``, ``fleet_search`` and
``run_all`` (see ``workloads.py`` and ``BENCHMARK.json``).  The process
pins the BLAS/OpenMP thread pools to one thread, measures set-up time
in fresh child processes, then repeats the workload's pass until
``--seconds`` have elapsed (at least three passes) and checks every
pass's outputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` untraced and traced passes alternate
and the metrics are the per-layer ones (see ``layers.py``) plus the
tracing overhead.  The line before it is a JSON detail record: machine
fingerprint, replay digests, the named metrics of the workload and the
raw per-pass times.  Exits 2, printing no result, when the package
under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread-pool variables pinned to one thread before NumPy is imported.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh-process set-up measurements per run (the median is reported).
SETUP_SAMPLES = 5

#: Passes (untraced, and traced with ``--trace 1``) every run makes.
MIN_PASSES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (used "
                             "to time set-up in a fresh process)")
    return parser.parse_args(argv)


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ[name] for name in THREAD_VARIABLES},
        "machine": platform.machine(),
    }


def _setup_sample(args) -> float:
    """Seconds from process start until the workload's inputs exist."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    start = time.perf_counter()
    # No timeout: waiting with one polls the child in 50 ms steps, which
    # would quantize the sample.  A hung child is caught by the caller's
    # own time limit.
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _measure(workload, seconds: float, traced: bool):
    """Alternate passes until time is up; check every pass's outputs."""
    from layers import layer_metrics
    from repro.channel.link import probe_evaluations
    from tracer import Tracer, leaked_wrappers

    plain, layered = [], []
    attempted = failed = 0
    absent, leaked = set(), set(leaked_wrappers())
    first = None
    deadline = time.perf_counter() + seconds
    while (len(plain) < MIN_PASSES or time.perf_counter() < deadline):
        kinds = (False, True) if traced else (False,)
        for with_spans in kinds:
            tracer = Tracer()
            before = probe_evaluations()
            if with_spans:
                with tracer.installed():
                    run = workload.run_pass()
                leaked.update(leaked_wrappers())
                absent.update(tracer.absent)
            else:
                run = workload.run_pass()
            budget_passes = probe_evaluations() - before
            first = first or run
            ops, misses = workload.check(run, first)
            attempted += ops
            failed += misses
            if with_spans:
                layered.append((run, layer_metrics(tracer, run, budget_passes),
                                tracer.top_level_ms(run.window_ns)))
            else:
                plain.append(run)
            if run is not first:
                run.outputs = None  # keep memory flat across passes
    leaked.update(leaked_wrappers())
    return plain, layered, attempted, failed, sorted(absent), sorted(leaked)


def _median(values) -> float:
    return float(statistics.median(values))


def _traced_metrics(plain, layered, absent) -> dict:
    from layers import PER_LAYER

    metrics = {name: _median([entry[1][name] for entry in layered])
               for name, _unit in PER_LAYER if not name.startswith("trace.")}
    untraced_s = _median([run.wall_s for run in plain])
    traced_s = _median([run.wall_s for run, _m, _top in layered])
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.span_coverage"] = _median(
        [top_ms / (run.wall_s * 1e3) for run, _m, top_ms in layered])
    metrics["trace.absent_layers"] = float(len(absent))
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the package under test: {error}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {repro.__file__}, not the package under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    factory = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        factory(args.seed)
        return 0

    setup_samples = [_setup_sample(args) for _ in range(SETUP_SAMPLES)]
    workload = factory(args.seed)
    plain, layered, attempted, failed, absent, leaked = _measure(
        workload, args.seconds, bool(args.trace))

    from layers import UNITS

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [run.wall_s for run in plain]
    end_to_end = {
        "setup_s": (_median(setup_samples), "s"),
        "wall_s": (_median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    named = {
        "setup_s": end_to_end["setup_s"],
        "failed_share": (failed / attempted, "ratio"),
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        **workload.named(plain),
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": _machine(), "digests": workload.digests(),
        "named_metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in named.items()},
        "work_unit": workload.unit,
        "work_per_pass": plain[0].work, "pass_wall_s": walls,
        "setup_samples_s": setup_samples, "python_threads":
        threading.active_count(), "absent_layers": absent,
        "leaked_wrappers": leaked,
    }
    if args.trace:
        values = _traced_metrics(plain, layered, absent)
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
        traced_walls = [run.wall_s for run, _m, _t in layered]
        detail["traced_pass_wall_s"] = traced_walls
        # Inclusive layer time as a share of a traced pass (nested layers
        # overlap, so the shares do not sum to one).
        detail["layer_shares"] = {
            name: value / (_median(traced_walls) * 1e3)
            for name, value in values.items()
            if UNITS[name] == "ms" and not name.startswith(("trace.",
                                                            "serve.virtual"))}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": failed == 0 and not leaked,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
