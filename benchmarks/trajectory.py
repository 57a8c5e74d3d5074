"""Persistent perf trajectory: the per-PR ``BENCH_<n>.json`` archive.

Every benchmark module appends its measured rows here instead of only
printing tables, so the repository carries a machine-readable record of
wall-clock, speedup and grid shape for each PR — the
``run_table.csv`` discipline applied to this repo's benchmarks.  The
archive for the current PR lives at the repo root as
``BENCH_{CURRENT_PR}.json``::

    {"pr": 10,
     "benchmarks": [
        {"benchmark": "warm result store vs cold compute",
         "meta": {"min_speedup_x": 10.0},
         "rows": [{"label": ..., "slow_ms": ..., "speedup_x": ...}, ...]},
        ...]}

``python -m repro.experiments bench-report`` renders every
``BENCH_*.json`` (this format and the earlier single-benchmark
``BENCH_7.json`` shape) as the perf trajectory across PRs.

Writes are idempotent per benchmark name: re-running a benchmark
replaces its block rather than appending duplicates, so a local pytest
run converges to one row set per benchmark.
"""

import json
import math
import os
import tempfile
from pathlib import Path

#: The PR this working tree is building; names the archive file.
CURRENT_PR = 10

REPO_ROOT = Path(__file__).resolve().parents[1]


def bench_archive_path(pr=CURRENT_PR):
    """Where the given PR's benchmark archive lives."""
    return REPO_ROOT / f"BENCH_{pr}.json"


def _plain(value):
    """JSON-ready copy of a row value (NumPy scalars become floats)."""
    if isinstance(value, (str, bool, int)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if hasattr(value, "item"):  # numpy scalar
        return _plain(value.item())
    return str(value)


def write_bench_rows(benchmark, rows, meta=None, pr=CURRENT_PR):
    """Append (or replace) one benchmark's rows in the PR archive.

    Parameters
    ----------
    benchmark:
        Series name; the block with this name is replaced if present.
    rows:
        List of flat dicts — one measurement per row (wall-clock,
        speedup, grid shape, worker count, ...).
    meta:
        Optional series-level metadata (gates, machine facts).
    pr:
        Archive to target; defaults to the current PR's.

    Returns the archive path.  A corrupt archive is rebuilt from
    scratch rather than crashing the benchmark that reports into it.
    """
    path = bench_archive_path(pr)
    data = {"pr": pr, "benchmarks": []}
    if path.is_file():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded.get("benchmarks"), list):
                data = loaded
        except (OSError, json.JSONDecodeError):
            pass
    block = {
        "benchmark": str(benchmark),
        "meta": _plain(dict(meta or {})),
        "rows": [_plain(dict(row)) for row in rows],
    }
    blocks = [existing for existing in data["benchmarks"]
              if existing.get("benchmark") != block["benchmark"]]
    blocks.append(block)
    blocks.sort(key=lambda existing: str(existing.get("benchmark", "")))
    data = {"pr": pr, "benchmarks": blocks}
    handle, temp_name = tempfile.mkstemp(dir=path.parent,
                                         prefix=f".{path.stem}-",
                                         suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(data, stream, indent=2)
            stream.write("\n")
        os.replace(temp_name, path)
    except BaseException:
        Path(temp_name).unlink(missing_ok=True)
        raise
    return path
