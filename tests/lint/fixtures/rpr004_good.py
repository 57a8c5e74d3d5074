# repro-lint: role=figures
"""RPR004 fixture: a registration with coverage + smoke (no findings)."""

from repro.experiments.registry import Param, experiment
from repro.experiments.runner import run_experiment


@experiment(
    "covered",
    title="covered experiment",
    params=(Param("sample_count", "int", 100, "samples"),),
    scenarios=("transmissive",),
    axes=("frequency",),
    modules=("channel",),
    smoke={"sample_count": 5},
)
def _run_covered(sample_count):
    return float(sample_count)


def covered_payload():
    return run_experiment("covered").payload
