# repro-lint: role=figures
"""RPR004 fixture: registry-hygiene violations.

Expected findings: 1 unregistered public fig* callable, 1 public fig*
shim over run_experiment, 1 registration with no coverage metadata,
1 parameterised registration with no smoke profile.
"""

from repro.experiments.registry import Param, experiment
from repro.experiments.runner import run_experiment


def fig99_unregistered(scale):
    return scale * 2.0


def fig98_shim():
    return run_experiment("bare").payload


@experiment("bare", title="no coverage metadata")
def _run_bare():
    return 1.0


@experiment(
    "needs_smoke",
    title="has params, no smoke",
    params=(Param("sample_count", "int", 100, "samples"),),
    modules=("channel",),
)
def _run_needs_smoke(sample_count):
    return float(sample_count)
