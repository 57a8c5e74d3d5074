"""Evaluation harness: a declarative registry of paper experiments.

``scenarios`` builds the canonical experimental setups of paper Sec. 4,
``sweeps`` provides the generic parameter-sweep drivers, ``figures``
registers one experiment per table/figure of the evaluation (each
returning a plain-data payload inside an
:class:`~repro.experiments.runner.ExperimentResult` envelope),
``reporting`` renders results as text tables, ``registry``/``runner``
hold the experiment catalogue and its execution engine, and ``cli``
backs ``python -m repro.experiments`` (list / describe / run /
run-all / coverage).

Importing this package registers the full catalogue in
:data:`~repro.experiments.registry.REGISTRY`.
"""

from repro.experiments.scenarios import (
    IOT_SCENARIOS,
    TransmissiveScenario,
    ReflectiveScenario,
    iot_wifi_scenario,
    iot_ble_scenario,
    iot_zigbee_scenario,
)
from repro.experiments.sweeps import (
    distance_sweep,
    frequency_sweep,
    tx_power_sweep,
    voltage_grid_sweep,
)
from repro.experiments.registry import (
    REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
    Param,
    ParameterError,
    experiment,
)
from repro.experiments.runner import (
    ExperimentResult,
    ProgressReporter,
    Runner,
    default_runner,
    run_experiment,
)
from repro.experiments.store import ResultStore, code_fingerprint
from repro.experiments import figures
from repro.experiments import robustness
from repro.experiments import serving
from repro.experiments import worlds
from repro.experiments.reporting import format_table, format_series

__all__ = [
    "IOT_SCENARIOS",
    "TransmissiveScenario",
    "ReflectiveScenario",
    "iot_wifi_scenario",
    "iot_ble_scenario",
    "iot_zigbee_scenario",
    "distance_sweep",
    "frequency_sweep",
    "tx_power_sweep",
    "voltage_grid_sweep",
    "REGISTRY",
    "ExperimentRegistry",
    "ExperimentSpec",
    "Param",
    "ParameterError",
    "experiment",
    "ExperimentResult",
    "Runner",
    "ResultStore",
    "ProgressReporter",
    "code_fingerprint",
    "default_runner",
    "run_experiment",
    "figures",
    "robustness",
    "serving",
    "worlds",
    "format_table",
    "format_series",
]
