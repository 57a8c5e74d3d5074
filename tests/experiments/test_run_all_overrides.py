"""``Runner.run_all``: per-experiment overrides and warm re-runs.

``overrides`` maps experiment names to parameter overrides for that
experiment only; an unknown name fails before anything runs.  A second
``run_all`` on the same runner is served entirely from its memory tier
and reports every slice as ``cached``.
"""

import io

import pytest

from repro.experiments.registry import REGISTRY
from repro.experiments.runner import ProgressReporter, Runner


def test_overrides_reach_only_the_named_experiment():
    results = Runner(REGISTRY).run_all(
        tag="figure", smoke=True, overrides={"fig12": {"distance_m": 0.30}})
    by_name = {result.name: result for result in results}
    assert by_name["fig12"].params["distance_m"] == 0.30
    assert by_name["fig12"].equal(
        Runner(REGISTRY).run("fig12", smoke=True, distance_m=0.30))
    untouched = by_name["fig16"]
    assert untouched.equal(Runner(REGISTRY).run("fig16", smoke=True))


def test_unknown_override_name_fails_loudly():
    with pytest.raises(KeyError):
        Runner(REGISTRY).run_all(smoke=True, overrides={"nope": {}})


def test_second_run_all_is_all_cached():
    runner = Runner(REGISTRY)
    first = runner.run_all(tag="design", smoke=True)
    progress = ProgressReporter(total=len(first), stream=io.StringIO())
    again = runner.run_all(tag="design", smoke=True, progress=progress)
    assert (progress.cached, progress.computed) == (len(first), 0)
    assert [result.name for result in again] == list(REGISTRY.names("design"))
    for ours, theirs in zip(first, again):
        assert ours.equal(theirs)
