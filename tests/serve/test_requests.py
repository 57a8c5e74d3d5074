"""Request validation: every field the service reads is checked on entry.

A ``Request`` with a non-finite arrival time or bias, or a bias outside
the supply's ``[BIAS_VOLTAGE_MIN_V, BIAS_VOLTAGE_MAX_V]`` range, is
refused with a ``ValueError`` when it is built, so it can never reach
a coalesced batch, where one bad probe would fail ``serve_trace`` for
every request in the run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import BIAS_VOLTAGE_MAX_V, BIAS_VOLTAGE_MIN_V
from repro.serve import Request


def measure(**fields):
    base = dict(request_id=0, kind="measure", station="sta0",
                arrival_s=0.0, vx=5.0, vy=5.0)
    base.update(fields)
    return Request(**base)


out_of_range_bias = st.one_of(
    st.floats(max_value=BIAS_VOLTAGE_MIN_V, exclude_max=True),
    st.floats(min_value=BIAS_VOLTAGE_MAX_V, exclude_min=True),
    st.just(float("nan")))


class TestRejected:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1e-9])
    def test_arrival_time_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="arrival"):
            measure(arrival_s=bad)

    @given(st.sampled_from(["vx", "vy"]), out_of_range_bias)
    @settings(max_examples=60, deadline=None)
    def test_bias_outside_the_supply_range(self, field, bias):
        with pytest.raises(ValueError, match=field):
            measure(**{field: bias})


class TestAccepted:
    @given(st.floats(min_value=BIAS_VOLTAGE_MIN_V,
                     max_value=BIAS_VOLTAGE_MAX_V),
           st.floats(min_value=BIAS_VOLTAGE_MIN_V,
                     max_value=BIAS_VOLTAGE_MAX_V),
           st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_any_in_range_request_builds(self, vx, vy, arrival_s):
        request = measure(vx=vx, vy=vy, arrival_s=arrival_s)
        assert (request.vx, request.vy) == (vx, vy)

    def test_range_ends_are_inclusive(self):
        measure(vx=BIAS_VOLTAGE_MIN_V, vy=BIAS_VOLTAGE_MAX_V)
