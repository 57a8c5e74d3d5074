"""ProbeGrid input contract: non-finite values and product-axis rank.

``ProbeGrid.product`` and ``ProbeGrid.aligned`` are the boundary every
probe crosses.  A NaN or infinite value on any axis, or a product axis
with more than one dimension, raises :class:`ProbeGridError` (a
``ValueError``) when the grid is built — never a silent NaN power, a
``RuntimeWarning`` from the budget, or a quietly flattened shape.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.grid import GRID_AXES, ProbeGrid, ProbeGridError
from repro.experiments.scenarios import TransmissiveScenario

NON_FINITE = (float("nan"), float("inf"), float("-inf"))

finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False), min_size=1, max_size=8)


@st.composite
def poisoned_axis(draw):
    """An axis name and finite values with one NaN/±inf planted."""
    name = draw(st.sampled_from(GRID_AXES))
    values = draw(finite_values)
    index = draw(st.integers(min_value=0, max_value=len(values) - 1))
    values[index] = draw(st.sampled_from(NON_FINITE))
    return name, values


class TestNonFiniteValues:
    @given(poisoned_axis())
    @settings(max_examples=60, deadline=None)
    def test_product_rejects_any_non_finite_value(self, axis):
        name, values = axis
        with pytest.raises(ProbeGridError, match=name):
            ProbeGrid.product(**{name: np.array(values)})

    @given(poisoned_axis())
    @settings(max_examples=60, deadline=None)
    def test_aligned_rejects_any_non_finite_value(self, axis):
        name, values = axis
        with pytest.raises(ProbeGridError, match=name):
            ProbeGrid.aligned(**{name: np.array(values)[:, None]})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("build", [ProbeGrid.product, ProbeGrid.aligned])
    def test_non_finite_scalar_pin_is_rejected(self, build, bad):
        with pytest.raises(ProbeGridError):
            build(frequency=bad, vx=np.array([1.0, 2.0]))

    @given(st.sampled_from(GRID_AXES), finite_values)
    @settings(max_examples=40, deadline=None)
    def test_finite_values_build(self, name, values):
        grid = ProbeGrid.product(**{name: np.array(values)})
        assert grid.shape == (len(values),)
        np.testing.assert_array_equal(grid.values(name), values)

    def test_error_is_a_value_error(self):
        assert issubclass(ProbeGridError, ValueError)


class TestProductAxisRank:
    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (2, 1, 2)])
    def test_multi_dimensional_product_axis_is_rejected(self, shape):
        with pytest.raises(ProbeGridError, match="vx"):
            ProbeGrid.product(vx=np.zeros(shape), vy=np.zeros(3))

    def test_aligned_keeps_multi_dimensional_axes(self):
        grid = ProbeGrid.aligned(vx=np.zeros((2, 2)), vy=np.zeros((2, 1)))
        assert grid.shape == (2, 2)


class TestEvaluationNeverSeesNonFiniteAxes:
    """Non-finite link parameters never reach the budget, end to end."""

    @pytest.mark.parametrize("axis, bad", [
        ("tx_power", float("nan")),
        ("frequency", float("nan")),
        ("rx_orientation", float("nan")),
        ("distance", float("inf")),
    ])
    def test_aligned_probe_raises_before_evaluation(self, axis, bad):
        link = TransmissiveScenario().link()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProbeGridError, match=axis):
                link.evaluate_grid(ProbeGrid.aligned(
                    **{axis: np.array([bad, 1.0])}, vx=5.0, vy=5.0))
