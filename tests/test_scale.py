import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhplab.errors import DomainError
from bhplab.scale import ScaleFunction


def test_power_scale_values():
    phi = ScaleFunction.power(1.5)
    assert phi(0.0) == 0.0
    assert phi(1.0) == 1.0
    assert np.isclose(phi(4.0), 8.0)


def test_negative_radius_rejected():
    phi = ScaleFunction.power(1.0)
    with pytest.raises(DomainError):
        phi(-0.1)


@given(st.floats(0.1, 1.99), st.floats(1e-8, 1e8), st.floats(1.0001, 10.0))
@settings(max_examples=200, deadline=None)
def test_power_scale_strictly_increasing(alpha, r, factor):
    phi = ScaleFunction.power(alpha)
    assert phi(r * factor) > phi(r)


def test_geometric_stable_branches():
    phi = ScaleFunction.geometric_stable(1.0)
    assert phi(0.0) == 0.0
    assert phi(1.0) == 1.0
    # logarithmic below 1, power above
    assert np.isclose(phi(np.exp(-3.0)), 1.0 / 4.0)
    assert np.isclose(phi(10.0), 10.0)
    r = np.logspace(-12, 6, 200)
    vals = phi(r)
    assert np.all(np.diff(vals) > 0)


def test_geometric_stable_is_barely_growing_at_small_r():
    phi = ScaleFunction.geometric_stable(0.7)
    # phi(2r)/phi(r) -> 1 as r -> 0: the hallmark of a non-reverse-doubling scale
    ratios = phi(2 * np.logspace(-12, -9, 10)) / phi(np.logspace(-12, -9, 10))
    assert np.all(ratios < 1.05)


def test_tabulated_scale_interpolates_and_normalizes():
    r = np.logspace(-2, 2, 30)
    phi = ScaleFunction.tabulated(r, 3.0 * r ** 0.5)
    assert np.isclose(phi(1.0), 1.0)        # renormalized
    assert np.isclose(phi(4.0), 2.0, rtol=1e-6)
    assert np.isclose(phi(0.25), 0.5, rtol=1e-6)


def test_tabulated_extrapolation_forbidden():
    phi = ScaleFunction.tabulated([0.1, 1.0, 10.0], [0.1, 1.0, 10.0])
    with pytest.raises(DomainError):
        phi(100.0)
    with pytest.raises(DomainError):
        phi(0.01)
    assert phi.r_max == pytest.approx(10.0)


def test_tabulated_requires_monotone_table():
    with pytest.raises(DomainError):
        ScaleFunction.tabulated([0.1, 1.0, 10.0], [1.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        ScaleFunction.tabulated([2.0, 3.0], [1.0, 2.0])  # does not bracket 1
