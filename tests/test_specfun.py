import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.specfun import frac_constant, gamma


def test_gamma_at_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_at_five():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_at_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("n", range(1, 16))
def test_integer_factorials(n):
    assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)


def test_recurrence_on_random_arguments():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.5, 20.0, size=1000)
    for x in xs:
        lhs = gamma(x + 1.0)
        assert abs(lhs - x * gamma(x)) <= 1e-12 * lhs


def test_agrees_with_stdlib():
    for x in np.linspace(0.05, 30.0, 601):
        assert gamma(float(x)) == pytest.approx(math.gamma(x), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
def test_gamma_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        gamma(bad)


@given(st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=200)
def test_recurrence_property(x):
    lhs = gamma(x + 1.0)
    assert abs(lhs - x * gamma(x)) <= 1e-12 * lhs


def test_constant_dimension_one_half_order():
    # s 2^(2s) Gamma((1+2s)/2) / (sqrt(pi) Gamma(1-s)) at s = 1/2 collapses
    # to 1/pi after substituting Gamma(1) = 1 and Gamma(1/2) = sqrt(pi).
    assert frac_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-13)


def test_constant_dimension_two_half_order():
    # 0.5 * 2 * Gamma(1.5) / (pi * Gamma(0.5)) = 1 / (2 pi) exactly.
    assert frac_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)


def test_limit_factor_two_near_one():
    # Gamma(1-s) ~ 1/(1-s) near s = 1, so value/(1-s) -> 2 in dimension 1.
    assert frac_constant(1, 0.999) / (1.0 - 0.999) == pytest.approx(2.0, rel=0.01)


def test_vanishes_at_both_endpoints():
    ladder = 1.0 - np.logspace(-1, -8, 8)  # s -> 1-
    values = [frac_constant(1, float(s)) for s in ladder]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] < 1e-6
    ladder = np.logspace(-1, -8, 8)  # s -> 0+
    values = [frac_constant(1, float(s)) for s in ladder]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] < 1e-6


@pytest.mark.parametrize("s", [-0.1, 0.0, 1.0, 1.5])
def test_constant_rejects_order_outside_unit_interval(s):
    with pytest.raises(ValueError):
        frac_constant(1, s)


def test_constant_rejects_bad_dimension():
    with pytest.raises(ValueError):
        frac_constant(0, 0.5)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200)
def test_constant_positive(N, s):
    assert frac_constant(N, s) > 0.0
