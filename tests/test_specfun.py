import math

import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.specfun import frac_constant


def test_constant_dimension_one_half_order():
    # s 2^(2s) Gamma((1+2s)/2) / (sqrt(pi) Gamma(1-s)) at s = 1/2 collapses
    # to 1/pi after substituting Gamma(1) = 1 and Gamma(1/2) = sqrt(pi).
    assert frac_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-13)


@pytest.mark.parametrize("s, closed_form", [
    # Gamma(1/2 + s) = Gamma(1 - s) at s = 1/4; Gamma(5/4) = Gamma(1/4) / 4 at s = 3/4.
    (0.25, math.sqrt(2.0) / (4.0 * math.sqrt(math.pi))),
    (0.75, 3.0 * math.sqrt(2.0) / (8.0 * math.sqrt(math.pi))),
])
def test_constant_quarter_orders(s, closed_form):
    assert frac_constant(s) == pytest.approx(closed_form, rel=1e-13)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95])
def test_constant_inverts_the_fourier_symbol_integral(s):
    # C(1, s) normalizes the symbol of (-Delta)^s to |xi|^(2s):
    # 1 / C(1, s) = int_R (1 - cos t) / |t|^(1+2s) dt, by quadrature with no Gamma.
    near, _ = quad(lambda t: 2.0 * math.sin(0.5 * t) ** 2 / (t * t) if t else 0.5, 0.0, 1.0,
                   weight="alg", wvar=(1.0 - 2.0 * s, 0.0), epsabs=0.0, epsrel=1e-13)
    far, _ = quad(lambda t: t ** (-1.0 - 2.0 * s), 1.0, math.inf, weight="cos", wvar=1.0)
    symbol = 2.0 * (near + 1.0 / (2.0 * s) - far)
    assert frac_constant(s) == pytest.approx(1.0 / symbol, rel=1e-9)


def test_limit_factor_two_near_one():
    # Gamma(1-s) ~ 1/(1-s) near s = 1, so value/(1-s) -> 2 in dimension 1.
    assert frac_constant(0.999) / (1.0 - 0.999) == pytest.approx(2.0, rel=0.01)


def test_vanishes_at_both_endpoints():
    ladder = 1.0 - np.logspace(-1, -8, 8)  # s -> 1-
    values = [frac_constant(float(s)) for s in ladder]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] < 1e-6
    ladder = np.logspace(-1, -8, 8)  # s -> 0+
    values = [frac_constant(float(s)) for s in ladder]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] < 1e-6


@pytest.mark.parametrize("s", [-0.1, 0.0, 1.0, 1.5, math.nan, math.inf, -math.inf])
def test_constant_rejects_order_outside_unit_interval(s):
    with pytest.raises(ValueError):
        frac_constant(s)


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200)
def test_constant_positive(s):
    assert frac_constant(s) > 0.0
