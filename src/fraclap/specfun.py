"""Gamma function and the normalizing constant of the fractional Laplacian."""

import numpy as np

# Lanczos coefficients, g = 7, 9 terms (double precision).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = 2.5066282746310002


def gamma(x: float) -> float:
    """Gamma function for positive real arguments (Lanczos approximation).

    Accurate to better than 1e-12 relative on [0.5, 30]; arguments in
    (0, 0.5) are handled through the reflection formula.
    """
    x = float(x)
    if not np.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires a positive finite argument, got {x}")
    if x < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x); 1-x lands in (0.5, 1].
        return np.pi / (np.sin(np.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * np.exp(-t) * acc


def frac_constant(N: int, s: float) -> float:
    """Normalizing constant C(N, s) of the integral fractional Laplacian of order s.

    C(N, s) = s * 2^(2s) * Gamma((N + 2s)/2) / (pi^(N/2) * Gamma(1 - s)),
    which vanishes as s -> 1- (pole of Gamma(1 - s)) and as s -> 0+.
    """
    if N < 1 or int(N) != N:
        raise ValueError(f"dimension must be a positive integer, got {N}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    N = int(N)
    return float(s * 4.0**s * gamma((N + 2.0 * s) / 2.0) / (np.pi ** (N / 2.0) * gamma(1.0 - s)))
