"""Normalizing constant of the 1-D fractional Laplacian, on the standard library's Gamma."""

import math


def frac_constant(s: float) -> float:
    """Normalizing constant C(1, s) of the integral fractional Laplacian of order s on a line.

    C(1, s) = s * 4^s * Gamma(1/2 + s) / (sqrt(pi) * Gamma(1 - s)),
    which vanishes as s -> 1- (pole of Gamma(1 - s)) and as s -> 0+.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    return float(s * 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s)))
