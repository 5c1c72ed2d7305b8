"""Legendre basis for uniformly distributed inputs on [-1, 1].

Univariate polynomials are generated with the three-term recurrence

    L_0(x) = 1,   L_1(x) = x,
    (n + 1) L_{n+1}(x) = (2n + 1) x L_n(x) - n L_{n-1}(x),

and are orthogonal with respect to the uniform density 1/2 on [-1, 1]:
the inner product of L_i with L_j is 1/(2i + 1) when i == j and 0
otherwise.  Multivariate basis functions are tensor products of the
univariate polynomials, one factor per input dimension, identified by a
multi-index of per-dimension degrees.

Only the Legendre/uniform pairing is implemented.  Bases for other input
distributions (Hermite for normal, Laguerre for exponential, ...) are a
documented extension point, not provided here.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

# Guards against runaway configuration (e.g. an order/level typo); degrees
# used in practice stay far below this.
DEGREE_CAP = 64


def legendre_table(max_degree: int, x) -> np.ndarray:
    """Evaluate L_0 .. L_max_degree at each x, as a degree-major
    (max_degree + 1, len(x)) array: row n holds L_n at every point.

    One recurrence pass shared by all degrees; used on hot paths where many
    degrees are needed at the same points.  Each row is contiguous, so
    gathering the rows of a list of degrees copies whole blocks.
    """
    if max_degree < 0:
        raise ConfigurationError(f"polynomial degree must be >= 0, got {max_degree}")
    if max_degree > DEGREE_CAP:
        raise ConfigurationError(f"polynomial degree {max_degree} exceeds the cap of {DEGREE_CAP}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((max_degree + 1, arr.size))
    table[0] = 1.0
    if max_degree == 0:
        return table
    table[1] = arr
    for k in range(1, max_degree):
        table[k + 1] = ((2 * k + 1) * arr * table[k] - k * table[k - 1]) / (k + 1)
    return table
