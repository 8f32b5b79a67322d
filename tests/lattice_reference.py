"""Reference Weierstrass sums for parity tests.

These are `braidoka.lattice.wp` and `wp_prime` as they were before each
lattice row was summed in closed form: square-cutoff lattice sums (numpy)
at radii R, R/2 and R/4, combined by Richardson extrapolation to cancel
the 1/R^2 and 1/R^3 terms.  They reach about 1e-7 relative for
0.8 <= Im tau <= 2 and share with the code under test only the reduction
of zeta into the cell around the origin, which is an exact lattice
translation.
"""

from __future__ import annotations

import numpy as np

from braidoka.lattice import _reduce_cell


def wp_sum(z: complex, tau: complex, radius: int) -> complex:
    """Square-cutoff Weierstrass sum: 1/z^2 + sum over |n|,|m| <= R of the
    regularized terms 1/(z-w)^2 - 1/w^2."""
    r = np.arange(-radius, radius + 1)
    n, m = np.meshgrid(r, r, indexing="ij")
    w = (n + m * tau)[~((n == 0) & (m == 0))]
    return complex(1.0 / z**2 + np.sum(1.0 / (z - w) ** 2 - 1.0 / w**2))


def wp_prime_sum(z: complex, tau: complex, radius: int) -> complex:
    """Square-cutoff sum of -2/(z-w)^3 over the lattice box (including 0)."""
    r = np.arange(-radius, radius + 1)
    n, m = np.meshgrid(r, r, indexing="ij")
    w = (n + m * tau).ravel()
    return complex(np.sum(-2.0 / (z - w) ** 3))


def _extrapolate(sum_at, radius: int) -> complex:
    s1 = sum_at(radius)
    s2 = sum_at(radius // 2)
    s3 = sum_at(radius // 4)
    return (32 * s1 - 12 * s2 + s3) / 21


def wp(zeta: complex, tau: complex, radius: int = 60) -> complex:
    zred = _reduce_cell(complex(zeta), complex(tau))
    return _extrapolate(lambda r: wp_sum(zred, tau, r), radius)


def wp_prime(zeta: complex, tau: complex, radius: int = 60) -> complex:
    zred = _reduce_cell(complex(zeta), complex(tau))
    return _extrapolate(lambda r: wp_prime_sum(zred, tau, r), radius)
