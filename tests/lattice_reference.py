"""Reference Weierstrass sums for parity tests.

`wp` and `wp_prime` are `braidoka.lattice.wp` and `wp_prime` as they were
before each lattice row was summed in closed form: square-cutoff lattice
sums (numpy) at radii R, R/2 and R/4, combined by Richardson extrapolation
to cancel the 1/R^2 and 1/R^3 terms.  They reach about 1e-7 relative for
0.8 <= Im tau <= 2 and share with the code under test only the reduction
of zeta into the cell around the origin, which is an exact lattice
translation.

`row_series` and `row_series_prime` are the closed-form row series summed
over all `radius` rows on each side, with no early stop: the kernels
`_purekernels.wp_sum` and `wp_prime_sum` as they were before they stopped
at rounding, in the same operations, so that on most points the two agree
bit for bit.  They share with the kernels only `_exp_and_complement`, the
pole term.

`near_lattice` decides in integer arithmetic whether a point lies within a
tolerance of Z + tau Z, with nothing from the code under test.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from braidoka._purekernels import _exp_and_complement
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


def row_series(z: complex, tau: complex, radius: int) -> complex:
    """wp(z) = pi^2 csc^2(pi z) - pi^2/3 + the rows n and -n for
    1 <= n <= radius, each pair summed in closed form in x = exp(2 pi i u).
    Expects |Im z| < Im tau."""
    if z.imag < 0:
        z = -z
    q = cmath.exp(2j * math.pi * tau)
    a = cmath.exp(2j * math.pi * (z + tau))
    b = cmath.exp(2j * math.pi * (tau - z))
    c = q
    rows = 0j
    for _ in range(radius):
        rows += a / (1 - a) ** 2 + b / (1 - b) ** 2 - 2 * c / (1 - c) ** 2
        a *= q
        b *= q
        c *= q
    x, y = _exp_and_complement(z)
    return -4 * math.pi**2 * (x / y**2 + rows) - math.pi**2 / 3


def row_series_prime(z: complex, tau: complex, radius: int) -> complex:
    """Derivative of `row_series` over the same rows."""
    if z.imag < 0:
        return -row_series_prime(-z, tau, radius)
    q = cmath.exp(2j * math.pi * tau)
    a = cmath.exp(2j * math.pi * (z + tau))
    b = cmath.exp(2j * math.pi * (tau - z))
    rows = 0j
    for _ in range(radius):
        rows += a * (1 + a) / (1 - a) ** 3 - b * (1 + b) / (1 - b) ** 3
        a *= q
        b *= q
    x, y = _exp_and_complement(z)
    return -8j * math.pi**3 * (x * (1 + x) / y**3 + rows)


def near_lattice(zeta: complex, tau: complex, tol: float) -> bool:
    """Whether zeta lies within tol of Z + tau Z, decided exactly.

    Every float is a dyadic rational of denominator at most 2^1074, so
    zeta, tau and tol times 2^1074 are integers.  The basis (1, tau) is
    Gauss reduced in integers; the lattice point closest to zeta is then a
    corner of the cell of the reduced basis that holds zeta, and each
    corner's squared distance is compared with tol^2 exactly.
    """
    def scaled(x: float) -> int:
        n, d = float(x).as_integer_ratio()
        return n * (2**1074 // d)

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1]

    u, v = (2**1074, 0), (scaled(tau.real), scaled(tau.imag))
    if dot(u, u) > dot(v, v):
        u, v = v, u
    while True:
        uu = dot(u, u)
        mu = (2 * dot(u, v) + uu) // (2 * uu)  # the integer nearest <u, v>/<u, u>
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if dot(v, v) >= uu:
            break
        u, v = v, u
    z = (scaled(zeta.real), scaled(zeta.imag))
    det = u[0] * v[1] - u[1] * v[0]
    x = (z[0] * v[1] - z[1] * v[0]) // det
    y = (u[0] * z[1] - u[1] * z[0]) // det
    t = scaled(tol)
    for i in (x, x + 1):
        for j in (y, y + 1):
            d = (z[0] - i * u[0] - j * v[0], z[1] - i * u[1] - j * v[1])
            if dot(d, d) < t * t:
                return True
    return False
