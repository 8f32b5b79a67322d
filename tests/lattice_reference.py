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

`_reduce_modulus` and `_reduce_cell` are `braidoka.lattice`'s float
reduction as it was before the lattice was reduced in integers: up to 64
steps tau -> tau - round(Re tau) and tau -> -1/tau, f the float product of
the swapped moduli, and zeta translated into the cell by two float
roundings.  They are the oracle that the exact reduction gives the same
tau', f and half-period classes wherever the float one is accurate.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np

from braidoka._purekernels import _exp_and_complement


def _reduce_cell(zeta: complex, tau: complex) -> complex:
    """Translate zeta by a lattice vector into the cell around the origin.

    The function is exactly periodic, so this costs nothing and leaves
    |Im zeta| <= Im tau / 2, where every term of the row series has
    modulus below 1 and the rows shrink geometrically.
    """
    m = round(zeta.imag / tau.imag)
    n = round(zeta.real - m * tau.real)
    return zeta - n - m * tau


def _reduce_modulus(tau: complex) -> tuple[complex, complex]:
    """(tau', f) with Z + tau Z = f (Z + tau' Z) and tau' in the standard
    fundamental domain, so Im tau' >= sqrt(3)/2; tau needs Im tau > 0.

    Unimodular steps never change the lattice: tau -> tau - round(Re tau)
    keeps f, and tau -> -1/tau multiplies f by tau.  If the 64 steps run
    out and leave tau' outside the standard domain (|Re tau'| > 1/2 or
    |tau'| < 1 - 1e-12), every zeta lies within 3^-31.5 ~ 1e-15 of
    f (Z + tau' Z), so `_cell_point` raises PoleProximity for it without
    reducing anything.  A swap that another follows has |tau| <= 1/sqrt(3):
    w = -1/tau lies outside |w -+ 1| < 1, so |w - n| < 1 needs |n| >= 2,
    where |w|^2 >= 2 |Re w| >= 3.  With tau' = -1/tau_63, the reduced z
    has |f z| <= |tau_0 ... tau_62| (1 + |tau_63|)/2 < 3^-31.5.  For a
    reduced tau', rounding zeta / f into the cell adds a few ulp(|zeta|),
    so the pole test is decided to within a few ulp(|zeta|).

    A swap whose -1/tau overflows a float (|tau| below about 5.6e-309)
    is a ValueError that names tau, as in `_rescale`: f tau is then a
    lattice vector so short that wp and wp' overflow a float.
    """
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    f = 1
    for _ in range(64):
        shift = round(tau.real)
        if shift:
            tau = tau - shift
        if abs(tau) < 1 - 1e-12:
            f = f * tau
            tau = -1 / tau
            if not cmath.isfinite(tau):
                raise ValueError(f"tau gives a lattice vector too short for a finite value "
                                 f"({abs(f):.3g}): -1/tau overflows a float")
        else:
            break
    return tau, f


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


_SCALE = 2**1074  # every float times this is an integer


def _scaled(x: float) -> int:
    n, d = float(x).as_integer_ratio()
    return n * (_SCALE // d)


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1]


def gauss_basis(tau: complex):
    """A Gauss reduced basis (u, v) of 2^1074 (Z + tau Z), as integer
    vectors with |2 <u, v>| <= |u|^2 <= |v|^2."""
    u, v = (_SCALE, 0), (_scaled(tau.real), _scaled(tau.imag))
    if _dot(u, u) > _dot(v, v):
        u, v = v, u
    while True:
        uu = _dot(u, u)
        mu = (2 * _dot(u, v) + uu) // (2 * uu)  # the integer nearest <u, v>/<u, u>
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if _dot(v, v) >= uu:
            return u, v
        u, v = v, u


def near_lattice(zeta: complex, tau: complex, tol: float) -> bool:
    """Whether zeta lies within tol of Z + tau Z, decided exactly.

    Every float is a dyadic rational of denominator at most 2^1074, so
    zeta, tau and tol times 2^1074 are integers.  The basis (1, tau) is
    Gauss reduced in integers (`gauss_basis`); the lattice point closest
    to zeta is then a corner of the cell of the reduced basis that holds
    zeta, and each corner's squared distance is compared with tol^2
    exactly.
    """
    u, v = gauss_basis(tau)
    z = (_scaled(zeta.real), _scaled(zeta.imag))
    det = u[0] * v[1] - u[1] * v[0]
    x = (z[0] * v[1] - z[1] * v[0]) // det
    y = (u[0] * z[1] - u[1] * z[0]) // det
    t = _scaled(tol)
    for i in (x, x + 1):
        for j in (y, y + 1):
            d = (z[0] - i * u[0] - j * v[0], z[1] - i * u[1] - j * v[1])
            if _dot(d, d) < t * t:
                return True
    return False


def theta_wp(zeta: complex, tau: complex) -> tuple[complex, complex]:
    """wp and wp' of Z + tau Z at zeta from theta quotients (DLMF 23.6.5,
    and wp' = -2 pi^3 (theta_2 theta_3 theta_4)^2 theta_2(xi) theta_3(xi)
    theta_4(xi) / theta_1(xi)^3 with xi = pi z, from DLMF 23.6.5-23.6.7 and
    the pole -2/z^3), in mpmath.

    tau is reduced by `gauss_basis` to tau' = v / u and zeta / f, f = u /
    2^1074, into the cell |t| <= 1/2 of z = s + t tau', both exactly in
    Fractions, so only the theta series round.  Their terms grow like
    exp(pi |Im xi|) <= exp(pi^2 Im tau' / 2) before they cancel, so the
    precision is sized by Im tau': 128 bits plus 8 per unit of Im tau'.
    """
    u, v = gauss_basis(tau)
    det = u[0] * v[1] - u[1] * v[0]
    if det < 0:
        v, det = (-v[0], -v[1]), -det
    z = (_scaled(zeta.real), _scaled(zeta.imag))
    s = Fraction(z[0] * v[1] - z[1] * v[0], det)
    t = Fraction(u[0] * z[1] - u[1] * z[0], det)
    s, t = s - round(s), t - round(t)
    im = det / _dot(u, u)
    with mpmath.workprec(128 + 8 * math.ceil(im)):
        f = mpmath.mpc(u[0], u[1]) / _SCALE
        rtau = mpmath.mpc(v[0], v[1]) / mpmath.mpc(u[0], u[1])
        xi = mpmath.pi * (mpmath.mpf(s.numerator) / s.denominator
                          + mpmath.mpf(t.numerator) / t.denominator * rtau)
        q = mpmath.exp(1j * mpmath.pi * rtau)
        t2, t3, t4 = (mpmath.jtheta(k, 0, q) for k in (2, 3, 4))
        j1, j2, j3, j4 = (mpmath.jtheta(k, xi, q) for k in (1, 2, 3, 4))
        p = mpmath.pi**2 / 3 * (t3**4 + t4**4) + (mpmath.pi * t3 * t4 * j2 / j1) ** 2
        pp = -2 * mpmath.pi**3 * (t2 * t3 * t4) ** 2 * j2 * j3 * j4 / j1**3
        return complex(p / f**2), complex(pp / f**3)
