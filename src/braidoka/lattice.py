"""Numerical Weierstrass machinery: the elliptic function of a lattice, its
half-period values, and branch loci.

wp and wp' are series over the lattice rows m + n tau, each row summed in
closed form: sum_m 1/(u - m)^2 = pi^2 csc^2(pi u) (DLMF 23.8).  The
lattice Z + tau Z is first written as f (Z + tau' Z) with tau' in the
standard fundamental domain, so Im tau' >= sqrt(3)/2, and wp, wp' are read
off the lattice of tau' by homogeneity (DLMF 23.10.17).  Once zeta / f is
translated into the cell around the origin, the x = exp(2 pi i u) of row
n are below |q|^(n - 1/2), q = exp(2 pi i tau'), |q| <= exp(-pi sqrt 3) ~
0.0043.  The sums stop before the first row whose largest x is below
2^-70 (`_purekernels.wp_sum`), so the rows left out add at most 1.4e-19
to wp and 4.3e-19 to wp', far below ulp(pi^2/3) ~ 4.4e-16.  That is at
most 9 rows on each side, and 6 once Im tau' >= 1.4, so no row cap is
taken: the kernels' cap `_ROWS` never binds (`_reduce_modulus`).
Measured for |Re tau| <= 1/2, 0.8 <= Im tau <= 2: over 200 seeded tau,
e1, e2, e3 agree with mpmath theta constants (DLMF 23.6.2-23.6.4) to
1.2e-15 relative and the normalized residual of the cubic differential
equation (`ode_residual`) stays below 1.1e-12, also near zeta =
(1 + tau)/2, where wp' vanishes; over 60 seeded tau, wp and wp' agree
with a 40-digit theta quotient to 1e-15 and 8e-15 relative, at generic
points and down to 1e-7 from a lattice point.  Down to Im tau = 0.01,
e1, e2, e3 agree with mpmath to 2.1e-15 relative (tau = 0.3 + 0.05i,
0.45 + 0.02i and 0.01i).
"""

from __future__ import annotations

import cmath

from . import _purekernels
from ._value import Value
from .errors import PoleProximity

POLE_TOLERANCE = 1e-8
_ROWS = 10  # rows the kernels may sum on each side; a reduced tau needs 9


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
    out, tau' is unreduced, but every zeta then fails the pole test
    (`_cell_point`).  A swap that another follows has |tau| <= 1/sqrt(3):
    w = -1/tau lies outside |w -+ 1| < 1, so |w - n| < 1 needs |n| >= 2,
    where |w|^2 >= 2 |Re w| >= 3.  With tau' = -1/tau_63, the reduced z
    has |f z| <= |tau_0 ... tau_62| (1 + |tau_63|)/2 < 3^-31.5 ~ 1e-15.
    Rounding zeta / f into the cell adds a few ulp(|zeta|): measured, no
    tau passes unreduced for |zeta| <= 10^4, down to Im tau = 1e-300
    (`tests/test_lattice.py`), and a few do from |zeta| ~ 10^7 on.
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
        else:
            break
    return tau, f


def _cell_point(zeta: complex, tau: complex, f: complex) -> complex:
    """z = zeta / f reduced into the cell of Z + tau Z, (tau, f) from
    `_reduce_modulus`, after the test that zeta is not within POLE_TOLERANCE
    of f (Z + tau Z).  Every point of Z + tau Z but 0 lies at least
    sqrt(3)/4 from z, so |f z| decides that test alone unless |f|, the
    shortest lattice vector, is below 4 POLE_TOLERANCE / sqrt(3)."""
    z = _reduce_cell(zeta / f, tau)
    if abs(f * z) < POLE_TOLERANCE:
        raise PoleProximity(f"{zeta} is within {POLE_TOLERANCE} of a lattice point")
    return z


def _rescale(value: complex, f: complex, k: int) -> complex:
    """value / f**k: wp (k = 2) or wp' (k = 3) of the reduced lattice
    rescaled by homogeneity.  Once the shortest lattice vector f is below
    about 1e-154 (k = 2) or 1e-103 (k = 3) the result overflows a float,
    and below about 1e-162 or 1e-108 f**k itself underflows to 0:
    ValueError either way."""
    scale = f**k
    if scale:
        value /= scale
        if cmath.isfinite(value):
            return value
    raise ValueError(f"tau gives a lattice whose shortest vector ({abs(f):.3g}) "
                     "is too short: the value overflows a float")


def _half_period_values(tau: complex, rtau: complex, f: complex) -> tuple[complex, complex, complex]:
    """wp of Z + tau Z at 1/2, tau/2 and (1 + tau)/2; (rtau, f) = `_reduce_modulus(tau)`.

    All three pass the pole test before any is divided by f^2.  One half
    period is f/2 modulo the lattice, within |f|/2 of it, so PoleProximity
    comes first whenever |f| < 2 POLE_TOLERANCE, long before f^2
    underflows.
    """
    zs = [_cell_point(zeta, rtau, f) for zeta in (0.5 + 0j, tau / 2, (1 + tau) / 2)]
    return tuple(_purekernels.wp_sum(z, rtau, _ROWS) / f**2 for z in zs)


def wp(zeta: complex, tau: complex) -> complex:
    """The Weierstrass function of Z + tau Z at zeta, by homogeneity
    wp(zeta; f L) = f^-2 wp(zeta / f; L) (DLMF 23.10.17)."""
    zeta, (tau, f) = complex(zeta), _reduce_modulus(complex(tau))
    return _rescale(_purekernels.wp_sum(_cell_point(zeta, tau, f), tau, _ROWS), f, 2)


def wp_prime(zeta: complex, tau: complex) -> complex:
    """Derivative of the Weierstrass function: -2 sum 1/(zeta - w)^3,
    homogeneous of degree -3."""
    zeta, (tau, f) = complex(zeta), _reduce_modulus(complex(tau))
    return _rescale(_purekernels.wp_prime_sum(_cell_point(zeta, tau, f), tau, _ROWS), f, 3)


def e_values(tau: complex) -> tuple[complex, complex, complex]:
    """The half-period values (wp(1/2), wp(tau/2), wp((1+tau)/2))."""
    tau = complex(tau)
    return _half_period_values(tau, *_reduce_modulus(tau))


class LatticeSpec(Value):
    """The lattice alpha (Z + tau Z), with Im(tau) > 0."""

    alpha: complex
    tau: complex

    def __init__(self, alpha: complex, tau: complex) -> None:
        for name, value in (("alpha", alpha), ("tau", tau)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite")
        alpha, tau = complex(alpha), complex(tau)
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        if tau.imag <= 0:
            raise ValueError("tau must have positive imaginary part")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)

    @staticmethod
    def from_generators(a: complex, b: complex) -> "LatticeSpec":
        """The lattice a Z + b Z, normalized so Im(tau) > 0 and tau lies in
        the standard fundamental domain (`_reduce_modulus`)."""
        a, b = complex(a), complex(b)
        if a == 0 or b == 0:
            raise ValueError("generators must be nonzero")
        tau = b / a
        if tau.imag == 0:
            raise ValueError("generators are collinear")
        alpha = a
        if tau.imag < 0:
            tau = a / b
            alpha = b
        tau, f = _reduce_modulus(tau)
        return LatticeSpec(alpha * f, tau)


class BranchLocus(Value):
    """The finite branch points {e1, e2, e3} of the degree-2 covering of the
    sphere by the torus of the lattice."""

    e: tuple[complex, complex, complex]

    def __init__(self, e: tuple[complex, complex, complex]) -> None:
        object.__setattr__(self, "e", e)

    def as_set_distance(self, other: "BranchLocus") -> float:
        """Hausdorff distance between the two unordered triples."""
        d1 = max(min(abs(a - b) for b in other.e) for a in self.e)
        d2 = max(min(abs(b - a) for a in self.e) for b in other.e)
        return max(d1, d2)

    def as_dict(self) -> dict:
        return {"e": [[v.real, v.imag] for v in self.e]}


def branch_locus(spec: LatticeSpec) -> BranchLocus:
    """alpha^-2 scaling of the half-period values of tau: covariant by
    construction under rescaling the lattice."""
    scale = spec.alpha ** -2
    e1, e2, e3 = e_values(spec.tau)
    return BranchLocus((scale * e1, scale * e2, scale * e3))


def ode_residual(tau: complex, zeta: complex) -> float:
    """Normalized residual of (wp')^2 = 4 (wp - e1)(wp - e2)(wp - e3):
    |lhs - rhs| / (1 + |wp'|^2).  A convergence diagnostic, not an identity
    check against ground truth."""
    tau, zeta = complex(tau), complex(zeta)
    rtau, f = _reduce_modulus(tau)
    z = _cell_point(zeta, rtau, f)
    e1, e2, e3 = _half_period_values(tau, rtau, f)  # pole tests before any f**2
    p = _purekernels.wp_sum(z, rtau, _ROWS) / f**2
    pp = _purekernels.wp_prime_sum(z, rtau, _ROWS) / f**3
    lhs = pp * pp
    rhs = 4 * (p - e1) * (p - e2) * (p - e3)
    return abs(lhs - rhs) / (1 + abs(pp) ** 2)
