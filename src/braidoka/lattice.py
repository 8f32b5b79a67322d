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
most 9 rows on each side, and 6 once Im tau' >= 1.4.  The radius R caps
the rows summed on each side.
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

from . import _backend
from ._value import Value
from .errors import PoleProximity

DEFAULT_RADIUS = 60
POLE_TOLERANCE = 1e-8


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
    fundamental domain, so Im tau' >= sqrt(3)/2.

    Unimodular steps never change the lattice: tau -> tau - round(Re tau)
    keeps f, and tau -> -1/tau multiplies f by tau.
    """
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


def _reduced_arg(zeta: complex, tau: complex, radius: int) -> tuple[complex, complex, complex]:
    """(z, tau', f): tau reduced by `_reduce_modulus` and z = zeta / f
    reduced by `_reduce_cell` in Z + tau' Z, after checking tau, the radius
    and the distance to the lattice.

    z has |Re| <= 1/2 and |Im| <= Im tau' / 2, so every point of
    Z + tau' Z but 0 lies at least sqrt(3)/4 from it.  |f z|, the distance
    in the original units, then decides the pole test alone unless the
    shortest lattice vector, of length |f|, is below 4 POLE_TOLERANCE /
    sqrt(3).
    """
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    if radius < 10:
        raise ValueError("truncation radius must be >= 10")
    tau, f = _reduce_modulus(tau)
    z = _reduce_cell(zeta / f, tau)
    if abs(f * z) < POLE_TOLERANCE:
        raise PoleProximity(f"{zeta} is within {POLE_TOLERANCE} of a lattice point")
    return z, tau, f


def wp(zeta: complex, tau: complex, radius: int = DEFAULT_RADIUS) -> complex:
    """The Weierstrass function of Z + tau Z at zeta, by homogeneity
    wp(zeta; f L) = f^-2 wp(zeta / f; L) (DLMF 23.10.17)."""
    z, tau, f = _reduced_arg(complex(zeta), complex(tau), radius)
    return _backend.wp_sum(z, tau, radius) / f**2


def wp_prime(zeta: complex, tau: complex, radius: int = DEFAULT_RADIUS) -> complex:
    """Derivative of the Weierstrass function: -2 sum 1/(zeta - w)^3,
    homogeneous of degree -3."""
    z, tau, f = _reduced_arg(complex(zeta), complex(tau), radius)
    return _backend.wp_prime_sum(z, tau, radius) / f**3


def e_values(tau: complex, radius: int = DEFAULT_RADIUS) -> tuple[complex, complex, complex]:
    """The half-period values (wp(1/2), wp(tau/2), wp((1+tau)/2))."""
    tau = complex(tau)
    return (
        wp(0.5, tau, radius),
        wp(tau / 2, tau, radius),
        wp((1 + tau) / 2, tau, radius),
    )


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


def branch_locus(spec: LatticeSpec, radius: int = DEFAULT_RADIUS) -> BranchLocus:
    """alpha^-2 scaling of the half-period values of tau: covariant by
    construction under rescaling the lattice."""
    scale = spec.alpha ** -2
    e1, e2, e3 = e_values(spec.tau, radius)
    return BranchLocus((scale * e1, scale * e2, scale * e3))


def ode_residual(tau: complex, zeta: complex, radius: int = DEFAULT_RADIUS) -> float:
    """Normalized residual of (wp')^2 = 4 (wp - e1)(wp - e2)(wp - e3):
    |lhs - rhs| / (1 + |wp'|^2).  A convergence diagnostic, not an identity
    check against ground truth."""
    tau, zeta = complex(tau), complex(zeta)
    p = wp(zeta, tau, radius)
    pp = wp_prime(zeta, tau, radius)
    e1, e2, e3 = e_values(tau, radius)
    lhs = pp * pp
    rhs = 4 * (p - e1) * (p - e2) * (p - e3)
    return abs(lhs - rhs) / (1 + abs(pp) ** 2)
