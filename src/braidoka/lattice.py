"""Numerical Weierstrass machinery: the elliptic function of a lattice, its
half-period values, and branch loci.

The lattice Z + tau Z is first written as f (Z + tau' Z) with tau' in the
standard fundamental domain, so Im tau' >= sqrt(3)/2, and every value is
read off the lattice of tau' by homogeneity (DLMF 23.10.17).  A float is a
dyadic rational, so that reduction is exact: a Gauss-Lagrange reduction
of the integer form d^2 |u + v tau|^2 (`_reduce_modulus`) gives tau', f
and the integer basis (f, f tau') of Z + tau Z, and zeta is reduced into
the cell of that basis in integers (`_cell_point`).  tau', f and the
reduced point are each one correctly rounded division, however small Im
tau or large |zeta| is, and the half periods' classes are read off the
basis in integers (`_half_period_values`).

wp and wp' are series over the lattice rows m + n tau', each row summed in
closed form: sum_m 1/(u - m)^2 = pi^2 csc^2(pi u) (DLMF 23.8).  Once
zeta / f is translated into the cell around the origin, the x = exp(2 pi i
u) of row n are below |q|^(n - 1/2), q = exp(2 pi i tau'), |q| <=
exp(-pi sqrt 3) ~ 0.0043.  The sums stop before the first row whose
largest x is below 2^-70 (`_purekernels.wp_sum`), so the rows left out
add at most 1.4e-19 to wp and 4.3e-19 to wp', far below ulp(pi^2/3) ~
4.4e-16.  That is at most 9 rows on each side, and 6 once Im tau' >= 1.4,
so no row cap is taken: the kernels' cap `_ROWS` never binds.

The half-period values e1, e2, e3 are theta constants (DLMF 23.6.2-23.6.4)
at exp(i pi tau'), of modulus at most exp(-pi sqrt(3) / 2) ~ 0.066: four
terms of each theta series leave out less than 1e-23
(`_half_period_values`).  Measured for |Re tau| <= 1/2, 0.8 <= Im tau <=
2: over 200 seeded tau, e1, e2, e3 agree with 200-bit mpmath theta
constants to 1.5e-15 relative (to max(1, |e_j|)) and the normalized
residual of the cubic differential equation (`ode_residual`) stays below
1.1e-12, also near zeta = (1 + tau)/2, where wp' vanishes; over 60 seeded
tau, wp and wp' agree with a 40-digit theta quotient to 1e-15 and 8e-15
relative, at generic points and down to 1e-7 from a lattice point.  Over
500 seeded tau with 1e-4 <= Im tau <= 30, e1, e2, e3 agree with mpmath
to 7e-16 of max(1, |e_1|, |e_2|, |e_3|); a value much smaller than the
others carries the cancellation in its theta constants.  Over 5,000
seeded tau and zeta spread over the float range, every finite wp and wp'
agrees with a theta quotient to 2e-14 relative.
"""

from __future__ import annotations

import cmath

from . import _purekernels
from ._value import Value
from .errors import PoleProximity

POLE_TOLERANCE = 1e-8
_ROWS = 10  # rows the kernels may sum on each side; a reduced tau needs 9


def _dyadic(w: complex) -> tuple[int, int, int]:
    """(a, b, e) with w = (a + b i) / e exactly, e a power of two: every
    float is a dyadic rational."""
    (a, da), (b, db) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
    return (a * (db // da), b, db) if da < db else (a, b * (da // db), da)


def _reduce_modulus(tau: complex) -> tuple[complex, complex, tuple[int, ...]]:
    """(tau', f, (u1, v1, u2, v2)) with Z + tau Z = f (Z + tau' Z), tau' in
    the standard fundamental domain (Im tau' >= sqrt(3)/2), f = u1 + v1 tau
    a shortest vector and f tau' = u2 + v2 tau; tau must be finite, with
    Im tau > 0.

    With tau = (x + y i) / d exactly (`_dyadic`), d^2 |u + v tau|^2 =
    (d u + x v)^2 + (y v)^2 is an integer binary quadratic form, and the
    Gauss-Lagrange reduction of the basis (1, tau) runs on its integer Gram
    numbers (H. Cohen, A Course in Computational Algebraic Number Theory,
    GTM 138, 5.4): subtract the nearest multiple of b1 from b2, swap (b1,
    b2) -> (b2, -b1) while |b2| < |b1|.  The ties are decided exactly:
    Re tau' = 1/2 becomes -1/2, and |tau'| = 1 is not swapped.  Each part
    of tau' = (<b1, b2> + i d y) / |b1|^2 and of f is one correctly rounded
    int/int division.  An Im tau' beyond the float range means a vector f
    so short that wp and wp' overflow (`_rescale`): ValueError.
    """
    if not (tau.imag > 0 and cmath.isfinite(tau)):
        raise ValueError("tau must be finite and have positive imaginary part")
    x, y, d = _dyadic(tau)
    a, b, c = d * d, d * x, x * x + y * y  # d^2 (|b1|^2, <b1, b2>, |b2|^2)
    u1, v1, u2, v2 = 1, 0, 0, 1
    while True:
        m = (2 * b + a) // (2 * a)  # the integer nearest b / a, a half rounded up
        u2, v2, b, c = u2 - m * u1, v2 - m * v1, b - m * a, c - m * (2 * b - m * a)
        if c >= a:
            break
        u1, v1, u2, v2, a, b, c = u2, v2, -u1, -v1, c, -b, a
    f = complex((d * u1 + x * v1) / d, y * v1 / d)
    try:
        return complex(b / a, d * y / a), f, (u1, v1, u2, v2)
    except OverflowError:
        raise ValueError(f"tau gives a lattice vector too short for a finite value ({abs(f):.3g})") from None


def _cell_point(zeta: complex, tau: complex) -> tuple[complex, complex, complex, tuple[int, ...]]:
    """(z, tau', f, basis): `_reduce_modulus(tau)`, and z = zeta / f reduced
    into the cell of Z + tau' Z, |Re z| <= 1/2 and |Im z| <= Im tau' / 2,
    after the test that zeta is not within POLE_TOLERANCE of Z + tau Z.

    With zeta = (a + b i) / e and tau = (x + y i) / d, zeta = (w + b d tau)
    / n with w = a y - b x and n = e y, and the inverse of the unimodular
    basis matrix gives zeta = (s f + t f tau') / n, all in integers.
    Subtracting the nearest multiple of f tau' and then of f leaves z, each
    part one correctly rounded int/int division however large zeta is.  The
    pole test reads f z, which is zeta minus the lattice point subtracted:
    for a reduced tau', every point of Z + tau' Z but 0 lies at least
    sqrt(3)/4 from z, so |f z| decides that test alone unless |f| is below
    4 POLE_TOLERANCE / sqrt(3)."""
    rtau, f, basis = _reduce_modulus(tau)
    if not cmath.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    (a, b, e), (x, y, d), (u1, v1, u2, v2) = _dyadic(zeta), _dyadic(tau), basis
    w, bd, n = a * y - b * x, b * d, e * y
    s, t = v2 * w - u2 * bd, u1 * bd - v1 * w
    t -= (2 * t + n) // (2 * n) * n
    p1, p2 = d * u1 + x * v1, d * u2 + x * v2
    g, h = p1 * p1 + (y * v1) ** 2, p1 * p2 + y * y * v1 * v2  # d^2 |f|^2, d^2 <f, f tau'>
    r, ng = s * g + t * h, n * g
    r -= (2 * r + ng) // (2 * ng) * ng
    z = complex(r / ng, d * t / (e * g))
    if abs(f * z) < POLE_TOLERANCE:
        raise PoleProximity(f"{zeta} is within {POLE_TOLERANCE} of a lattice point")
    return z, rtau, f, basis


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


def _half_period_values(rtau: complex, f: complex, basis: tuple[int, ...]) -> tuple[complex, ...]:
    """wp of Z + tau Z at 1/2, tau/2 and (1 + tau)/2; (rtau, f, basis) =
    `_reduce_modulus(tau)`.

    Every half period lies at least |f|/2 from the lattice, since twice
    its distance is the length of a nonzero lattice vector, and the half
    period f/2 lies exactly that far.  So |f| < 2 POLE_TOLERANCE is the
    pole test of all three, and it comes long before f^2 underflows.

    The three values of the reduced lattice L' = Z + tau' Z come from theta
    constants at q = exp(i pi tau'), |q| <= exp(-pi sqrt(3) / 2) ~ 0.066
    (DLMF 23.6.2-23.6.4 with 2 omega_1 = 1, Jacobi's theta_3^4 = theta_2^4 +
    theta_4^4): wp(1/2) = (pi^2/3)(theta_3^4 + theta_4^4), wp(tau'/2) =
    -(pi^2/3)(theta_2^4 + theta_3^4), wp((1 + tau')/2) = (pi^2/3)(theta_2^4 -
    theta_4^4), with theta_3, theta_4 = 1 + 2 sum +-q^(k^2) and theta_2^4 =
    16 q (1 + q^2 + q^6 + q^12 + ...)^4.  Four terms each leave out terms
    below 2 |q|^25 and |q|^20, under 1e-23.

    The half periods of L = Z + tau Z are the nonzero classes of
    (1/2) L / L, and dividing by f maps them onto those of L'.  The half
    period (m + n tau)/2 is (s + t tau') f / 2 with (s, t) = (m v2 - n u2,
    n u1 - m v1), the inverse of the unimodular basis matrix, so its class
    (s mod 2, t mod 2) is read in integers.
    """
    if abs(f) < 2 * POLE_TOLERANCE:
        raise PoleProximity(f"tau gives a half period within {POLE_TOLERANCE} of a lattice point")
    u1, v1, u2, v2 = basis
    q = cmath.exp(1j * cmath.pi * rtau)
    q2, q4, q8 = q**2, q**4, q**8
    even, odd = q4 + q8 * q8, q + q8 * q  # q^4 + q^16, q + q^9
    t2 = 16 * q * (1 + q2 + q4 * q2 + q8 * q4) ** 4
    t3 = (1 + 2 * (even + odd)) ** 4
    t4 = (1 + 2 * (even - odd)) ** 4
    c = cmath.pi**2 / 3 / f**2
    values = (c * (t3 + t4), -c * (t2 + t3), c * (t2 - t4))  # classes (1, 0), (0, 1), (1, 1)
    return tuple(values[(m * v2 - n * u2) % 2 + 2 * ((n * u1 - m * v1) % 2) - 1]
                 for m, n in ((1, 0), (0, 1), (1, 1)))


def wp(zeta: complex, tau: complex) -> complex:
    """The Weierstrass function of Z + tau Z at zeta, by homogeneity
    wp(zeta; f L) = f^-2 wp(zeta / f; L) (DLMF 23.10.17)."""
    z, rtau, f, _ = _cell_point(complex(zeta), complex(tau))
    return _rescale(_purekernels.wp_sum(z, rtau, _ROWS), f, 2)


def wp_prime(zeta: complex, tau: complex) -> complex:
    """Derivative of the Weierstrass function: -2 sum 1/(zeta - w)^3,
    homogeneous of degree -3."""
    z, rtau, f, _ = _cell_point(complex(zeta), complex(tau))
    return _rescale(_purekernels.wp_prime_sum(z, rtau, _ROWS), f, 3)


def e_values(tau: complex) -> tuple[complex, complex, complex]:
    """The half-period values (wp(1/2), wp(tau/2), wp((1+tau)/2))."""
    return _half_period_values(*_reduce_modulus(complex(tau)))


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
        tau, f, _ = _reduce_modulus(tau)
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
    z, rtau, f, basis = _cell_point(complex(zeta), complex(tau))
    e1, e2, e3 = _half_period_values(rtau, f, basis)  # pole tests before any f**2
    p = _purekernels.wp_sum(z, rtau, _ROWS) / f**2
    pp = _purekernels.wp_prime_sum(z, rtau, _ROWS) / f**3
    lhs = pp * pp
    rhs = 4 * (p - e1) * (p - e2) * (p - e3)
    return abs(lhs - rhs) / (1 + abs(pp) ** 2)
