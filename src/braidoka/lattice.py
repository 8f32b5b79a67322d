"""Numerical Weierstrass machinery: the elliptic function of a lattice, its
half-period values, and branch loci.

Every lattice is read by one function, `_reduce_modulus`, from a pair of
generators: (1, tau) for Z + tau Z, and (a, b) for
`LatticeSpec.from_generators`.  A float is a dyadic rational, so both
generators are written as integers over one power of two, and the integer
cross product decides orientation and collinearity (a tau below the real
axis spans the lattice Z - tau Z).  A Gauss-Lagrange reduction of the
integer form |u g1 + v g2|^2 then writes the lattice as f (Z + tau' Z),
with tau' in the standard fundamental domain, so Im tau' >= sqrt(3)/2,
and hands on tau', f, the integer basis (f, f tau') and the integers
`_cell_point` reduces zeta with, so that zeta is reduced into the cell in
integers and no Gram number is computed twice.  tau', f and the reduced
point are each one correctly rounded division, however small Im tau or
large |zeta| is, and the half periods' classes are read off the basis in
integers (`_half_period_values`).

Every value is computed on the reduced lattice Z + tau' Z and carried to
the lattice s (Z + tau' Z) by homogeneity (DLMF 23.10.17) in one step,
`_rescale`: division by s^2 (wp, the e_i) or s^3 (wp'), where s = f, or
s = alpha f for the branch locus of alpha (Z + tau Z), so the locus takes
one rounding of its scale.  That step scales by powers of two, exactly,
so a value is finite for every scale, 0 where it underflows, or a named
ValueError where it overflows a float.

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
import math

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


def _reduce_modulus(g1: complex, g2: complex) -> tuple[complex, complex, tuple[int, ...], tuple[int, ...]]:
    """(tau', f, (u1, v1, u2, v2), (d, p, q, a, b, w)) for the lattice
    g1 Z + g2 Z = f (Z + tau' Z): tau' in the standard fundamental domain
    (Im tau' >= sqrt(3)/2), f = u1 g1 + v1 g2' = (p + q i) / d a shortest
    vector and f tau' = u2 g1 + v2 g2', where g2' = +-g2 makes (g1, g2') a
    positive basis.  The integers a, b and w are d^2 |f|^2, d^2 <f, f tau'>
    and d^2 Im(conj(f) f tau'), so tau' = (b + w i) / a.  Every tau entry
    point reads the lattice Z + tau Z as (1, tau), and
    `LatticeSpec.from_generators` reads its pair as it is.

    Both generators are written over one power of two d (`_dyadic`), so
    d^2 |u g1 + v g2|^2 is an integer binary quadratic form.  The integer
    cross product d^2 Im(conj(g1) g2) decides the orientation: 0 means a
    zero generator or collinear ones (ValueError), and a negative one is
    made positive by reducing the basis (g1, -g2) of the same lattice; the
    signs of v1 and v2 do not change the classes mod 2 that
    `_half_period_values` reads.  The Gauss-Lagrange reduction then runs
    on the integer Gram numbers (H. Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, 5.4): subtract the nearest multiple
    of b1 from b2 (a step skipped when that multiple is 0), swap (b1, b2)
    -> (b2, -b1) while |b2| < |b1|.  The ties are decided exactly: Re tau'
    = 1/2 becomes -1/2, and |tau'| = 1 is not swapped.  Each part of tau'
    and of f is one correctly rounded int/int division.  An Im tau' beyond
    the float range means a vector f so short that wp and wp' overflow
    (`_rescale`): ValueError.
    """
    try:
        (x1, y1, d1), (x2, y2, d2) = _dyadic(g1), _dyadic(g2)
    except (OverflowError, ValueError):  # inf and nan have no integer ratio
        raise ValueError(f"lattice generators must be finite, got {g1} and {g2}") from None
    x1, y1, x2, y2, d = x1 * d2, y1 * d2, x2 * d1, y2 * d1, d1 * d2
    w = x1 * y2 - y1 * x2  # d^2 Im(conj(g1) g2)
    if not w:
        raise ValueError(f"generators must be nonzero and not collinear, got {g1} and {g2}")
    if w < 0:  # (g1, -g2) is a positive basis of the same lattice
        x2, y2, w = -x2, -y2, -w
    a, b, c = x1 * x1 + y1 * y1, x1 * x2 + y1 * y2, x2 * x2 + y2 * y2  # d^2 Gram numbers
    u1, v1, u2, v2 = 1, 0, 0, 1
    while True:
        m = (2 * b + a) // (2 * a)  # the integer nearest b / a, a half rounded up
        if m:
            u2, v2, b, c = u2 - m * u1, v2 - m * v1, b - m * a, c - m * (2 * b - m * a)
        if c >= a:
            break
        u1, v1, u2, v2, a, b, c = u2, v2, -u1, -v1, c, -b, a
    p, q = u1 * x1 + v1 * x2, u1 * y1 + v1 * y2
    f = complex(p / d, q / d)
    try:
        return complex(b / a, w / a), f, (u1, v1, u2, v2), (d, p, q, a, b, w)
    except OverflowError:
        raise ValueError(f"tau gives a lattice vector too short for a finite value ({abs(f):.3g})") from None


def _cell_point(zeta: complex, tau: complex) -> tuple[complex, complex, complex, tuple[int, ...]]:
    """(z, tau', f, basis): `_reduce_modulus(1, tau)`, and z = zeta / f
    reduced into the cell of Z + tau' Z, |Re z| <= 1/2 and |Im z| <= Im
    tau' / 2, after the test that zeta is not within POLE_TOLERANCE of
    Z + tau Z.

    With zeta = (x + y i) / e and the integers (d, p, q, a, b, w) of the
    reduction, zeta / f = zeta conj(f) / |f|^2 has the parts d (x p + y q)
    / (e a) and d (y p - x q) / (e a), and Im tau' = w / a.  Subtracting
    the nearest multiple k of tau' and then of 1 leaves z, each part one
    correctly rounded int/int division however large zeta is.  The pole
    test reads f z, which is zeta minus the lattice point subtracted: for
    a reduced tau', every point of Z + tau' Z but 0 lies at least sqrt(3)/4
    from z, so |f z| decides that test alone unless |f| is below 4
    POLE_TOLERANCE / sqrt(3)."""
    rtau, f, basis, (d, p, q, a, b, w) = _reduce_modulus(1, tau)
    if not cmath.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    x, y, e = _dyadic(zeta)
    t, n = d * (y * p - x * q), e * w
    k = (2 * t + n) // (2 * n)
    r, m = d * (x * p + y * q) - k * e * b, e * a
    r -= (2 * r + m) // (2 * m) * m
    z = complex(r / m, (t - k * n) / m)
    if abs(f * z) < POLE_TOLERANCE:
        raise PoleProximity(f"{zeta} is within {POLE_TOLERANCE} of a lattice point")
    return z, rtau, f, basis


def _rescale(values: tuple[complex, ...], s: complex, k: int) -> tuple[complex, ...]:
    """Each of values / s**k: values of the reduced lattice carried by
    homogeneity (DLMF 23.10.17) to the lattice s (Z + tau' Z), k = 2 for wp
    and the half-period values, 3 for wp'.  The module's one homogeneity
    step, called once per scale, so values that share a scale share its
    normalization.

    With s = m 2^e, 1/2 <= |m| < 1 (`math.frexp` of |s|), value / s**k is
    (value / m**k) 2^(-k e).  Multiplying by a power of two is exact, so
    this is the complex division value / s**k bit for bit wherever s**k is
    a normal float, and m**k neither underflows nor overflows where s**k
    would: a huge s gives a tiny value or 0, never inf or nan.  Where
    |s|^k is below 2^-1023, 2^(-k e) is beyond the float range, and it is
    applied as two halves, which is exact to k |e| = 2046.  ValueError,
    naming s as too short, where a value overflows, where s underflowed to
    0, and beyond k |e| = 2046.

    Past 2^-1023 only a value of modulus below 1 can stay finite, and wp'
    is 0 there: |f|^3 < 2^-1023 makes |f| < 2.3e-103, so a zeta outside
    POLE_TOLERANCE of the lattice lies more than 4e94 cell units from
    every lattice point, hence (the points of a row are 1 apart) from
    every row of the reduced lattice, and every row term of
    `wp_prime_sum`, about exp(-2 pi 4e94) in size, is below the smallest
    float."""
    e = math.frexp(abs(s))[1]
    j = -k * e
    half = j // 2 if j > 1023 else 0  # 2^j = 2^(j - half) 2^half
    try:
        scale, power, scaled = (s * 2.0**-e) ** k, 2.0 ** (j - half), []
        for value in values:
            value = value / scale * power
            if half:
                value *= 2.0**half
            if not cmath.isfinite(value):
                raise OverflowError
            scaled.append(value)
        return tuple(scaled)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"the shortest vector ({abs(s):.3g}) is too short: the value overflows") from None


def _half_period_values(rtau: complex, f: complex, basis: tuple[int, ...]) -> tuple[complex, ...]:
    """wp of the reduced lattice Z + tau' Z at the images under 1/f of
    the half periods 1/2, tau/2 and (1 + tau)/2 of Z + tau Z, unscaled:
    (rtau, f, basis) come from `_reduce_modulus(1, tau)`, and wp of Z + tau
    Z is each divided by f^2 (`_rescale`).

    Every half period lies at least |f|/2 from the lattice, since twice
    its distance is the length of a nonzero lattice vector, and the half
    period f/2 lies exactly that far.  So |f| < 2 POLE_TOLERANCE is the
    pole test of all three.

    The three values of L' = Z + tau' Z come from theta constants at q =
    exp(i pi tau'), |q| <= exp(-pi sqrt(3) / 2) ~ 0.066 (DLMF 23.6.2-23.6.4
    with 2 omega_1 = 1, Jacobi's theta_3^4 = theta_2^4 + theta_4^4):
    wp(1/2) = (pi^2/3)(theta_3^4 + theta_4^4), wp(tau'/2) = -(pi^2/3)
    (theta_2^4 + theta_3^4), wp((1 + tau')/2) = (pi^2/3)(theta_2^4 -
    theta_4^4), with theta_3, theta_4 = 1 + 2 sum +-q^(k^2) and theta_2^4 =
    16 q (1 + q^2 + q^6 + q^12 + ...)^4.  Four terms each leave out terms
    below 2 |q|^25 and |q|^20, under 1e-23.

    The half periods of L = Z + tau Z are the nonzero classes of
    (1/2) L / L, and dividing by f maps them onto those of L'.  The half
    period (m + n tau)/2 is (s + t tau') f / 2 with (s, t) = (m v2 - n u2,
    n u1 - m v1), the inverse of the unimodular basis matrix, so its class
    s mod 2 + 2 (t mod 2) is read in integers: (v2, v1) for 1/2, (u2, u1)
    for tau/2, and their sum, a bitwise exclusive or, for (1 + tau)/2.
    """
    if abs(f) < 2 * POLE_TOLERANCE:
        raise PoleProximity(f"tau gives a half period within {POLE_TOLERANCE} of a lattice point")
    u1, v1, u2, v2 = basis
    q = cmath.exp(1j * cmath.pi * rtau)
    q2 = q * q
    q4 = q2 * q2
    q8 = q4 * q4
    even, odd = q4 + q8 * q8, q + q8 * q  # q^4 + q^16, q + q^9
    t2 = 16 * q * (1 + q2 + q4 * q2 + q8 * q4) ** 4
    t3 = (1 + 2 * (even + odd)) ** 4
    t4 = (1 + 2 * (even - odd)) ** 4
    c = cmath.pi**2 / 3
    # indexed by the class s mod 2 + 2 (t mod 2): 1 = (1, 0), 2 = (0, 1), 3 = (1, 1)
    values = (None, c * (t3 + t4), -c * (t2 + t3), c * (t2 - t4))
    i, j = v2 % 2 + 2 * (v1 % 2), u2 % 2 + 2 * (u1 % 2)
    return values[i], values[j], values[i ^ j]


def wp(zeta: complex, tau: complex) -> complex:
    """The Weierstrass function of Z + tau Z at zeta, by homogeneity
    wp(zeta; f L) = f^-2 wp(zeta / f; L) (DLMF 23.10.17)."""
    z, rtau, f, _ = _cell_point(complex(zeta), complex(tau))
    return _rescale((_purekernels.wp_sum(z, rtau, _ROWS),), f, 2)[0]


def wp_prime(zeta: complex, tau: complex) -> complex:
    """Derivative of the Weierstrass function: -2 sum 1/(zeta - w)^3,
    homogeneous of degree -3."""
    z, rtau, f, _ = _cell_point(complex(zeta), complex(tau))
    return _rescale((_purekernels.wp_prime_sum(z, rtau, _ROWS),), f, 3)[0]


def e_values(tau: complex) -> tuple[complex, complex, complex]:
    """The half-period values (wp(1/2), wp(tau/2), wp((1+tau)/2))."""
    rtau, f, basis, _ = _reduce_modulus(1, complex(tau))
    return _rescale(_half_period_values(rtau, f, basis), f, 2)


class LatticeSpec(Value):
    """The lattice alpha (Z + tau Z), with Im(tau) > 0 and 0 < |alpha| <
    2^1024, so that the scale alpha f of `branch_locus` is a float."""

    alpha: complex
    tau: complex

    def __init__(self, alpha: complex, tau: complex) -> None:
        for name, value in (("alpha", alpha), ("tau", tau)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not 0 < math.hypot(alpha.real, alpha.imag) < math.inf:
            raise ValueError(f"alpha must be nonzero, with a modulus below 2^1024, got {alpha}")
        if tau.imag <= 0:
            raise ValueError("tau must have positive imaginary part")
        object.__setattr__(self, "alpha", complex(alpha))
        object.__setattr__(self, "tau", complex(tau))

    @staticmethod
    def from_generators(a: complex, b: complex) -> "LatticeSpec":
        """The lattice a Z + b Z as f (Z + tau Z), tau in the standard
        fundamental domain and f a shortest vector: one exact reduction of
        the pair (`_reduce_modulus`), which decides orientation and
        collinearity in integers."""
        tau, f, _, _ = _reduce_modulus(a, b)
        return LatticeSpec(f, tau)


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
    """The half-period values of alpha (Z + tau Z) = s (Z + tau' Z), s =
    alpha f: those of the reduced lattice, each divided by s^2 in one step
    (`_rescale`), so the locus takes one rounding of its scale and is
    covariant by construction under rescaling the lattice.  Every value is
    finite, or the scale is so short that one overflows: ValueError."""
    rtau, f, basis, _ = _reduce_modulus(1, spec.tau)
    return BranchLocus(_rescale(_half_period_values(rtau, f, basis), spec.alpha * f, 2))


def ode_residual(tau: complex, zeta: complex) -> float:
    """Normalized residual of (wp')^2 = 4 (wp - e1)(wp - e2)(wp - e3):
    |lhs - rhs| / (1 + |wp'|^2).  A convergence diagnostic, not an identity
    check against ground truth."""
    z, rtau, f, basis = _cell_point(complex(zeta), complex(tau))
    e1, e2, e3, p = _rescale((*_half_period_values(rtau, f, basis), _purekernels.wp_sum(z, rtau, _ROWS)),
                             f, 2)
    (pp,) = _rescale((_purekernels.wp_prime_sum(z, rtau, _ROWS),), f, 3)
    return abs(pp * pp - 4 * (p - e1) * (p - e2) * (p - e3)) / (1 + abs(pp) ** 2)
