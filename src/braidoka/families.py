"""Polynomial families over an annulus: discriminants, the winding index of
the discriminant over the core circle, the prime-degree reducibility
verdict, and the entropy/module bounds.
"""

from __future__ import annotations

import cmath
import math

from ._value import Value, check_int, int_field
from .errors import (
    DegreeTooSmall,
    InternalInconsistency,
    NonConvergence,
    ResourceLimit,
    SeparabilityFailure,
    SignatureOutOfRange,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence
    from fractions import Fraction

Number = "int | float | complex | Fraction"

# A degree-3 family of rotation order g = 1 (`_rotation_order`) that
# doubles from 256 samples up to this cap (about 2.1M discriminants) takes
# about 44 s and peaks at 15 MB resident, the interpreter's own footprint:
# a pass keeps running values only (pure Python 3.11, 2-core VM; 134 MB
# when each pass was kept whole).  The last pass alone is about half of the
# time.  A pass over n samples evaluates at most n/h + 1 discriminants,
# h = gcd(g, n), so a family with g > 1 costs about 1/h of that.
MAX_SAMPLES = 2**20
# One discriminant is the determinant of an n x n matrix, so its cost grows
# as n^3: about 0.11 ms at degree 8, 3.3 ms at 32 and 18 ms at this cap
# (pure Python 3.11, 2-core VM), so a first pass of 256 samples at the cap
# takes about 4.5 s.  Without a cap only the float range stopped a family:
# a degree-400 disc-index call took 7.1 s to reach "the discriminant
# overflows a float", and one of degree 5,000 would build a 5,000 x 5,000
# matrix of 25 million complex numbers, over 1 GB (estimated, not run).
MAX_DEGREE = 64
# |disc| below this fraction of its maximum on the circle counts as a zero
SEPARABILITY_TOL = 1e-12


def _det(mat: list[list[Number]]) -> Number:
    """Bareiss determinant with partial pivoting.  A division whose operands
    are both ints is exact floor division, so int and Fraction entries give
    an exact result (an int for ints); float and complex entries divide as
    floats."""
    m = [list(row) for row in mat]
    n = len(m)
    sign = 1
    prev: Number = 1
    for k in range(n - 1):
        pivot = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[pivot][k] == 0:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, akk = m[k], m[k][k]
        int_prev = isinstance(prev, int)
        for row in m[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n):
                num = row[j] * akk - aik * top[j]
                row[j] = num // prev if int_prev and isinstance(num, int) else num / prev
        prev = akk
    return sign * m[n - 1][n - 1]


def discriminant_from_coeffs(coeffs: Sequence[Number]) -> Number:
    """Discriminant of a monic polynomial p given by ascending coefficients.

    Row i of an n x n matrix holds the coefficients of x^i p' mod p, so its
    determinant is that of multiplication by p' on Q[x]/(p), which is
    Res(p, p') for monic p.  Sign convention matches the root-product
    formula: disc = (-1)^(n(n-1)/2) * Res(p, p').
    """
    n = len(coeffs) - 1
    if n < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    row = [k * coeffs[k] for k in range(1, n + 1)]  # p'
    rows = [row]
    for _ in range(n - 1):
        # x * row, with x^n = -(c_0 + ... + c_{n-1} x^{n-1})
        top = row[-1]
        row = [-top * coeffs[0]] + [r - top * c for r, c in zip(row, coeffs[1:n])]
        rows.append(row)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _det(rows)


class LaurentFamily(Value):
    """A monic degree-n family f(z, zeta) = zeta^n + sum a_k(z) zeta^k with
    Laurent-polynomial coefficients a_k: coeffs[k][e] is the coefficient
    of zeta^k z^e."""

    degree: int
    coeffs: Mapping[int, Mapping[int, complex]]

    def __init__(self, degree: int, coeffs: Mapping[int, Mapping[int, complex]]) -> None:
        # one dict per zeta power, so a later change to the argument changes no record
        coeffs = {k: dict(poly) for k, poly in coeffs.items()}
        check_int(degree, "degree")
        if degree < 2:
            raise DegreeTooSmall("family degree must be >= 2")
        if degree > MAX_DEGREE:
            raise ResourceLimit(f"family degree {degree} is above MAX_DEGREE = {MAX_DEGREE}")
        for k, poly in coeffs.items():
            check_int(k, "a zeta power")
            if not 0 <= k < degree:
                raise ValueError(f"zeta power {k} out of range")
            for e, c in poly.items():
                check_int(e, "a z exponent")
                if not cmath.isfinite(c):
                    raise ValueError(f"coefficient coeffs[{k}][{e}] must be finite, got {c}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient(self, k: int, z: complex) -> complex:
        poly = self.coeffs.get(k, {})
        return sum(c * z**e for e, c in poly.items())

    def poly_at(self, z: complex) -> list[complex]:
        """Ascending zeta-coefficients of the fiber polynomial."""
        return [self.coefficient(k, z) for k in range(self.degree)] + [1.0]

    def discriminant_at(self, z: complex) -> complex:
        return complex(discriminant_from_coeffs(self.poly_at(z)))

    @staticmethod
    def power_family(n: int, k: int) -> "LaurentFamily":
        """The model family zeta^n - z^k."""
        return LaurentFamily(n, {0: {k: -1.0}})

    @staticmethod
    def from_json(data) -> "LaurentFamily":
        """The family of {"degree": n, "coeffs": {"k": {"e": [re, im]}}}.
        Malformed data, or two keys that name one power (such as "2" and
        "02"), raise ValueError naming the field."""
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), dict):
            raise ValueError('a family needs a "coeffs" object')
        coeffs = {}
        for k, kstr in _powers(data["coeffs"], "coeffs").items():
            where, poly = f'coeffs["{kstr}"]', data["coeffs"][kstr]
            if not isinstance(poly, dict):
                raise ValueError(f"{where} must be an object")
            coeffs[k] = row = {}
            for e, estr in _powers(poly, where).items():
                c = poly[estr]
                if not (isinstance(c, list) and len(c) == 2
                        and all(isinstance(x, (int, float)) for x in c)):
                    raise ValueError(f'{where}["{estr}"] must be a pair [re, im] of numbers, got {c!r}')
                row[e] = complex(c[0], c[1])
        return LaurentFamily(int_field(data.get("degree"), '"degree"'), coeffs)


def _powers(obj: dict, where: str) -> dict[int, str]:
    """{power: key} for the keys of a JSON object of powers; two keys
    that read as one power raise ValueError naming both."""
    out: dict[int, str] = {}
    for key in obj:
        k = int_field(key, f'{where}["{key}"]')
        if k in out:
            raise ValueError(f'{where} keys "{out[k]}" and "{key}" name one power')
        out[k] = key
    return out


class IndexReport(Value):
    index: int
    samples_used: int
    min_abs_discriminant: float

    def __init__(self, index: int, samples_used: int, min_abs_discriminant: float) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "samples_used", samples_used)
        object.__setattr__(self, "min_abs_discriminant", min_abs_discriminant)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "samplesUsed": self.samples_used,
            "minAbsDiscriminant": self.min_abs_discriminant,
        }


def _exponent_span(fam: LaurentFamily) -> tuple[int, int]:
    """[lo, hi] containing every z-exponent of disc(f_z).

    disc is isobaric of weight n(n-1) when a_k has weight n-k, so each of
    its monomials prod a_k^m_k has sum m_k (n-k) = n(n-1), and its
    z-exponents lie between n(n-1) times the least and the largest
    e/(n-k) over the terms c z^e of the nonzero a_k.
    """
    n = fam.degree
    w = n * (n - 1)
    terms = [(e, n - k) for k, poly in fam.coeffs.items() for e, c in poly.items() if c != 0]
    if not terms:
        return 0, 0
    return min(-(-w * e // v) for e, v in terms), max(w * e // v for e, v in terms)


def _rotation_order(fam: LaurentFamily) -> int:
    """The g that divides the difference of any two z-exponents of disc(f_z).

    A monomial of disc is prod (c_t z^e_t)^m_t over the terms of the a_k,
    with sum m_t v_t = n(n-1) for v_t = n - k_t (`_exponent_span`).  Two
    such multiplicity vectors differ by an integer relation of the v_t, and
    those relations are spanned by the pairwise ones v_t/d e_s - v_s/d e_t,
    d = gcd(v_s, v_t), so the exponents differ by multiples of the gcd of
    (e_s v_t - e_t v_s)/d over term pairs.  g = 0 when every pair gives 0,
    as for zeta^n - z^k, whose disc is one monomial.

    That gcd is read off the columns (v_t, e_t) one term at a time: the
    columns so far span (d, e_d) and (0, g) with d the gcd of their v, and
    with d' = gcd(d, v') = alpha d + beta v', the unimodular step
    (d, e_d), (v', e') -> (d', alpha e_d + beta e'), (0, (v'/d') e_d - (d/d') e')
    brings in the next one.  One gcd per term instead of one per pair.
    """
    n = fam.degree
    g = d = e_d = 0
    for k, poly in fam.coeffs.items():
        for e, c in poly.items():
            if c == 0:
                continue
            v = n - k
            d2 = math.gcd(d, v)
            alpha = pow(d // d2, -1, v // d2)  # alpha d = d2 mod v
            beta = (d2 - alpha * d) // v
            g = math.gcd(g, v // d2 * e_d - d // d2 * e)
            d, e_d = d2, alpha * e_d + beta * e
    return g


def _winding_pass(fam: LaurentFamily, n: int, lo: int, g: int) -> tuple[float, float, float, float]:
    """One pass over n points of |z| = 1: the sum of the argument steps of
    z^-lo disc(f_z), max and min |disc|, and the largest |step|.

    Every z-exponent of disc is congruent to one E mod g
    (`_rotation_order`), so with h = gcd(g, n), turning z by 2 pi/h (n/h
    samples) multiplies disc by the constant e^(2 pi i E/h).  The steps then
    repeat with period n/h and the first arc of n/h + 1 points holds every
    modulus of the circle: the pass evaluates that arc alone, and the sum
    over the circle is h times the arc's sum.  Only running values are
    kept; the steps go to `math.fsum` one by one, which rounds the sum
    correctly.
    """
    h = math.gcd(g, n)
    amax, amin, big = 0.0, math.inf, 0.0
    turn = cmath.exp(-2j * math.pi * ((lo % n) / n))  # z^-lo per sample

    def steps():
        nonlocal amax, amin, big
        first = prev = fam.discriminant_at(1 + 0j)
        for t in range(1, n // h + 1):
            d = fam.discriminant_at(cmath.exp(2j * math.pi * (t / n))) if t < n else first
            a = abs(prev)
            amax, amin = max(amax, a), min(amin, a)
            step = cmath.phase(d / prev * turn) if prev else 0.0
            big = max(big, abs(step))
            yield step
            prev = d

    total = h * math.fsum(steps())
    return total, amax, amin, big


def discriminant_index(fam: LaurentFamily, samples: int = 256) -> IndexReport:
    """Winding number of z -> disc(f_z) around 0 along |z| = 1.

    disc = z^lo P(z) with P a polynomial of degree at most hi - lo
    (`_exponent_span`), so the index is lo plus the winding of P.  P is
    sampled at more than 4 (hi - lo) points from the first pass on, which
    keeps a fast winding from aliasing to a slow one.  Principal-branch
    argument increments are accumulated, and the sample count doubles until
    every step is below pi/2, which pins the winding count.  The exponents
    of disc lie in one class mod the rotation order g of the family's
    exponent lattice (`_rotation_order`), so |disc| has period 2 pi/g on
    the circle and a pass of n samples evaluates at most n/gcd(g, n) + 1
    of them (`_winding_pass`): two for zeta^n - z^k, where g = 0.

    A discriminant that overflows to inf or nan at some sample makes the
    largest modulus inf or, through its argument steps, the sum nan, so one
    test per pass raises ValueError before the separability test reads
    either.

    The sum is an integer number of turns up to rounding, so the test
    that it lies within a quarter turn of one cannot fail.  Each step is
    the principal argument of its ratio, so a sum of steps is the argument
    of the product of their ratios modulo 2 pi.  On the arc of
    `_winding_pass` the ratios multiply to (d_(n/h) / d_0) turn^(n/h) =
    e^(2 pi i (E - lo)/h), so h times the arc's sum is 2 pi times an
    integer.  The only error is the rounding of at most MAX_SAMPLES = 2^20
    steps, each a few ulp of pi, about 1e-9 in all against the pi/2 the
    test allows; a failure is an InternalInconsistency.
    """
    check_int(samples, "samples")
    if samples < 16:
        raise ValueError("need at least 16 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most MAX_SAMPLES = {MAX_SAMPLES}")
    lo, hi = _exponent_span(fam)
    g = _rotation_order(fam)
    n = samples
    while n <= 4 * (hi - lo):
        n *= 2
    while n <= MAX_SAMPLES:
        total, amax, amin, big = _winding_pass(fam, n, lo, g)
        if not math.isfinite(total + amax):
            raise ValueError("the discriminant overflows a float on the circle")
        if amax == 0.0 or amin < SEPARABILITY_TOL * amax:
            raise SeparabilityFailure(
                f"discriminant modulus {amin:.3e} below tolerance on the circle"
            )
        if big < math.pi / 2:
            winding = round(total / (2 * math.pi))
            if abs(total / (2 * math.pi) - winding) > 0.25:
                raise InternalInconsistency("winding sum is far from an integer number of turns")
            return IndexReport(lo + winding, n, amin)
        n *= 2
    raise NonConvergence(f"no convergence within {MAX_SAMPLES} samples")


REDUCIBLE = "reducible"
INCONCLUSIVE = "inconclusive"


# the first 13 primes; as Miller-Rabin bases they decide primality for
# every n below _MR_BOUND (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Division by the bases, then a strong probable-prime test to each of
    them: deterministic below _MR_BOUND, at a cost that follows the bit
    length of n.  At or above the bound ResourceLimit is raised."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise ResourceLimit(f"primality is decided only below {_MR_BOUND}, got a "
                            f"{n.bit_length()}-bit number")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def thm1_verdict(n: int, modulus: float, index: int) -> str:
    """Reducibility verdict for a separable degree-n algebroid family on an
    annulus: certified reducible when n is prime, the conformal module
    exceeds (2 pi / log 2) n, and n divides the discriminant index.  The
    criterion has no converse, so everything else is inconclusive.  The
    cheap conditions are read first; `_is_prime` then decides
    primality below 3.3 * 10^24 and raises ResourceLimit above it unless
    a prime below 43 divides n.
    """
    check_int(n, "n")
    check_int(index, "index")
    if n < 2:
        raise ValueError("degree must be >= 2")
    if not 0 < modulus < math.inf:
        raise ValueError("modulus must be positive and finite")
    if index % n == 0 and modulus > 2 * math.pi * n / math.log(2) and _is_prime(n):
        return REDUCIBLE
    return INCONCLUSIVE


def penner_bound(g: int, m: int) -> float:
    """Lower bound log 2 / (12g - 12 + 4m) for the least nonzero entropy of
    irreducible mapping classes with signature (g, m)."""
    check_int(g, "g")
    check_int(m, "m")
    if 3 * g - 3 + m <= 0:
        raise SignatureOutOfRange(f"need 3g - 3 + m > 0, got ({g}, {m})")
    return math.log(2) / (12 * g - 12 + 4 * m)


def nbraid_entropy_lower(n: int) -> float:
    """log 2 / (4n - 8): entropy floor for irreducible n-braids, n >= 3."""
    check_int(n, "n")
    if n < 3:
        raise SignatureOutOfRange("braid entropy bound needs n >= 3")
    return math.log(2) / (4 * n - 8)


def nbraid_module_upper(n: int) -> float:
    """(pi/2)(4/log 2) n: cap on finite conformal modules of irreducible
    n-braid classes, n >= 3."""
    check_int(n, "n")
    if n < 3:
        raise SignatureOutOfRange("braid module bound needs n >= 3")
    return (math.pi / 2) * (4 / math.log(2)) * n
