"""Polynomial families over an annulus: discriminants, the winding index of
the discriminant over the core circle, the prime-degree reducibility
verdict, and the entropy/module bounds.
"""

from __future__ import annotations

import cmath
import math

from ._value import Value
from .errors import (
    DegreeTooSmall,
    NonConvergence,
    SeparabilityFailure,
    SignatureOutOfRange,
)
from .perms import _is_prime

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence
    from fractions import Fraction

Number = "int | float | complex | Fraction"

# A degree-3 family that doubles from 256 samples up to this cap (about
# 2.1M discriminants) takes about 40 s and peaks at 130 MB resident (pure
# Python 3.11, 2-core VM); the last pass alone is about half of that.
MAX_SAMPLES = 2**20
# |disc| below this fraction of its maximum on the circle counts as a zero
SEPARABILITY_TOL = 1e-12


def discriminant_from_roots(roots: Sequence[Number]) -> Number:
    """prod_{i<j} (r_i - r_j)^2."""
    if len(roots) < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    out: Number = 1
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out *= (roots[i] - roots[j]) ** 2
    return out


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
    Laurent-polynomial coefficients a_k."""

    degree: int
    coeffs: Mapping[int, Mapping[int, complex]]

    def __init__(self, degree: int, coeffs: Mapping[int, Mapping[int, complex]]) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise DegreeTooSmall("family degree must be >= 2")
        for k in self.coeffs:
            if not 0 <= k < self.degree:
                raise ValueError(f"zeta power {k} out of range")

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
    def from_json(data: dict) -> "LaurentFamily":
        coeffs = {}
        for kstr, poly in data["coeffs"].items():
            coeffs[int(kstr)] = {
                int(estr): complex(c[0], c[1]) for estr, c in poly.items()
            }
        return LaurentFamily(int(data["degree"]), coeffs)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": {
                str(k): {str(e): [c.real, c.imag] for e, c in poly.items()}
                for k, poly in self.coeffs.items()
            },
        }


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


def discriminant_index(fam: LaurentFamily, samples: int = 256) -> IndexReport:
    """Winding number of z -> disc(f_z) around 0 along |z| = 1.

    Principal-branch argument increments are accumulated; the sample count
    doubles until every step is below pi/2, which pins the winding count.
    """
    if samples < 16:
        raise ValueError("need at least 16 samples")
    n = samples
    while True:
        ds = [fam.discriminant_at(cmath.exp(2j * math.pi * (t / n))) for t in range(n)]
        amax = max(map(abs, ds))
        amin = min(map(abs, ds))
        if amax == 0.0 or amin < SEPARABILITY_TOL * amax:
            raise SeparabilityFailure(
                f"discriminant modulus {amin:.3e} below tolerance on the circle"
            )
        steps = [cmath.phase(b / a) for a, b in zip(ds, ds[1:] + ds[:1])]
        if max(map(abs, steps)) < math.pi / 2:
            total = math.fsum(steps)
            index = round(total / (2 * math.pi))
            if abs(total / (2 * math.pi) - index) > 0.25:
                raise NonConvergence("winding sum is far from an integer")
            return IndexReport(index, n, amin)
        n *= 2
        if n > MAX_SAMPLES:
            raise NonConvergence(f"no convergence within {MAX_SAMPLES} samples")


REDUCIBLE = "reducible"
INCONCLUSIVE = "inconclusive"


def thm1_verdict(n: int, modulus: float, index: int) -> str:
    """Reducibility verdict for a separable degree-n algebroid family on an
    annulus: certified reducible when n is prime, the conformal module
    exceeds (2 pi / log 2) n, and n divides the discriminant index.  The
    criterion has no converse, so everything else is inconclusive.
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if _is_prime(n) and modulus > 2 * math.pi * n / math.log(2) and index % n == 0:
        return REDUCIBLE
    return INCONCLUSIVE


def penner_bound(g: int, m: int) -> float:
    """Lower bound log 2 / (12g - 12 + 4m) for the least nonzero entropy of
    irreducible mapping classes with signature (g, m)."""
    if 3 * g - 3 + m <= 0:
        raise SignatureOutOfRange(f"need 3g - 3 + m > 0, got ({g}, {m})")
    return math.log(2) / (12 * g - 12 + 4 * m)


def nbraid_entropy_lower(n: int) -> float:
    """log 2 / (4n - 8): entropy floor for irreducible n-braids, n >= 3."""
    if n < 3:
        raise SignatureOutOfRange("braid entropy bound needs n >= 3")
    return math.log(2) / (4 * n - 8)


def nbraid_module_upper(n: int) -> float:
    """(pi/2)(4/log 2) n: cap on finite conformal modules of irreducible
    n-braid classes, n >= 3."""
    if n < 3:
        raise SignatureOutOfRange("braid module bound needs n >= 3")
    return (math.pi / 2) * (4 / math.log(2)) * n
