"""Polynomial families over an annulus: discriminants, the winding index of
the discriminant over the core circle, the prime-degree reducibility
verdict, and the entropy/module bounds.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import (
    DegreeTooSmall,
    NonConvergence,
    SeparabilityFailure,
    SignatureOutOfRange,
)
from .perms import _is_prime

Number = Union[int, float, complex, Fraction]

MAX_SAMPLES = 2**20


def discriminant_from_roots(roots: Sequence[Number]) -> Number:
    """prod_{i<j} (r_i - r_j)^2."""
    if len(roots) < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    out: Number = 1
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out *= (roots[i] - roots[j]) ** 2
    return out


def _sylvester(p: Sequence[Number], q: Sequence[Number]) -> list[list[Number]]:
    """Sylvester matrix of two polynomials given by ascending coefficients."""
    n, m = len(p) - 1, len(q) - 1
    size = n + m
    rows = []
    pd = list(reversed(p))  # descending
    qd = list(reversed(q))
    for i in range(m):
        rows.append([0] * i + pd + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + qd + [0] * (n - 1 - i))
    assert all(len(r) == size for r in rows)
    return rows


def _det_exact(mat: list[list[Number]]) -> Number:
    """Fraction-free Bareiss determinant for int/Fraction entries."""
    m = [list(row) for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if isinstance(num, int) and isinstance(prev, int):
                    m[i][j] = num // prev
                else:
                    m[i][j] = num / prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(p: Sequence[Number], q: Sequence[Number]) -> Number:
    """Resultant from the Sylvester determinant; exact for exact inputs."""
    mat = _sylvester(p, q)
    if all(isinstance(x, (int, Fraction)) for row in mat for x in row):
        return _det_exact(mat)
    import numpy as np  # deferred: only float input needs numpy

    return complex(np.linalg.det(np.array(mat, dtype=complex)))


def discriminant_from_coeffs(coeffs: Sequence[Number]) -> Number:
    """Discriminant of a monic polynomial given by ascending coefficients.

    Sign convention matches the root-product formula:
    disc = (-1)^(n(n-1)/2) * Res(p, p').
    """
    n = len(coeffs) - 1
    if n < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    res = resultant(list(coeffs), deriv)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


@dataclasses.dataclass(frozen=True)
class LaurentFamily:
    """A monic degree-n family f(z, zeta) = zeta^n + sum a_k(z) zeta^k with
    Laurent-polynomial coefficients a_k."""

    degree: int
    coeffs: Mapping[int, Mapping[int, complex]]

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


@dataclasses.dataclass(frozen=True)
class IndexReport:
    index: int
    samples_used: int
    min_abs_discriminant: float

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "samplesUsed": self.samples_used,
            "minAbsDiscriminant": self.min_abs_discriminant,
        }


def discriminant_index(
    fam: LaurentFamily, samples: int = 256, tol_factor: float = 1e-12
) -> IndexReport:
    """Winding number of z -> disc(f_z) around 0 along |z| = 1.

    Principal-branch argument increments are accumulated; the sample count
    doubles until every step is below pi/2, which pins the winding count.
    """
    import numpy as np  # deferred to keep numpy off the import path

    if samples < 16:
        raise ValueError("need at least 16 samples")
    n = samples
    while True:
        ts = np.arange(n) / n
        zs = np.exp(2j * np.pi * ts)
        ds = np.array([fam.discriminant_at(z) for z in zs])
        amax = float(np.max(np.abs(ds)))
        amin = float(np.min(np.abs(ds)))
        if amax == 0.0 or amin < tol_factor * amax:
            raise SeparabilityFailure(
                f"discriminant modulus {amin:.3e} below tolerance on the circle"
            )
        steps = np.angle(np.roll(ds, -1) / ds)
        if np.max(np.abs(steps)) < math.pi / 2:
            total = float(np.sum(steps))
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
