"""Reference discriminants and winding index for parity tests.

These are `braidoka.families`' `resultant`, `_sylvester`, `_det_exact`,
`discriminant_from_coeffs` and `discriminant_index` as they were before
every discriminant came from one n x n determinant in plain Python:

* the discriminant is (-1)^(n(n-1)/2) Res(p, p'), with the resultant the
  determinant of the (2n-1) x (2n-1) Sylvester matrix: fraction-free
  Bareiss without pivoting for int/Fraction entries, `numpy.linalg.det`
  otherwise;
* the sampler evaluates the family on numpy arrays of points of |z| = 1.

`discriminant_from_roots`, the root-product formula, moved here from
`braidoka.families`, where only tests called it.

Only `fam.discriminant_at(z)` became `discriminant_from_coeffs` of
`fam.poly_at(z)` here, so that the sampler reads the reference
discriminant, and the deferred numpy imports moved to the top.  They share
with the code under test `LaurentFamily` (its coefficient evaluation),
`IndexReport`, `MAX_SAMPLES` and the errors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from braidoka.errors import DegreeTooSmall, NonConvergence, SeparabilityFailure
from braidoka.families import MAX_SAMPLES, IndexReport, LaurentFamily, Number


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


def discriminant_from_roots(roots: Sequence[Number]) -> Number:
    """prod_{i<j} (r_i - r_j)^2."""
    if len(roots) < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    out: Number = 1
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out *= (roots[i] - roots[j]) ** 2
    return out


def resultant(p: Sequence[Number], q: Sequence[Number]) -> Number:
    """Resultant from the Sylvester determinant; exact for exact inputs."""
    mat = _sylvester(p, q)
    if all(isinstance(x, (int, Fraction)) for row in mat for x in row):
        return _det_exact(mat)
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


def discriminant_index(
    fam: LaurentFamily, samples: int = 256, tol_factor: float = 1e-12
) -> IndexReport:
    """Winding number of z -> disc(f_z) around 0 along |z| = 1.

    Principal-branch argument increments are accumulated; the sample count
    doubles until every step is below pi/2, which pins the winding count.
    """
    if samples < 16:
        raise ValueError("need at least 16 samples")
    n = samples
    while True:
        ts = np.arange(n) / n
        zs = np.exp(2j * np.pi * ts)
        ds = np.array([complex(discriminant_from_coeffs(fam.poly_at(z))) for z in zs])
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
