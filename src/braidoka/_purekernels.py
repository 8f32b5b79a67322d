"""Pure-Python kernels for the hot loops.

The theta, E0 and sweep kernels mirror the compiled module `_kernels`, and
`_backend` picks whichever is importable; the Weierstrass kernels have no
compiled counterpart.  Matrix entries are Python ints, so there is no
overflow concern on this path.
"""

from __future__ import annotations

import cmath
import math

# theta(sigma_1) and theta(sigma_2) in SL(2,Z), plus inverses, keyed by letter
_THETA = {
    1: (1, 1, 0, 1),
    -1: (1, -1, 0, 1),
    2: (1, 0, -1, 1),
    -2: (1, 0, 1, 1),
}

_TWO_PI_I = 2j * math.pi


def theta_abcd(letters) -> tuple[int, int, int, int]:
    """Image of a B_3 word under the standard SL(2,Z) representation."""
    a, b, c, d = 1, 0, 0, 1
    for let in letters:
        p, q, r, s = _THETA[let]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def mat_mul(m1, m2):
    a, b, c, d = m1
    p, q, r, s = m2
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def mat_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def e0_screen_matrices(m1, m2, mirrored: bool) -> tuple[int, int]:
    """Zero-entropy screen of the E0 classes of e1 -> m1, e2 -> m2.

    The classes are, in order, (e1, e2, e2 e1^-1, e2 e1^-2, [e1, e2]), or
    (e1, e2, e1 e2^-1, e1 e2^-2, [e1, e2]) when mirrored.  Returns
    (index, trace) of the first class whose image has |trace| > 2, with a
    1-based index, or (0, 0) when all five pass.
    """
    x, y = (m1, m2) if mirrored else (m2, m1)
    yi = mat_inv(y)
    x_yi = mat_mul(x, yi)
    for index, m in enumerate((m1, m2, x_yi, mat_mul(x_yi, yi)), start=1):
        t = m[0] + m[3]
        if abs(t) > 2:
            return index, t
    comm = mat_mul(mat_mul(m1, m2), mat_inv(mat_mul(m2, m1)))
    t = comm[0] + comm[3]
    return (5, t) if abs(t) > 2 else (0, 0)


def e0_screen(l1, l2) -> int:
    """Zero-entropy screen of the five test classes of a pair of B_3 words.

    Returns 0 when all five theta images have |trace| <= 2, otherwise the
    1-based index of the first failing class in the order
    (e1, e2, e2 e1^-1, e2 e1^-2, [e1, e2]).
    """
    return e0_screen_matrices(theta_abcd(l1), theta_abcd(l2), False)[0]


def sweep3_stats(maxlen: int) -> dict:
    """Classify every raw B_3 word of length <= maxlen by theta trace.

    Walks the 4-ary word tree depth-first, carrying the theta image and the
    permutation image, and aggregates the counts needed by the trichotomy
    and minimum-entropy checks.  Kinds: periodic (elliptic or central
    image), reducible (parabolic image), pseudo-Anosov (hyperbolic image).
    """
    stats = {
        "total": 0,
        "periodic": 0,
        "reducible": 0,
        "pseudo_anosov": 0,
        "three_cycles": 0,
        "violations": 0,  # words with 3-cycle permutation but parabolic image
        "min_pa_abs_trace": 0,  # 0 = none seen
    }
    idmat = (1, 0, 0, 1)
    idperm = (1, 2, 3)
    _PERM = {1: (2, 1, 3), -1: (2, 1, 3), 2: (1, 3, 2), -2: (1, 3, 2)}

    def visit(mat, perm):
        stats["total"] += 1
        a, b, c, d = mat
        t = a + d
        if abs(t) > 2:
            stats["pseudo_anosov"] += 1
            cur = stats["min_pa_abs_trace"]
            if cur == 0 or abs(t) < cur:
                stats["min_pa_abs_trace"] = abs(t)
        elif abs(t) == 2 and not (b == 0 and c == 0):
            stats["reducible"] += 1
            if perm[0] != 1 and perm[1] != 2 and perm[2] != 3:
                stats["violations"] += 1
        else:
            stats["periodic"] += 1
        if perm[0] != 1 and perm[1] != 2 and perm[2] != 3:
            stats["three_cycles"] += 1

    stack = [(idmat, idperm, 0)]
    while stack:
        mat, perm, depth = stack.pop()
        visit(mat, perm)
        if depth == maxlen:
            continue
        for let in (1, -1, 2, -2):
            nm = mat_mul(mat, _THETA[let])
            s = _PERM[let]
            np_ = (s[perm[0] - 1], s[perm[1] - 1], s[perm[2] - 1])
            stack.append((nm, np_, depth + 1))
    return stats


def _exp_and_complement(z: complex) -> tuple[complex, complex]:
    """x = exp(2 pi i z) and 1 - x, for Im z >= 0.

    With 2 pi z = a + i b, 1 - x = -expm1(-b) + 2 e^-b sin^2(a/2) - i e^-b sin a:
    two nonnegative real terms and no cancellation, so x / (1 - x)^2 stays
    accurate to rounding as z approaches the pole at 0.
    """
    a, b = 2 * math.pi * z.real, 2 * math.pi * z.imag
    r = math.exp(-b)
    x = complex(r * math.cos(a), r * math.sin(a))
    return x, complex(-math.expm1(-b) + 2 * r * math.sin(a / 2) ** 2, -x.imag)


def wp_sum(z: complex, tau: complex, radius: int) -> complex:
    """Weierstrass function of Z + tau Z at z, summed row by row.

    Each lattice row sums in closed form, sum_m 1/(u - m)^2 = pi^2 csc^2(pi u),
    so with rows n and -n paired
        wp(z) = pi^2 csc^2(pi z) - pi^2/3 + sum_{1 <= n <= radius}
                [pi^2 csc^2(pi(z + n tau)) + pi^2 csc^2(pi(n tau - z))
                 - 2 pi^2 csc^2(pi n tau)].
    With x = exp(2 pi i u), pi^2 csc^2(pi u) = -4 pi^2 x / (1 - x)^2, and
    each row multiplies the three x by q = exp(2 pi i tau).  Expects
    |Im z| < Im tau, which `lattice._reduce_cell` provides.
    """
    if z.imag < 0:
        z = -z  # wp is even; now |x| <= 1 in every term
    q = cmath.exp(_TWO_PI_I * tau)
    a = cmath.exp(_TWO_PI_I * (z + tau))
    b = cmath.exp(_TWO_PI_I * (tau - z))
    c = q
    rows = 0j
    for _ in range(radius):
        rows += a / (1 - a) ** 2 + b / (1 - b) ** 2 - 2 * c / (1 - c) ** 2
        a *= q
        b *= q
        c *= q
    x, y = _exp_and_complement(z)
    return -4 * math.pi**2 * (x / y**2 + rows) - math.pi**2 / 3


def wp_prime_sum(z: complex, tau: complex, radius: int) -> complex:
    """Derivative of `wp_sum`, the same row series over rows |n| <= radius.

    Row by row, d/du pi^2 csc^2(pi u) = -2 pi^3 csc^2(pi u) cot(pi u), which
    is -8 i pi^3 x (1 + x) / (1 - x)^3 in x = exp(2 pi i u); it is odd in u,
    so rows n and -n contribute its values at z + n tau and -(n tau - z).
    """
    if z.imag < 0:
        return -wp_prime_sum(-z, tau, radius)  # wp' is odd
    q = cmath.exp(_TWO_PI_I * tau)
    a = cmath.exp(_TWO_PI_I * (z + tau))
    b = cmath.exp(_TWO_PI_I * (tau - z))
    rows = 0j
    for _ in range(radius):
        rows += a * (1 + a) / (1 - a) ** 3 - b * (1 + b) / (1 - b) ** 3
        a *= q
        b *= q
    x, y = _exp_and_complement(z)
    return -8j * math.pi**3 * (x * (1 + x) / y**3 + rows)
