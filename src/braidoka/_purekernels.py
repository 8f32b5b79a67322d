"""Pure-Python kernels for the hot loops.

Mirrors the interface of the compiled module `_kernels`; `_backend` picks
whichever is importable.  Matrix entries are Python ints, so there is no
overflow concern on this path.
"""

from __future__ import annotations

import numpy as np

# theta(sigma_1) and theta(sigma_2) in SL(2,Z), plus inverses, keyed by letter
_THETA = {
    1: (1, 1, 0, 1),
    -1: (1, -1, 0, 1),
    2: (1, 0, -1, 1),
    -2: (1, 0, 1, 1),
}


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
