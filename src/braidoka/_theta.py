"""The theta layer: images of B_3 words in SL(2,Z), 2x2 products, the E0
screen on a pair of images, and the entropy of a trace.

Matrices are entry tuples (a, b, c, d) of [[a, b], [c, d]] with Python
int entries, so there is no overflow concern on any path.  `braid`
(equality in B_3), `sl2z`, `three` and `oka` call these, and
`_purekernels` reads `theta_abcd` and `e0_screen_matrices` back for its
E0 screen and for the benchmark, so the tracer wraps one function object;
a subcommand that works on theta compiles none of the sweep or the
Weierstrass series.
"""

from __future__ import annotations

import math


def theta_abcd(runs) -> tuple[int, int, int, int]:
    """Image of a B_3 word, given as its runs (i, k) = sigma_i^k, under the
    standard SL(2,Z) representation.

    theta(sigma_1^k) = [[1, k], [0, 1]] and theta(sigma_2^k) = [[1, 0],
    [-k, 1]] are elementary matrices, so multiplying [[a, b], [c, d]] by a
    run's image on the right is two multiply-adds:
        sigma_1^k:  b += k a; d += k c        sigma_2^k:  a -= k b; c -= k d
    A run of any other generator raises KeyError.
    """
    a, b, c, d = 1, 0, 0, 1
    for i, k in runs:
        if i == 1:
            b += k * a
            d += k * c
        elif i == 2:
            a -= k * b
            c -= k * d
        else:
            raise KeyError(i)
    return a, b, c, d


def mat_mul(m1, m2):
    a, b, c, d = m1
    p, q, r, s = m2
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def mat_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)


# The E0 classes as (generator, exponent) blocks, in the order
# e0_screen_matrices tests them: (e1, e2, e2 e1^-1, e2 e1^-2, [e1, e2]), and
# (e1, e2, e1 e2^-1, e1 e2^-2, [e1, e2]) mirrored.
_E0_BLOCKS = (((1, 1),), ((2, 1),), ((2, 1), (1, -1)), ((2, 1), (1, -2)),
              ((1, 1), (2, 1), (1, -1), (2, -1)))
_E0_MIRRORED_BLOCKS = _E0_BLOCKS[:2] + (((1, 1), (2, -1)), ((1, 1), (2, -2)), _E0_BLOCKS[4])


def _e0_traces(t1: int, t2: int, t12: int) -> tuple[int, int, int, int]:
    """The traces of m2 m1^-1, m2 m1^-2, m1 m2^-2 and [m1, m2] for m1, m2
    in SL(2,Z) of traces t1, t2 and tr(m1 m2) = t12: with tr m1 and tr m2,
    the traces of the E0 classes of both variants.

    Cayley-Hamilton gives m^-1 = tr(m) I - m, so with u = t1 t2 - t12,
    tr(m2 m1^-1) = u = tr(m1 m2^-1), and m1^-2 = t1 m1^-1 - I gives
    tr(m2 m1^-2) = t1 u - t2, and in the same way tr(m1 m2^-2) = t2 u - t1.
    The Fricke identity gives tr[m1, m2] = t1^2 + t2^2 + t12^2 - t1 t2 t12
    - 2 (Goldman, Trace coordinates on Fricke spaces, 2009).
    """
    u = t1 * t2 - t12
    return u, t1 * u - t2, t2 * u - t1, t1 * t1 + t2 * t2 + t12 * t12 - t1 * t2 * t12 - 2


def e0_screen_matrices(m1, m2, mirrored: bool) -> tuple[int, int]:
    """Zero-entropy screen of the E0 classes of e1 -> m1, e2 -> m2.

    The classes are those of `_E0_BLOCKS`, or `_E0_MIRRORED_BLOCKS` when
    mirrored; their five traces are read off (tr m1, tr m2, tr m1 m2) by
    `_e0_traces`, with no product written out.  Returns (index, trace)
    of the first class whose image has |trace| > 2, with a 1-based index,
    or (0, 0) when all five pass.
    """
    a, b, c, d = m1
    p, q, r, s = m2
    t1, t2 = a + d, p + s
    u, v, w, comm = _e0_traces(t1, t2, a * p + b * r + c * q + d * s)
    for index, t in enumerate((t1, t2, u, w if mirrored else v, comm), start=1):
        if abs(t) > 2:
            return index, t
    return 0, 0


def log_spectral_radius(trace: int) -> float:
    """log((|t| + sqrt(t^2 - 4)) / 2) for |t| > 2, stable for huge traces."""
    t = abs(trace)
    if t <= 2:
        return 0.0
    if t < 10**8:
        return math.log((t + math.sqrt(t * t - 4)) / 2)
    # for huge traces sqrt(t^2-4) ~ t: split the log to avoid overflow
    return math.log(t) + math.log1p(math.sqrt(max(0.0, 1.0 - 4 / (t * t)))) - math.log(2)

