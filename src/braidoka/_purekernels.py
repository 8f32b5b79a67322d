"""Pure-Python kernels for the hot loops.

Theta images, the E0 screen, the entropy of a trace, the exhaustive
3-braid sweep and the Weierstrass row series; the package's modules call
them here, and `_backend` re-exports them for the benchmark harness.  Matrix entries are
Python ints, so there is no overflow concern on any path.
"""

from __future__ import annotations

import cmath
import math

from .errors import ResourceLimit

_TWO_PI_I = 2j * math.pi

# S_3 as image tuples, identity first.  Each letter sigma_i^{+-1} composes
# the transposition of strands i, i + 1 on the left; _PERM_STEP[p] lists
# the resulting index for the letters 1, -1, 2, -2.
_PERMS = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1))
_SWAP = {1: (2, 1, 3), -1: (2, 1, 3), 2: (1, 3, 2), -2: (1, 3, 2)}
_PERM_STEP = tuple(
    tuple(_PERMS.index(tuple(_SWAP[let][i - 1] for i in perm)) for let in (1, -1, 2, -2))
    for perm in _PERMS
)
_IS_THREE_CYCLE = tuple(all(img != i for i, img in enumerate(perm, 1)) for perm in _PERMS)

# largest sweep3_stats input, measured in its docstring
SWEEP3_MAXLEN = 14


def theta_abcd(letters) -> tuple[int, int, int, int]:
    """Image of a B_3 word under the standard SL(2,Z) representation.

    theta(sigma_1) = [[1, 1], [0, 1]] and theta(sigma_2) = [[1, 0], [-1, 1]]
    are elementary matrices, so multiplying [[a, b], [c, d]] by a letter's
    image on the right is two additions:
        sigma_1:  b += a; d += c        sigma_1^-1:  b -= a; d -= c
        sigma_2:  a -= b; c -= d        sigma_2^-1:  a += b; c += d
    Any other letter raises KeyError.
    """
    a, b, c, d = 1, 0, 0, 1
    for let in letters:
        if let == 1:
            b += a
            d += c
        elif let == -1:
            b -= a
            d -= c
        elif let == 2:
            a -= b
            c -= d
        elif let == -2:
            a += b
            c += d
        else:
            raise KeyError(let)
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


def e0_screen_matrices(m1, m2, mirrored: bool) -> tuple[int, int]:
    """Zero-entropy screen of the E0 classes of e1 -> m1, e2 -> m2.

    The classes are those of `_E0_BLOCKS`, or `_E0_MIRRORED_BLOCKS` when
    mirrored, each image written out as a product.  Returns (index, trace)
    of the first class whose image has |trace| > 2, with a 1-based index,
    or (0, 0) when all five pass.
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


def log_spectral_radius(trace: int) -> float:
    """log((|t| + sqrt(t^2 - 4)) / 2) for |t| > 2, stable for huge traces."""
    t = abs(trace)
    if t <= 2:
        return 0.0
    if t < 10**8:
        return math.log((t + math.sqrt(t * t - 4)) / 2)
    # for huge traces sqrt(t^2-4) ~ t: split the log to avoid overflow
    return math.log(t) + math.log1p(math.sqrt(max(0.0, 1.0 - 4 / (t * t)))) - math.log(2)


def sweep3_stats(maxlen: int) -> dict:
    """Classify every raw B_3 word of length <= maxlen by theta trace.

    Counts words per state instead of visiting them: level k maps each
    state (a, b, c, d, p) reached by a word of length k, with theta image
    [[a, b], [c, d]] and permutation _PERMS[p], to the number of such
    words, and level k + 1 multiplies each state by the four generators.
    Level k holds about 6 * 2^k states against 4^k words.  The permutation
    is composed letter by letter, never read off theta, so "violations"
    (3-cycle permutation with parabolic image) cross-checks the two.
    Kinds: periodic (elliptic or central image), reducible (parabolic
    image), pseudo-Anosov (hyperbolic image).

    Raises ResourceLimit above SWEEP3_MAXLEN = 14: maxlen 14 (358M words)
    takes about 0.37 s and 27 MB of allocations (pure Python, 2-core VM),
    and each further letter doubles the states, so 15 would take 56 MB and
    16 116 MB and 1.8 s.
    """
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    if maxlen > SWEEP3_MAXLEN:
        raise ResourceLimit(f"sweep3_stats is limited to maxlen <= {SWEEP3_MAXLEN}")
    total = periodic = reducible = pseudo_anosov = three_cycles = violations = 0
    min_pa = 0  # 0 = none seen
    level = {(1, 0, 0, 1, 0): 1}
    for depth in range(maxlen + 1):
        grow = depth < maxlen
        nxt: dict = {}
        get = nxt.get
        for (a, b, c, d, p), n in level.items():
            total += n
            cycle = _IS_THREE_CYCLE[p]
            t = abs(a + d)
            if t > 2:
                pseudo_anosov += n
                if min_pa == 0 or t < min_pa:
                    min_pa = t
            elif t == 2 and (b or c):
                reducible += n
                if cycle:
                    violations += n
            else:
                periodic += n
            if cycle:
                three_cycles += n
            if grow:
                # right multiplication by theta of sigma_1^{+-1}, sigma_2^{+-1}
                p1, p1i, p2, p2i = _PERM_STEP[p]
                k = (a, a + b, c, c + d, p1)
                nxt[k] = get(k, 0) + n
                k = (a, b - a, c, d - c, p1i)
                nxt[k] = get(k, 0) + n
                k = (a - b, b, c - d, d, p2)
                nxt[k] = get(k, 0) + n
                k = (a + b, b, c + d, d, p2i)
                nxt[k] = get(k, 0) + n
        level = nxt
    return {
        "total": total,
        "periodic": periodic,
        "reducible": reducible,
        "pseudo_anosov": pseudo_anosov,
        "three_cycles": three_cycles,
        "violations": violations,
        "min_pa_abs_trace": min_pa,
    }


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

    After the flip to Im z >= 0 the three x of a row, a, c and b, have
    |a| <= |c| <= |b| = exp(-2 pi (n Im tau - Im z)), and each later row is
    smaller by |q|.  So the sum stops once |b| of the next row is below
    2^-70: the rows left out add at most about 160 |b| / (1 - |q|), at
    most 1.4e-19 once tau is reduced (|q| <= exp(-pi sqrt 3)), far below
    ulp(pi^2/3).  `radius` caps the rows summed; a reduced tau needs at
    most 9.
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
        if abs(b) < 2.0**-70:
            break
    x, y = _exp_and_complement(z)
    return -4 * math.pi**2 * (x / y**2 + rows) - math.pi**2 / 3


def wp_prime_sum(z: complex, tau: complex, radius: int) -> complex:
    """Derivative of `wp_sum`, the same row series over rows |n| <= radius.

    Row by row, d/du pi^2 csc^2(pi u) = -2 pi^3 csc^2(pi u) cot(pi u), which
    is -8 i pi^3 x (1 + x) / (1 - x)^3 in x = exp(2 pi i u); it is odd in u,
    so rows n and -n contribute its values at z + n tau and -(n tau - z).
    The sum stops as `wp_sum`'s does, once |b| < 2^-70; the rows left out
    add at most about 500 |b| / (1 - |q|), and `radius` caps the rows.
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
        if abs(b) < 2.0**-70:
            break
    x, y = _exp_and_complement(z)
    return -8j * math.pi**3 * (x * (1 + x) / y**3 + rows)
