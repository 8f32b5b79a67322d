"""Pure-Python kernels for the hot loops.

The E0 screen of a pair of B_3 words, the exhaustive 3-braid sweep and
the Weierstrass row series.  The theta layer (theta images, 2x2 products,
the E0 screen on a pair of images and the entropy of a trace) lives in
`_theta`, and this module reads `theta_abcd` and `e0_screen_matrices`
back from it, so `_purekernels.theta_abcd` is `_theta.theta_abcd`.
`lattice` calls the series here, and `_backend` re-exports the kernels
for the benchmark harness.  Matrix entries are Python ints, so there is
no overflow concern on any path.
"""

from __future__ import annotations

import cmath
import math

from ._theta import e0_screen_matrices, theta_abcd
from ._value import check_int
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
# _FLIP[p]: _PERMS[p] conjugated by the transposition (1 3), the permutation
# of a word with sigma_1 and sigma_2 exchanged (sweep3_stats)
_FLIP = (0, 2, 1, 4, 3, 5)

# largest sweep3_stats input: no acceptance criterion needs more, and 14
# costs about 0.03 s and a 1.6 MB allocation peak (measured in its docstring)
SWEEP3_MAXLEN = 14


def e0_screen(r1, r2) -> int:
    """Zero-entropy screen of the five test classes of a pair of B_3 words,
    given as their runs.

    Returns 0 when all five theta images have |trace| <= 2, otherwise the
    1-based index of the first failing class in the order
    (e1, e2, e2 e1^-1, e2 e1^-2, [e1, e2]).
    """
    return e0_screen_matrices(theta_abcd(r1), theta_abcd(r2), False)[0]


def sweep3_stats(maxlen: int) -> dict:
    """Classify every raw B_3 word of length <= maxlen by theta trace.

    Counts words per orbit of states instead of visiting them.  A state
    (a, b, c, d, p) is a theta image [[a, b], [c, d]] with the permutation
    _PERMS[p].  The permutation is composed letter by letter, never read
    off theta, so "violations" (3-cycle permutation with parabolic image)
    cross-checks the two.  Kinds: periodic (elliptic or central image),
    reducible (parabolic image), pseudo-Anosov (hyperbolic image).

    No subcommand and no public name reach it, on purpose: it is the
    stated instrument of acceptance criteria 2 (trichotomy totality, no
    3-cycle with a parabolic image) and 12 (least pseudo-Anosov trace 3)
    and a job of the benchmark's `sweeps` workload.

    Lemma.  Conjugation by D = diag(1, -1) and by J = [[0, 1], [1, 0]] in
    GL(2, Z) generates a Klein four-group V that permutes the four
    generator images: D sends theta(sigma_i^k) to theta(sigma_i^-k), J
    swaps theta(sigma_1^k) and theta(sigma_2^-k), and DJ swaps
    theta(sigma_1^k) and theta(sigma_2^k).  On states, D is (a, b, c, d, p)
    -> (a, -b, -c, d, p), as sigma_i^-1 swaps the strands that sigma_i
    swaps, and J is (a, b, c, d, p) -> (d, c, b, a, _FLIP[p]), as
    exchanging the transpositions (1 2) and (2 3) conjugates by (1 3).
    Negation -s = (-a, -b, -c, -d, p) multiplies theta by -I =
    theta(Delta^2), the image of the central full twist, a pure braid.
    The group G = V x {+-I} of order 8 keeps |trace|, the test b = c = 0
    and the cycle type, so every reported count is constant on orbits.
    Write s x for the state s stepped by the letter x.  For g in V,
    g(s x) = g(s) g(x) and g permutes the letters, and (-s) x = -(s x)
    with the same permutation step.  So the four children of g(s), for
    any g in G, fall in the same orbits, with multiplicity, as the four
    children of s: the orbits of a state's children depend only on its
    orbit.  So level k maps a key, a state s of some orbit, to a number N
    of words of length k that reach that orbit, and level k + 1 adds N at
    the key of s x for each of the four letters x.  An orbit may hold
    several keys, its words split between them; each part steps to the
    same child orbits, so every word is counted once, by induction on the
    length.  (The words that reach an orbit need not spread evenly over its
    states either: at length 0, I is reached and -I is not.)

    A child's key is read off in three steps, each a map of G: -I when
    a + d < 0, J when d < a, and D unless b > 0, or b = 0 < c.  So the key
    lies in the child's orbit, which is all the count needs; it is not the
    same state for every member of the orbit.  Levels 1 to 13 hold 2, 5,
    11, 18, 39, 68, 143, 264, 543, 1,040, 2,111, 4,128 and 8,319 keys,
    against 2^k orbits for k >= 2 (counted to k = 17), 1.6% more at level
    13, and 4^k words.

    The last level, as large as all the levels before it, is never built:
    at depth maxlen - 1 each state classifies its four children from the
    step's trace, b or c (the test b = c = 0) and permutation, through
    the block that classifies the states.  A child costs that block alone
    where a built state cost its key, a dict entry and the block.

    Raises ResourceLimit above SWEEP3_MAXLEN = 14: maxlen 14 (358M words,
    8,319 keys at the last level built) takes about 0.026 s with a 1.6 MB
    allocation peak (tracemalloc) and a 15.6 MB max RSS, against 13.1 MB
    for the bare interpreter; maxlen 9 takes about 0.77 ms (0.02 MB,
    13.7 MB).  Each further letter about doubles the keys: 15 measured
    0.054 s (3.4 MB, 18.2 MB), 16 0.11 s (7.6 MB, 23.1 MB).  Python 3.11,
    2-core VM, min of 15 runs (400 at maxlen 9); the Klein-four count that
    built every level took 0.053 s, 6.3 MB and 21.0 MB at 14.
    """
    check_int(maxlen, "maxlen")
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    if maxlen > SWEEP3_MAXLEN:
        raise ResourceLimit(f"sweep3_stats is limited to maxlen <= {SWEEP3_MAXLEN}")
    total = periodic = reducible = pseudo_anosov = three_cycles = violations = 0
    min_pa = 0  # 0 = none seen
    level = {(1, 0, 0, 1, 0): 1}
    for depth in range(maxlen or 1):  # maxlen 0 builds level 1 and drops it
        last = depth == maxlen - 1
        nxt: dict = {}
        get = nxt.get
        for (a, b, c, d, p), n in level.items():
            t = a + d
            p1, p1i, p2, p2i = _PERM_STEP[p]
            if last:
                # right multiplication by theta of sigma_1^{+-1}, sigma_2^{+-1},
                # as (trace, b or c, permutation) of each product
                kinds = ((t, b or c, p), (t + c, a + b or c, p1), (t - c, b - a or c, p1i),
                         (t - b, b or c - d, p2), (t + b, b or c + d, p2i))
            else:
                kinds = ((t, b or c, p),)
                # the same four products, each keyed by a state of its orbit
                for a, b, c, d, q in ((a, a + b, c, c + d, p1), (a, b - a, c, d - c, p1i),
                                      (a - b, b, c - d, d, p2), (a + b, b, c + d, d, p2i)):
                    if a + d < 0:
                        a, b, c, d = -a, -b, -c, -d
                    if d < a:
                        a, b, c, d, q = d, c, b, a, _FLIP[q]
                    if (b or c) < 0:  # D unless b > 0, or b = 0 < c
                        b, c = -b, -c
                    k = (a, b, c, d, q)
                    nxt[k] = get(k, 0) + n
            for t, nonzero, q in kinds:
                total += n
                cycle = _IS_THREE_CYCLE[q]
                t = abs(t)
                if t > 2:
                    pseudo_anosov += n
                    if min_pa == 0 or t < min_pa:
                        min_pa = t
                elif t == 2 and nonzero:
                    reducible += n
                    if cycle:
                        violations += n
                else:
                    periodic += n
                if cycle:
                    three_cycles += n
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
    |Im z| < Im tau, which `lattice._cell_point` provides.

    After the flip to Im z >= 0 the three x of a row, a, c and b, have
    |a| <= |c| <= |b| = exp(-2 pi (n Im tau - Im z)), and each later row is
    smaller by |q|.  So the sum stops once |b| of the next row is below
    2^-70: the rows left out add at most about 160 |b| / (1 - |q|), at
    most 1.4e-19 once tau is reduced (|q| <= exp(-pi sqrt 3)), far below
    ulp(pi^2/3).  `radius` caps the rows summed, and a reduced tau needs at
    most 9: there |b| of row n + 1 is at most exp(-2 pi (n + 1/2) sqrt(3)/2),
    below 2^-70 from n = 9 on.
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
