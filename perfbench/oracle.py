"""Reference answers the benchmark checks the program against.

Nothing here imports braidoka.  Each answer is either a truth fixed by how
the input was built (see builders.py) or an independent computation:

* B_3 traces and classes from this module's own integer 2x2 product;
* B_n exponent sums and permutations from the word itself, which any
  Garside form must reproduce;
* sweep totals from counting words (sum of 4^k);
* the half-period values e1, e2, e3 from mpmath theta constants
  (DLMF 23.6.2-23.6.4), within THETA_TOL.
"""

from __future__ import annotations

import math

# theta(sigma_1^{+-1}), theta(sigma_2^{+-1}) as (a, b, c, d)
_GEN = {1: (1, 1, 0, 1), -1: (1, -1, 0, 1), 2: (1, 0, -1, 1), -2: (1, 0, 1, 1)}
IDENT = (1, 0, 0, 1)
MINUS_IDENT = (-1, 0, 0, -1)

# |e_j - reference| <= THETA_TOL * max(1, |reference|).  The extrapolated
# lattice sum at radius 60 is within about 1e-7 of the theta constants for
# 0.8 <= Im tau <= 2, so this leaves two orders of magnitude of slack.
THETA_TOL = 1e-5
# ode_residual is a convergence diagnostic.  At radius 60 it reads up to
# 2.7e-6 near zeta = (1 + tau)/2, where wp' vanishes, for 0.8 <= Im tau <= 2;
# this bound only catches a broken sum.  The values themselves are checked
# against theta constants to THETA_TOL.
ODE_TOL = 1e-4


def mul(m, n):
    a, b, c, d = m
    p, q, r, s = n
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def theta(letters) -> tuple[int, int, int, int]:
    """Image of a B_3 word in SL(2,Z): sigma_1 -> [[1,1],[0,1]],
    sigma_2 -> [[1,0],[-1,1]]."""
    m = IDENT
    for let in letters:
        m = mul(m, _GEN[let])
    return m


def trace(m) -> int:
    return m[0] + m[3]


def exp_sum(letters) -> int:
    return sum(1 if x > 0 else -1 for x in letters)


def inverse_word(letters) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def b3_kind(m) -> str:
    """Nielsen-Thurston type of a 3-braid from its theta image."""
    t = trace(m)
    if m in (IDENT, MINUS_IDENT) or abs(t) < 2:
        return "periodic"
    if abs(t) == 2:
        return "reducible"
    return "pseudoAnosov"


def entropy_of_trace(t: int) -> float:
    t = abs(t)
    if t <= 2:
        return 0.0
    return math.log((t + math.sqrt(t * t - 4)) / 2)


def b3_equal(w1, w2) -> bool:
    """Equality in B_3: theta together with the exponent sum is faithful."""
    return exp_sum(w1) == exp_sum(w2) and theta(w1) == theta(w2)


# ---------------------------------------------------------------------------
# permutations and Garside-form invariants (any n)
# ---------------------------------------------------------------------------


def word_permutation(n: int, letters) -> tuple[int, ...]:
    """images[s-1] is the end position of the strand that starts at s."""
    at = list(range(1, n + 1))  # at[p-1] = strand now at position p
    for let in letters:
        k = abs(let)
        at[k - 1], at[k] = at[k], at[k - 1]
    images = [0] * n
    for pos, strand in enumerate(at, start=1):
        images[strand - 1] = pos
    return tuple(images)


def then(p, q) -> tuple[int, ...]:
    """The permutation of a word u*v from those of u (p) and v (q)."""
    return tuple(q[x - 1] for x in p)


def inversions(p) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def descents(p) -> set[int]:
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def perm_inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p, start=1):
        out[x - 1] = i
    return tuple(out)


def positive_word(p) -> list[int]:
    """A reduced positive word whose permutation is p: strip left descents."""
    p = list(p)
    out = []
    while True:
        d = descents(p)
        if not d:
            return out
        i = min(d)
        out.append(i)
        p[i - 1], p[i] = p[i], p[i - 1]


def delta_word(n: int) -> tuple[int, ...]:
    return tuple(i for k in range(1, n) for i in range(k, 0, -1))


def garside_problems(n: int, letters, power: int, factors) -> list[str]:
    """What is wrong with (power, factors) as the left normal form of the
    word; empty when nothing is."""
    ident = tuple(range(1, n + 1))
    rev = tuple(range(n, 0, -1))
    bad = []
    for f in factors:
        if sorted(f) != list(ident) or f in (ident, rev):
            bad.append(f"factor {f} is not a proper permutation braid")
    for a, b in zip(factors, factors[1:]):
        if not descents(b) <= descents(perm_inverse(a)):
            bad.append(f"pair {a}, {b} is not left-weighted")
    if power * n * (n - 1) // 2 + sum(inversions(f) for f in factors) != exp_sum(letters):
        bad.append("exponent sum differs")
    perm = rev if power % 2 else ident
    for f in factors:
        perm = then(perm, f)
    if perm != word_permutation(n, letters):
        bad.append("permutation differs")
    if n == 3 and not bad:
        d = theta(delta_word(3))
        m = IDENT
        for _ in range(abs(power)):
            m = mul(m, d if power > 0 else inv(d))
        for f in factors:
            m = mul(m, theta(positive_word(f)))
        if m != theta(letters):
            bad.append("theta image differs")
    return bad


# ---------------------------------------------------------------------------
# the E0 screen (oka3) from 2x2 products
# ---------------------------------------------------------------------------

E0_WITNESS = (
    ("e1", "e2", "e2 e1^-1", "e2 e1^-2", "e1 e2 e1^-1 e2^-1"),
    ("e1", "e2", "e1 e2^-1", "e1 e2^-2", "e1 e2 e1^-1 e2^-1"),
)


def oka3_expected(w1, w2, mirrored: bool) -> dict:
    """The verdict of the E0 screen for images w1, w2 of e1, e2."""
    m1, m2 = theta(w1), theta(w2)
    comm = mul(mul(m1, m2), mul(inv(m1), inv(m2)))
    if mirrored:
        mid = mul(m1, inv(m2))
        tests = [m1, m2, mid, mul(mid, inv(m2)), comm]
    else:
        mid = mul(m2, inv(m1))
        tests = [m1, m2, mid, mul(mid, inv(m1)), comm]
    for k, m in enumerate(tests):
        if abs(trace(m)) > 2:
            return {"verdict": "violation", "witness": E0_WITNESS[mirrored][k],
                    "trace": trace(m)}
    if mul(m1, m2) != mul(m2, m1):
        return {"verdict": "contradiction"}
    if any(is_three_cycle(word_permutation(3, w)) for w in (w1, w2)):
        return {"verdict": "classified", "type": "periodicSigma12"}
    if trace(m1) == 0 or trace(m2) == 0:
        return {"verdict": "classified", "type": "periodicDelta"}
    return {"verdict": "classified", "type": "reducibleSigma1Delta2"}


def is_three_cycle(p) -> bool:
    return all(p[i] != i + 1 for i in range(3))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def thm1_expected(n: int, modulus: float, index: int) -> str:
    if is_prime(n) and modulus > 2 * math.pi * n / math.log(2) and index % n == 0:
        return "reducible"
    return "inconclusive"


def penner(g: int, m: int) -> float:
    return math.log(2) / (12 * g - 12 + 4 * m)


def entropy_lower(n: int) -> float:
    return math.log(2) / (4 * n - 8)


def module_upper(n: int) -> float:
    return 2 * math.pi * n / math.log(2)


def sweep_total(maxlen: int) -> int:
    """Raw B_3 words of length <= maxlen: sum of 4^k."""
    return (4 ** (maxlen + 1) - 1) // 3


def reduced_word_count(maxlen: int) -> int:
    """Freely reduced nonempty B_3 words of length <= maxlen."""
    return sum(4 * 3 ** (k - 1) for k in range(1, maxlen + 1))


def half_periods(tau: complex) -> tuple[complex, complex, complex]:
    """(wp(1/2), wp(tau/2), wp((1+tau)/2)) for the lattice Z + tau Z.

    DLMF 23.6.2-23.6.4 with 2*omega_1 = 1, 2*omega_3 = tau, q = exp(i pi tau):
    e1 = (pi^2/3)(theta_3^4 + theta_4^4), e2 = (pi^2/3)(theta_2^4 - theta_4^4),
    e3 = -(pi^2/3)(theta_2^4 + theta_3^4), where e2 = wp(omega_2) is the value
    at (1+tau)/2 and e3 = wp(omega_3) the value at tau/2.
    """
    import mpmath

    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
    t2, t3, t4 = (mpmath.jtheta(k, 0, q) ** 4 for k in (2, 3, 4))
    c = mpmath.pi ** 2 / 3
    return (complex(c * (t3 + t4)), complex(-c * (t2 + t3)), complex(c * (t2 - t4)))


def close(x: complex, ref: complex, tol: float) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))
