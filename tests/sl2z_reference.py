"""Reference SL(2,Z) conjugacy invariants for parity tests.

These are the elliptic, parabolic and hyperbolic steps of `braidoka.sl2z`
as they were before the closed-form class invariants and the continued
fraction of the fixed point:

* parabolic: a primitive fixed vector completed to a unimodular basis by the
  extended Euclidean algorithm, then a checked conjugation to
  sign * [[1, shear], [0, 1]];
* elliptic: the fixed point walked into the standard fundamental domain in
  exact rational arithmetic; the reduced matrix is the invariant;
* hyperbolic: Gauss reduction of the fixed-point form, applied to the
  matrix as conjugations by S0 and R^-k, to a nonnegative representative,
  which is peeled one R or L letter at a time and compared by the least
  rotation over all slices of the letter word.

They share with the code under test only `SL2Matrix` and the constants;
the class of a matrix is read from its entries here.  The letter peel
takes time linear in the entries, so keep inputs small.
"""

from __future__ import annotations

import math
from fractions import Fraction

from braidoka.errors import InternalInconsistency, NotParabolic
from braidoka.sl2z import (
    CENTRAL_I,
    CENTRAL_MINUS_I,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    SL2Matrix,
    R,
)

S0 = SL2Matrix(0, -1, 1, 0)      # order 4, fixes i


def neg(m: SL2Matrix) -> SL2Matrix:
    """-m, the product of m with the central element -I."""
    return SL2Matrix(-m.a, -m.b, -m.c, -m.d)


def _kind(m: SL2Matrix) -> str:
    """The class of m from its entries: +-I are central, and every other
    matrix is elliptic, parabolic or hyperbolic as |trace| is below, at or
    above 2."""
    if m.entries() in ((1, 0, 0, 1), (-1, 0, 0, -1)):
        return CENTRAL_I if m.a == 1 else CENTRAL_MINUS_I
    t = abs(m.trace)
    return ELLIPTIC if t < 2 else PARABOLIC if t == 2 else HYPERBOLIC


def _primitive(v1: int, v2: int) -> tuple[int, int]:
    g = math.gcd(v1, v2)
    return v1 // g, v2 // g


def parabolic_normal_form(m: SL2Matrix) -> tuple[int, int]:
    """(sign, shear): m is conjugate to sign * [[1, shear], [0, 1]].

    The pair is a complete conjugacy invariant among parabolic and central
    matrices.  Found by conjugating a primitive fixed vector to e_1.
    """
    cls = _kind(m)
    if cls == CENTRAL_I:
        return (1, 0)
    if cls == CENTRAL_MINUS_I:
        return (-1, 0)
    if cls != PARABOLIC:
        raise NotParabolic(f"{m} has trace {m.trace}")
    sign = 1 if m.trace == 2 else -1
    n = m if sign == 1 else neg(m)
    p, q = n.a - 1, n.b
    if p == 0 and q == 0:
        p, q = n.c, n.d - 1
    v1, v2 = _primitive(q, -p)
    # complete (v1, v2) to a unimodular basis
    g, x, y = _ext_gcd(v1, v2)
    if g != 1:
        raise InternalInconsistency("fixed vector not primitive")
    conj = SL2Matrix(v1, -y, v2, x)
    res = conj.inv() * n * conj
    if not (res.a == 1 and res.d == 1 and res.c == 0):
        raise InternalInconsistency(f"parabolic reduction failed: {res}")
    return (sign, res.b)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _elliptic_canonical(m: SL2Matrix) -> SL2Matrix:
    """Conjugate m so its fixed point lies in the standard fundamental domain.

    The fixed point is x + iy with x = (a-d)/2c and y^2 = (4-t^2)/4c^2, both
    exact rationals.  Reduction alternates Re-shifts into [-1/2, 1/2) with
    inversions through the unit circle.  It lands on i or on the corner
    -1/2 + i sqrt(3)/2 whose stabilizers are cyclic, hence abelian, so the
    reduced matrix itself is a complete conjugacy invariant.
    """
    if abs(m.trace) >= 2:
        raise ValueError("elliptic reduction needs |trace| < 2")
    for _ in range(10_000):
        if m.c == 0:
            raise InternalInconsistency("elliptic matrix with c = 0")
        x = Fraction(m.a - m.d, 2 * m.c)
        y2 = Fraction(4 - m.trace**2, 4 * m.c * m.c)
        n = (x + Fraction(1, 2)).__floor__()
        if n:
            shift = R ** (-n)
            m = shift * m * shift.inv()
            x -= n
        if x * x + y2 < 1:
            m = S0 * m * S0.inv()
            continue
        return m
    raise InternalInconsistency("elliptic reduction did not terminate")


def _form_of(m: SL2Matrix) -> tuple[int, int, int]:
    """The integral fixed-point form (A, B, C) = (c, d-a, -b) of m.

    Its roots are the fixed points of m on the boundary; conjugating m by g
    substitutes g^-1 into the form, so form reduction steps can be realized
    as matrix conjugations.
    """
    return (m.c, m.d - m.a, -m.b)


def _is_reduced_form(f: tuple[int, int, int], sq: int) -> bool:
    a, b, _ = f
    return 1 <= b <= sq and b + 2 * abs(a) >= sq + 1 and 2 * abs(a) <= b + sq


def _hyperbolic_nonneg(m: SL2Matrix) -> SL2Matrix:
    """A conjugate of m (trace >= 3) with all entries nonnegative.

    Gauss reduction of the fixed-point form, each step applied to the matrix
    itself; a reduced indefinite form has A*C < 0, which makes the matrix or
    its S0-conjugate entrywise nonnegative.
    """
    t = m.trace
    if t < 3:
        raise ValueError("expected trace >= 3")
    d = t * t - 4
    sq = math.isqrt(d)
    if sq * sq == d:
        raise InternalInconsistency("t^2 - 4 cannot be a perfect square")

    for _ in range(10_000):
        f = _form_of(m)
        if _is_reduced_form(f, sq):
            break
        # step: swap (x,y) -> (-y,x), i.e. conjugate by S0, then translate
        m = S0.inv() * m * S0
        fa2, fb2, _ = _form_of(m)
        # normalize: bring B into the window by x -> x + k y, matrix conj by R^-k
        if fa2 == 0:
            raise InternalInconsistency("degenerate form during reduction")
        if abs(fa2) > sq:
            target_low = -abs(fa2)  # window (-|A|, |A|]
        else:
            target_low = sq - 2 * abs(fa2)  # window (sq - 2|A|, sq]
        width = 2 * abs(fa2)
        # choose k with fb2 + 2*fa2*k in (target_low, target_low + width]
        step = 1 if fa2 > 0 else -1
        k = (target_low + width - fb2) // (2 * fa2)
        while fb2 + 2 * fa2 * k > target_low + width:
            k -= step
        while fb2 + 2 * fa2 * k <= target_low:
            k += step
        g = R ** (-k)
        m = g * m * g.inv()
    else:
        raise InternalInconsistency("form reduction did not terminate")

    f = _form_of(m)
    if f[0] < 0:
        m = S0 * m * S0.inv()
        f = _form_of(m)
    if not (m.a >= 0 and m.b >= 0 and m.c >= 0 and m.d >= 0):
        raise InternalInconsistency(f"reduced matrix not nonnegative: {m}")
    return m


def _peel_rl(m: SL2Matrix) -> tuple[str, ...]:
    """Factor a nonnegative matrix as the unique positive word in R and L."""
    word: list[str] = []
    a, b, c, d = m.entries()
    while not (a == 1 and b == 0 and c == 0 and d == 1):
        if a >= c and b >= d:
            word.append("R")
            a, b = a - c, b - d
        elif c >= a and d >= b:
            word.append("L")
            c, d = c - a, d - b
        else:
            raise InternalInconsistency("nonnegative peeling got stuck")
        if a < 0 or b < 0 or c < 0 or d < 0:
            raise InternalInconsistency("peeling left the nonnegative cone")
    return tuple(word)


def _min_rotation(word: tuple[str, ...]) -> tuple[str, ...]:
    if not word:
        return word
    doubled = word + word
    return min(doubled[i:i + len(word)] for i in range(len(word)))


def rl_factorization(m: SL2Matrix) -> tuple[int, tuple[str, ...], SL2Matrix]:
    """(sign, word, witness): sign*m is conjugate to witness, the product of
    the R/L word.  Requires |trace| > 2."""
    if abs(m.trace) <= 2:
        raise ValueError("R/L factorization needs |trace| > 2")
    sign = 1 if m.trace > 0 else -1
    w = m if sign == 1 else neg(m)
    nonneg = _hyperbolic_nonneg(w)
    word = _peel_rl(nonneg)
    if "R" not in word or "L" not in word:
        raise InternalInconsistency("hyperbolic word must use both letters")
    return sign, word, nonneg


def sl2z_conjugate(m: SL2Matrix, n: SL2Matrix) -> bool:
    """Conjugacy in SL(2,Z)."""
    if m.trace != n.trace:
        return False
    kind = _kind(m)
    if kind != _kind(n):
        return False
    if kind in (CENTRAL_I, CENTRAL_MINUS_I):
        return m == n
    if kind == PARABOLIC:
        return parabolic_normal_form(m) == parabolic_normal_form(n)
    if kind == ELLIPTIC:
        return _elliptic_canonical(m) == _elliptic_canonical(n)
    sm, wm, _ = rl_factorization(m)
    sn, wn, _ = rl_factorization(n)
    return sm == sn and _min_rotation(wm) == _min_rotation(wn)
