"""Exact SL(2,Z) arithmetic: the braid representation theta, trace
classification, and conjugacy decisions.

Conjugacy is decided per class type, each by a complete invariant in
closed form:

* central: equality;
* parabolic: (sign, shear) with M ~ sign*[[1, shear], [0, 1]].  For a
  primitive fixed vector (u, v), sign*M - I = shear*[[-uv, u^2], [-v^2, uv]],
  so |shear| is the gcd of its off-diagonal entries and shear has the sign
  of their difference;
* elliptic: the trace and the sign of c.  The fixed-point form
  c x^2 + (d-a) xy - b y^2 is definite of discriminant -3 or -4, where each
  sign has a single proper class (class number 1), and its sign is that
  of c;
* hyperbolic: Gauss reduction of the integral fixed-point form (tracked as
  explicit matrix conjugations) to a nonnegative representative, whose
  unique positive word in R = [[1,1],[0,1]] and L = [[1,0],[1,1]] is read
  off one whole run per division, as in Euclid's algorithm; the cyclic run
  word up to rotation together with the trace sign is a complete invariant.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from . import _backend
from .braid import BraidWord
from .errors import InternalInconsistency, NotParabolic, WrongStrandCount
from .words import _min_rotation


@dataclasses.dataclass(frozen=True)
class SL2Matrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self.entries()}")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, o: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def inv(self) -> "SL2Matrix":
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "SL2Matrix":
        return SL2Matrix(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, k: int) -> "SL2Matrix":
        """Square-and-multiply: O(log |k|) products."""
        result = I
        base = self if k >= 0 else self.inv()
        k = abs(k)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def conjugated_by(self, g: "SL2Matrix") -> "SL2Matrix":
        return g * self * g.inv()

    def to_json(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @staticmethod
    def from_json(data) -> "SL2Matrix":
        (a, b), (c, d) = data
        return SL2Matrix(int(a), int(b), int(c), int(d))

    def __repr__(self) -> str:
        return f"SL2Matrix[[{self.a},{self.b}],[{self.c},{self.d}]]"


I = SL2Matrix(1, 0, 0, 1)
MINUS_I = SL2Matrix(-1, 0, 0, -1)
A = SL2Matrix(1, 1, 0, 1)        # theta(sigma_1)
B = SL2Matrix(1, 0, -1, 1)       # theta(sigma_2)
R = SL2Matrix(1, 1, 0, 1)
L = SL2Matrix(1, 0, 1, 1)
S0 = SL2Matrix(0, -1, 1, 0)      # order 4, fixes i
T = SL2Matrix(1, 1, 0, 1)


def theta(b: BraidWord) -> SL2Matrix:
    """The standard representation of B_3: sigma_1 -> A, sigma_2 -> B."""
    if b.strands != 3:
        raise WrongStrandCount(f"theta is defined on B_3, got B_{b.strands}")
    return SL2Matrix(*_backend.theta_abcd(b.letters))


# ---------------------------------------------------------------------------
# trace classification
# ---------------------------------------------------------------------------

CENTRAL_I = "central+I"
CENTRAL_MINUS_I = "central-I"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


@dataclasses.dataclass(frozen=True)
class MatrixClass:
    kind: str
    elliptic_order: Optional[int] = None


def matrix_class(m: SL2Matrix) -> MatrixClass:
    if m == I:
        return MatrixClass(CENTRAL_I)
    if m == MINUS_I:
        return MatrixClass(CENTRAL_MINUS_I)
    t = m.trace
    if abs(t) < 2:
        order = {0: 4, 1: 6, -1: 3}[t]
        return MatrixClass(ELLIPTIC, elliptic_order=order)
    if abs(t) == 2:
        return MatrixClass(PARABOLIC)
    return MatrixClass(HYPERBOLIC)


# ---------------------------------------------------------------------------
# parabolic normal form
# ---------------------------------------------------------------------------


def parabolic_normal_form(m: SL2Matrix) -> tuple[int, int]:
    """(sign, shear): m is conjugate to sign * [[1, shear], [0, 1]].

    The pair is a complete conjugacy invariant among parabolic and central
    matrices.  n = sign*m is g [[1, shear], [0, 1]] g^-1 with first column
    (u, v) of g primitive, so n.b = shear*u^2 and n.c = -shear*v^2: |shear|
    is gcd(n.b, n.c) and shear has the sign of n.b - n.c.
    """
    cls = matrix_class(m).kind
    if cls == CENTRAL_I:
        return (1, 0)
    if cls == CENTRAL_MINUS_I:
        return (-1, 0)
    if cls != PARABOLIC:
        raise NotParabolic(f"{m} has trace {m.trace}")
    sign = 1 if m.trace == 2 else -1
    b, c = sign * m.b, sign * m.c
    shear = math.gcd(b, c)
    return (sign, shear if b > c else -shear)


# ---------------------------------------------------------------------------
# hyperbolic: form reduction and the R/L cyclic word
# ---------------------------------------------------------------------------


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
        # normalize: bring B into the window by x -> x + k y, matrix conj by T^-k
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
        g = T ** (-k)
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


def _run_length(x: int, y: int, u: int, v: int) -> int:
    """The largest q with x - q*u >= 0 and y - q*v >= 0; a zero divisor sets
    no limit (u and v are nonnegative, not both zero)."""
    if not u:
        return y // v
    if not v:
        return x // u
    return min(x // u, y // v)


def _peel_rl(m: SL2Matrix) -> tuple[tuple[str, int], ...]:
    """Factor a nonnegative matrix as the unique positive word in R and L,
    run-length encoded: R^q peels off as [[a - q*c, b - q*d], [c, d]] with
    q as large as keeps it nonnegative, and L^q likewise."""
    runs: list[tuple[str, int]] = []
    a, b, c, d = m.entries()
    while not (a == 1 and b == 0 and c == 0 and d == 1):
        if a >= c and b >= d:
            q = _run_length(a, b, c, d)
            runs.append(("R", q))
            a, b = a - q * c, b - q * d
        elif c >= a and d >= b:
            q = _run_length(c, d, a, b)
            runs.append(("L", q))
            c, d = c - q * a, d - q * b
        else:
            raise InternalInconsistency("nonnegative peeling got stuck")
    return tuple(runs)


def _cyclic_runs(runs: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int], ...]:
    """The least rotation of the cyclic run word, the first and last runs
    merged when they share a letter."""
    if runs[0][0] == runs[-1][0]:
        runs = ((runs[0][0], runs[0][1] + runs[-1][1]),) + runs[1:-1]
    return _min_rotation(runs)


def rl_factorization(
    m: SL2Matrix,
) -> tuple[int, tuple[tuple[str, int], ...], SL2Matrix]:
    """(sign, runs, witness): sign*m is conjugate to witness, the product of
    the R/L word run-length encoded as runs = (("R", q1), ("L", q2), ...).
    Requires |trace| > 2."""
    if abs(m.trace) <= 2:
        raise ValueError("R/L factorization needs |trace| > 2")
    sign = 1 if m.trace > 0 else -1
    w = m if sign == 1 else m.neg()
    nonneg = _hyperbolic_nonneg(w)
    runs = _peel_rl(nonneg)
    if len(runs) < 2:
        raise InternalInconsistency("hyperbolic word must use both letters")
    return sign, runs, nonneg


def sl2z_conjugate(m: SL2Matrix, n: SL2Matrix) -> bool:
    """Conjugacy in SL(2,Z)."""
    if m.trace != n.trace:
        return False
    km, kn = matrix_class(m), matrix_class(n)
    if km != kn:
        return False
    kind = km.kind
    if kind in (CENTRAL_I, CENTRAL_MINUS_I):
        return m == n
    if kind == PARABOLIC:
        return parabolic_normal_form(m) == parabolic_normal_form(n)
    if kind == ELLIPTIC:
        return (m.c > 0) == (n.c > 0)
    sm, wm, _ = rl_factorization(m)
    sn, wn, _ = rl_factorization(n)
    return sm == sn and _cyclic_runs(wm) == _cyclic_runs(wn)
