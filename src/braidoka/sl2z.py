"""Exact SL(2,Z) arithmetic: the braid representation theta, trace
classification, and conjugacy decisions.

Conjugacy is decided per class type, each by a complete invariant in
closed form:

* central: the trace;
* parabolic: (sign, shear) with M ~ sign*[[1, shear], [0, 1]].  For a
  primitive fixed vector (u, v), sign*M - I = shear*[[-uv, u^2], [-v^2, uv]],
  so |shear| is the gcd of its off-diagonal entries and shear has the sign
  of their difference;
* elliptic: the trace and the sign of c.  The fixed-point form
  c x^2 + (d-a) xy - b y^2 is definite of discriminant -3 or -4, where each
  sign has a single proper class (class number 1), and its sign is that
  of c;
* hyperbolic: the continued fraction of the attracting fixed point
  (P + sqrt D)/Q, run in integers on the pair (P, Q).  Its first reduced
  complete quotient at an even index starts a pure period; the period's
  partial quotients, read as runs R^k0 L^k1 ... in R = [[1,1],[0,1]] and
  L = [[1,0],[1,1]], form the primitive word W with sign*M ~ W^j.  The sign
  and W up to rotation are a complete invariant among matrices of one
  trace, and the loop takes a few steps per bit of the entries.
"""

from __future__ import annotations

import math

from . import _purekernels, words
from ._value import Value
from .errors import InternalInconsistency, NotParabolic, WrongStrandCount

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .braid import BraidWord


class SL2Matrix(Value):
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self.entries()}")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, o: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(*_purekernels.mat_mul(self.entries(), o.entries()))

    def inv(self) -> "SL2Matrix":
        return SL2Matrix(*_purekernels.mat_inv(self.entries()))

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

    def to_json(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def __repr__(self) -> str:
        return f"SL2Matrix[[{self.a},{self.b}],[{self.c},{self.d}]]"


I = SL2Matrix(1, 0, 0, 1)
A = SL2Matrix(1, 1, 0, 1)        # theta(sigma_1)
B = SL2Matrix(1, 0, -1, 1)       # theta(sigma_2)
R = SL2Matrix(1, 1, 0, 1)
L = SL2Matrix(1, 0, 1, 1)


def theta(b: BraidWord) -> SL2Matrix:
    """The standard representation of B_3: sigma_1 -> A, sigma_2 -> B."""
    if b.strands != 3:
        raise WrongStrandCount(f"theta is defined on B_3, got B_{b.strands}")
    return SL2Matrix(*_purekernels.theta_abcd(b.runs))


# ---------------------------------------------------------------------------
# trace classification
# ---------------------------------------------------------------------------

CENTRAL_I = "central+I"
CENTRAL_MINUS_I = "central-I"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


def _kind(m: SL2Matrix) -> str:
    """The class of m, decided once: central when b = c = 0 (then a = d =
    +-1, and a gives the sign), else elliptic, parabolic or hyperbolic as
    |trace| is below, at or above 2."""
    if m.b == 0 == m.c:
        return CENTRAL_I if m.a == 1 else CENTRAL_MINUS_I
    t = abs(m.a + m.d)
    return ELLIPTIC if t < 2 else PARABOLIC if t == 2 else HYPERBOLIC


# ---------------------------------------------------------------------------
# parabolic normal form
# ---------------------------------------------------------------------------


def parabolic_normal_form(m: SL2Matrix) -> tuple[int, int]:
    """(sign, shear): m is conjugate to sign * [[1, shear], [0, 1]].

    The pair is a complete conjugacy invariant among parabolic and central
    matrices.  n = sign*m is g [[1, shear], [0, 1]] g^-1 with first column
    (u, v) of g primitive, so n.b = shear*u^2 and n.c = -shear*v^2: |shear|
    is gcd(n.b, n.c) and shear has the sign of n.b - n.c.  At +-I both
    entries are 0, which gives (+-1, 0).
    """
    t = m.trace
    if abs(t) != 2:
        raise NotParabolic(f"{m} has trace {t}")
    sign = 1 if t == 2 else -1
    b, c = sign * m.b, sign * m.c
    shear = math.gcd(b, c)
    return (sign, shear if b > c else -shear)


# ---------------------------------------------------------------------------
# hyperbolic: the continued fraction of the attracting fixed point
# ---------------------------------------------------------------------------


def _period_runs(m: SL2Matrix) -> tuple[tuple[str, int], ...]:
    """The primitive cyclic R/L word of m (trace >= 3), run-length encoded.

    The attracting fixed point of m is x = (P + sqrt D)/Q with P = a - d,
    Q = 2c and D = t^2 - 4.  Its complete quotients (P_n + sqrt D)/Q_n
    follow P' = kQ - P and Q' = Q_prev + k(P - P'), with Q_prev = 2b at the
    start and k the floor of the quotient.  From the first reduced one
    (0 < P <= r < P + Q, Q <= r + P, r = isqrt D) at an even index the
    expansion is purely periodic; the partial quotients of one period of
    even length, read as R^k0 L^k1 ..., are the primitive word W with
    m ~ W^j.  An SL(2,Z) conjugation shifts the expansion by an even
    number of places, so the word up to rotation is a class invariant.
    """
    a, b, c, d = m.entries()
    r = math.isqrt((a + d) ** 2 - 4)
    p, q, q_prev = a - d, 2 * c, 2 * b
    # about 0.72 steps per bit of c before the expansion turns periodic and
    # at most log_phi(t) partial quotients in the word
    limit = 4 * max(abs(a), abs(b), abs(c), abs(d)).bit_length() + 16
    start: tuple[int, int] | None = None
    period: list[int] = []
    for n in range(limit):
        if start is None and not n % 2 and 0 < p <= r < p + q and q <= r + p:
            start = (p, q)
        k = (p + r) // q if q > 0 else (p + r + 1) // q
        p_next = k * q - p
        p, q, q_prev = p_next, q_prev + k * (p - p_next), q
        if start is not None:
            period.append(k)
            if not len(period) % 2 and (p, q) == start:
                return tuple(zip(("R", "L") * (len(period) // 2), period))
    raise InternalInconsistency(f"no period within {limit} partial quotients of {m}")


def rl_factorization(
    m: SL2Matrix,
) -> tuple[int, tuple[tuple[str, int], ...], SL2Matrix]:
    """(sign, runs, witness): sign*m is conjugate to witness, the product of
    the R/L word run-length encoded as runs = (("R", q1), ("L", q2), ...).
    Requires |trace| > 2."""
    if abs(m.trace) <= 2:
        raise ValueError("R/L factorization needs |trace| > 2")
    sign = 1 if m.trace > 0 else -1
    period = _period_runs(m if sign == 1 else m.neg())
    root = I
    for letter, q in period:
        root = root * (SL2Matrix(1, q, 0, 1) if letter == "R" else SL2Matrix(1, 0, q, 1))
    runs, witness = period, root
    while witness.trace < abs(m.trace):
        runs, witness = runs + period, witness * root
    if witness.trace != abs(m.trace):
        raise InternalInconsistency(f"no power of the period word has trace {m.trace}")
    return sign, runs, witness


def sl2z_conjugate(m: SL2Matrix, n: SL2Matrix) -> bool:
    """Conjugacy in SL(2,Z)."""
    if m.trace != n.trace:
        return False
    kind = _kind(m)
    if kind != _kind(n):
        return False
    if kind in (CENTRAL_I, CENTRAL_MINUS_I):
        return True  # equal traces make m = n
    if kind == PARABOLIC:
        return parabolic_normal_form(m) == parabolic_normal_form(n)
    if kind == ELLIPTIC:
        return (m.c > 0) == (n.c > 0)
    # equal traces fix the sign and the power of the primitive word
    if m.trace < 0:
        m, n = m.neg(), n.neg()
    return words._min_rotation(_period_runs(m)) == words._min_rotation(_period_runs(n))
