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
  trace, and the loop takes a few steps per bit of the entries.  W is kept
  as the runs of the B_3 word sigma_1^k0 sigma_2^-k1 ... that theta maps to
  it, integer pairs like the blocks of a free word, and two words are
  compared up to rotation by containment in the doubled word.
"""

from __future__ import annotations

import math

from . import _theta
from ._value import Value, _same_cycle, check_int
from .errors import InternalInconsistency, NotParabolic

TYPE_CHECKING = False
if TYPE_CHECKING:
    from ._word import BraidWord

    # the entries (a, b, c, d) of [[a, b], [c, d]], as the kernels return
    # them; the class, the parabolic invariant, the period word and
    # conjugacy are read off them, so a caller holding theta's entries
    # builds no SL2Matrix
    Entries = tuple[int, int, int, int]


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
        return SL2Matrix(*_theta.mat_mul(self.entries(), o.entries()))

    def inv(self) -> "SL2Matrix":
        return SL2Matrix(*_theta.mat_inv(self.entries()))

    def __pow__(self, k: int) -> "SL2Matrix":
        """Square-and-multiply: O(log |k|) products."""
        check_int(k, "a matrix power")
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
    _theta._b3("theta", b)
    return SL2Matrix(*_theta.theta_abcd(b.runs))


# ---------------------------------------------------------------------------
# trace classification
# ---------------------------------------------------------------------------

CENTRAL_I = "central+I"
CENTRAL_MINUS_I = "central-I"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


def _kind(m: Entries) -> str:
    """The class of the entries m = (a, b, c, d), decided once: central
    when b = c = 0 (then a = d = +-1, and a gives the sign), else elliptic,
    parabolic or hyperbolic as |trace| is below, at or above 2."""
    a, b, c, d = m
    if b == 0 == c:
        return CENTRAL_I if a == 1 else CENTRAL_MINUS_I
    t = abs(a + d)
    return ELLIPTIC if t < 2 else PARABOLIC if t == 2 else HYPERBOLIC


# ---------------------------------------------------------------------------
# parabolic normal form
# ---------------------------------------------------------------------------


def _sign_shear(m: Entries) -> tuple[int, int]:
    """(sign, shear) of entries m of trace +-2: m is conjugate to
    sign * [[1, shear], [0, 1]].

    The pair is a complete conjugacy invariant among parabolic and central
    matrices.  n = sign*m is g [[1, shear], [0, 1]] g^-1 with first column
    (u, v) of g primitive, so n.b = shear*u^2 and n.c = -shear*v^2: |shear|
    is gcd(n.b, n.c) and shear has the sign of n.b - n.c.  At +-I both
    entries are 0, which gives (+-1, 0).
    """
    a, b, c, d = m
    sign = 1 if a + d > 0 else -1
    b, c = sign * b, sign * c
    shear = math.gcd(b, c)
    return (sign, shear if b > c else -shear)


def parabolic_normal_form(m: SL2Matrix) -> tuple[int, int]:
    """(sign, shear): m is conjugate to sign * [[1, shear], [0, 1]]
    (`_sign_shear`); NotParabolic unless |trace| = 2."""
    t = m.trace
    if abs(t) != 2:
        raise NotParabolic(f"{m} has trace {t}")
    return _sign_shear(m.entries())


# ---------------------------------------------------------------------------
# hyperbolic: the continued fraction of the attracting fixed point
# ---------------------------------------------------------------------------


def _period_runs(m: Entries) -> tuple[tuple[int, int], ...]:
    """The primitive cyclic R/L word of sign*m, for the entries m, as the
    runs ((1, k0), (2, -k1), (1, k2), ...) of sigma_1^k0 sigma_2^-k1
    sigma_1^k2 ..., whose theta image is R^k0 L^k1 R^k2 ..., where
    |trace| >= 3 and sign is the sign of the trace.

    a, b, c, d are the entries of sign*m: the four are negated in place
    when the trace is negative, so t = a + d >= 3.  The attracting fixed
    point of sign*m is x = (P + sqrt D)/Q with P = a - d, Q = 2c and
    D = t^2 - 4.  Its complete quotients (P_n + sqrt D)/Q_n
    follow P' = kQ - P and Q' = Q_prev + k(P - P'), with Q_prev = 2b at the
    start and k the floor of the quotient.  From the first reduced one
    (0 < P <= r < P + Q, Q <= r + P, r = isqrt D) at an even index the
    expansion is purely periodic; the partial quotients of one period of
    even length, read as R^k0 L^k1 ..., are the primitive word W with
    sign*m ~ W^j.  An SL(2,Z) conjugation shifts the expansion by an even
    number of places, so the word up to rotation is a class invariant; the
    runs start with a sigma_1 run, so only the even rotations of one match
    the other.  A least period of odd length is read twice, and there every
    odd shift equals an even one.
    """
    a, b, c, d = m
    if a + d < 0:
        a, b, c, d = -a, -b, -c, -d
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
            period.append(-k if len(period) % 2 else k)
            if not len(period) % 2 and (p, q) == start:
                return tuple(zip((1, 2) * (len(period) // 2), period))
    raise InternalInconsistency(f"no period within {limit} partial quotients of {m}")


def rl_factorization(
    m: SL2Matrix,
) -> tuple[int, tuple[tuple[str, int], ...], SL2Matrix]:
    """(sign, runs, witness): sign*m is conjugate to witness, the product of
    the R/L word run-length encoded as runs = (("R", q1), ("L", q2), ...).
    Requires |trace| > 2.

    The period word W is theta of the B_3 runs `_period_runs` gives, one
    kernel product.  sign*m ~ W^j for one j, and the trace of W^j grows
    strictly with j once the trace of W is at least 3, so the first power
    whose trace reaches |trace m| is W^j and the trace check cannot fail."""
    if abs(m.trace) <= 2:
        raise ValueError("R/L factorization needs |trace| > 2")
    sign = 1 if m.trace > 0 else -1
    period = _period_runs(m.entries())
    root = _theta.theta_abcd(period)
    witness, j = root, 1
    while witness[0] + witness[3] < abs(m.trace):
        witness, j = _theta.mat_mul(witness, root), j + 1
    if witness[0] + witness[3] != abs(m.trace):
        raise InternalInconsistency(f"no power of the period word has trace {m.trace}")
    runs = tuple(("R", k) if i == 1 else ("L", -k) for i, k in period)
    return sign, runs * j, SL2Matrix(*witness)


def _conjugate(m: Entries, n: Entries) -> bool:
    """Conjugacy in SL(2,Z) of the entries m and n, by the invariant of
    their class."""
    if m[0] + m[3] != n[0] + n[3]:
        return False
    kind = _kind(m)
    if kind != _kind(n):
        return False
    if kind in (CENTRAL_I, CENTRAL_MINUS_I):
        return True  # equal traces make m = n
    if kind == PARABOLIC:
        return _sign_shear(m) == _sign_shear(n)
    if kind == ELLIPTIC:
        return (m[2] > 0) == (n[2] > 0)
    # equal traces fix the sign and the power of the primitive word
    return _same_cycle(_period_runs(m), _period_runs(n))


def sl2z_conjugate(m: SL2Matrix, n: SL2Matrix) -> bool:
    """Conjugacy in SL(2,Z) (`_conjugate`)."""
    return _conjugate(m.entries(), n.entries())
