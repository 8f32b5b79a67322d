"""Nielsen-Thurston trichotomy, entropy, and conformal module for 3-braids.

The classification runs through the SL(2,Z) image: elliptic or central
means periodic, parabolic means reducible (non-periodic), hyperbolic means
pseudo-Anosov.  Entropy of a pseudo-Anosov 3-braid is the log of the
spectral radius of its theta image, and the conformal module of any class
is pi/2 times the reciprocal entropy (infinite for entropy zero).

All threshold comparisons are made on the exact integer trace, so the
trichotomy needs no floating-point tolerance.
"""

from __future__ import annotations

import math

from . import _theta
from ._theta import _e0_traces, log_spectral_radius, mat_mul
from ._value import Value, check_int
from ._word import BraidWord, exponent_sum
from .errors import InternalInconsistency, ResourceLimit
from .sl2z import (
    CENTRAL_I,
    CENTRAL_MINUS_I,
    ELLIPTIC,
    PARABOLIC,
    _conjugate,
    _kind,
    _sign_shear,
    theta,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

PERIODIC = "periodic"
REDUCIBLE = "reducible"
PSEUDO_ANOSOV = "pseudoAnosov"

# log((3 + sqrt 5)/2): smallest nonzero entropy among 3-braids, at |trace| 3
MIN_PA_ENTROPY = math.log((3 + math.sqrt(5)) / 2)

# largest zero_entropy_commutator_scan input: maxlen 11 takes about 0.5 s
# and 115 MB max RSS (pure Python 3.11, 2-core Xeon VM) and reports 17,504
# image-pair rows; maxlen 12 took 1.6 s and 322 MB, for the word list
# triples with each letter
SCAN_MAXLEN = 11


def _module(h: float) -> float:
    """pi/(2h), infinite when the entropy h vanishes."""
    return math.inf if h == 0.0 else math.pi / (2 * h)


class ThreeBraidClass(Value):
    """Classification verdict for a 3-braid.  The entropy and the module
    are read off the trace, and so is the base of a periodic class:
    (sigma_1 sigma_2)^ell at |trace| 1, Delta^ell otherwise.  In JSON, a
    periodic class of trace +-2 is central, and every class of trace +-2
    is reducible."""

    kind: Literal["periodic", "reducible", "pseudoAnosov"]
    trace: int
    exponent_sum: int
    ell: int | None       # periodic power / reducible Delta^2 power
    k: int | None         # reducible sigma_1 power

    def __init__(
        self,
        kind: Literal["periodic", "reducible", "pseudoAnosov"],
        trace: int,
        exponent_sum: int,
        ell: int | None = None,
        k: int | None = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "exponent_sum", exponent_sum)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "k", k)

    @property
    def base(self) -> Literal["sigma12", "delta"] | None:
        """The power base of a periodic class, None for the others."""
        if self.kind != PERIODIC:
            return None
        return "sigma12" if abs(self.trace) == 1 else "delta"

    @property
    def entropy(self) -> float:
        return log_spectral_radius(self.trace)

    @property
    def module(self) -> float:
        return _module(self.entropy)

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "trace": self.trace, "exponentSum": self.exponent_sum}
        if self.kind == PERIODIC:
            central = abs(self.trace) == 2
            out.update(base=self.base, ell=self.ell, central=central, reducible=central)
        elif self.kind == REDUCIBLE:
            out.update(k=self.k, ell=self.ell)
        out["entropy"] = h = self.entropy
        out["module"] = None if h == 0.0 else _module(h)
        return out


def _exact_div(num: int, den: int, what: str) -> int:
    """num / den, which `classify3` divides only where the class forces
    den | num; a remainder is an InternalInconsistency."""
    if num % den:
        raise InternalInconsistency(f"{what}: {num} not divisible by {den}")
    return num // den


def classify3(b: BraidWord) -> ThreeBraidClass:
    """The Nielsen-Thurston class of b, read off theta(b) and the exponent
    sum.

    theta has kernel <Delta^4> and theta(Delta^2) = -I, so the divisions
    and the four sign and parity checks below cannot fail:

    * a central image is Delta^(2l), of exponent sum 6l and image (-I)^l;
    * a trace +-1 image is conjugate to (sigma_1 sigma_2)^l with 3 not
      dividing l, of exponent sum 2l;
    * a trace-0 image is conjugate to Delta^l with l odd, of exponent
      sum 3l;
    * a parabolic image is conjugate to sigma_1^k Delta^(2l), of exponent
      sum k + 6l and sign (-1)^l.

    A word of n != 3 strands raises WrongStrandCount.
    """
    _theta._b3("classify3", b)
    m = theta(b).entries()
    es = exponent_sum(b)
    kind = _kind(m)
    t = m[0] + m[3]

    if kind in (CENTRAL_I, CENTRAL_MINUS_I):
        # b = Delta^{2l}; also reducible as sigma_1^0 Delta^{2l}
        ell = _exact_div(es, 6, "central power")
        if (kind == CENTRAL_MINUS_I) != (ell % 2 == 1):
            raise InternalInconsistency("central sign does not match exponent sum")
        return ThreeBraidClass(PERIODIC, t, es, ell=2 * ell)
    if kind == ELLIPTIC:
        if t in (1, -1):
            ell = _exact_div(es, 2, "sigma12 power")
            if ell % 3 == 0:
                raise InternalInconsistency("elliptic +-1 trace with 3 | ell")
            return ThreeBraidClass(PERIODIC, t, es, ell=ell)
        ell = _exact_div(es, 3, "delta power")
        if ell % 2 == 0:
            raise InternalInconsistency("trace-0 image with even Delta power")
        return ThreeBraidClass(PERIODIC, t, es, ell=ell)
    if kind == PARABOLIC:
        sign, k = _sign_shear(m)
        ell = _exact_div(es - k, 6, "reducible Delta^2 power")
        if (sign == -1) != (ell % 2 == 1):
            raise InternalInconsistency("parabolic sign does not match ell parity")
        return ThreeBraidClass(REDUCIBLE, t, es, k=k, ell=ell)
    return ThreeBraidClass(PSEUDO_ANOSOV, t, es)


def entropy3(b: BraidWord) -> float:
    _theta._b3("entropy3", b)
    a, _, _, d = _theta.theta_abcd(b.runs)
    return log_spectral_radius(a + d)


def conformal_module3(b: BraidWord) -> float:
    """pi/(2h), infinite when the entropy vanishes."""
    _theta._b3("conformal_module3", b)
    a, _, _, d = _theta.theta_abcd(b.runs)
    return _module(log_spectral_radius(a + d))


def conj3(b1: BraidWord, b2: BraidWord) -> bool:
    """Conjugacy in B_3 through the SL(2,Z) quotient plus the exponent sum.

    Sound and complete: theta is onto, its kernel is generated by the
    central element Delta^4, and Delta^4 has exponent sum 12, so matching
    exponent sums pin down the central ambiguity.  The images are decided
    on their entries, as the kernel returns them (`sl2z._conjugate`).
    """
    _theta._b3("conj3", b1, b2)
    if exponent_sum(b1) != exponent_sum(b2):
        return False
    return _conjugate(_theta.theta_abcd(b1.runs), _theta.theta_abcd(b2.runs))


def centralizer_check(b: BraidWord, k: int) -> bool:
    """Does b commute with sigma_1^k?

    theta(sigma_1^k) = [[1, k], [0, 1]] commutes with theta(b) = [[a, b],
    [c, d]] exactly when kc = 0 and ka = kd; for k != 0 that is c = 0,
    since then ad = 1 forces a = d.  b sigma_1^k and sigma_1^k b have the
    same exponent sum and the kernel of theta is <Delta^4>, of exponent
    sum 12, so they are equal exactly when their images are.  The cost
    follows the runs of b, not the size of k.
    """
    _theta._b3("centralizer_check", b)
    check_int(k, "k")
    if k == 0:
        raise ValueError("k must be nonzero")
    _, _, c, _ = _theta.theta_abcd(b.runs)
    return c == 0


class CommutatorPair(Value):
    """One ordered pair of theta images (m1, m2) that the scan finds.

    b1 and b2 are the least words of the two image groups, and b1_words and
    b2_words count the words of each, so the row stands for b1_words *
    b2_words word pairs.  m1 = theta(b1) and m2 = theta(b2) are entry
    tuples (a, b, c, d), and the row `as_dict` reads every other value
    off them alone: the entropies of b1, b2, b2 b1^-1 and b2 b1^-2, whether
    b1 and b2 are pure, and markov, the sorted Markov triple (a, b, c)
    whose triple 3 (a, b, c) is (tr m1, tr m2, tr m1 m2) up to order and
    signs (fact (F)).  The commutator trace of every pair is -2 (facts (A)
    and (D)).
    """

    commutator_trace = -2

    b1: tuple[int, ...]
    b2: tuple[int, ...]
    b1_words: int
    b2_words: int
    m1: tuple[int, int, int, int]
    m2: tuple[int, int, int, int]

    def __init__(
        self,
        b1: tuple[int, ...],
        b2: tuple[int, ...],
        b1_words: int,
        b2_words: int,
        m1: tuple[int, int, int, int],
        m2: tuple[int, int, int, int],
    ) -> None:
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "b1_words", b1_words)
        object.__setattr__(self, "b2_words", b2_words)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)

    def as_dict(self) -> dict:
        """The JSON row.  Its values are read off one reading of the traces
        t1 = tr m1, t2 = tr m2 and t12 = tr m1 m2: `_e0_traces` gives those
        of m2 m1^-1 and m2 m1^-2."""
        m1, m2 = self.m1, self.m2
        t1, t2 = m1[0] + m1[3], m2[0] + m2[3]
        t12 = m1[0] * m2[0] + m1[1] * m2[2] + m1[2] * m2[1] + m1[3] * m2[3]
        u, v, _, _ = _e0_traces(t1, t2, t12)
        return {
            "b1": list(self.b1),
            "b2": list(self.b2),
            "b1Words": self.b1_words,
            "b2Words": self.b2_words,
            "commutatorTrace": self.commutator_trace,
            "entropyB1": log_spectral_radius(t1),
            "entropyB2": log_spectral_radius(t2),
            "b1Pure": _is_pure(m1),
            "b2Pure": _is_pure(m2),
            "entropyB2B1inv": log_spectral_radius(u),
            "entropyB2B1inv2": log_spectral_radius(v),
            "markov": sorted((abs(t1) // 3, abs(t2) // 3, abs(t12) // 3)),
        }


class CommutatorScanReport(Value):
    maxlen: int
    pairs: tuple[CommutatorPair, ...]  # one row per ordered image pair

    def __init__(self, maxlen: int, pairs: tuple[CommutatorPair, ...]) -> None:
        object.__setattr__(self, "maxlen", maxlen)
        object.__setattr__(self, "pairs", pairs)

    @property
    def words_scanned(self) -> int:
        """The reduced words of length 1 to maxlen: 4 of length 1, and each
        extends by 3 letters, so 4 (3^maxlen - 1) / 2 in all."""
        return 2 * (3**self.maxlen - 1)

    @property
    def pair_count(self) -> int:
        """The word pairs found: each row stands for b1_words * b2_words."""
        return sum(p.b1_words * p.b2_words for p in self.pairs)

    def as_dict(self) -> dict:
        return {
            "maxlen": self.maxlen,
            "wordsScanned": self.words_scanned,
            "pairCount": self.pair_count,
            "pairs": [p.as_dict() for p in self.pairs],
        }


def _image_groups3(maxlen: int) -> dict[tuple[int, int, int, int], list]:
    """[least word, word count] for each theta image of the reduced B_3
    words of length 1 to maxlen.

    A word's image is its prefix's times the image of its last letter, two
    additions as in `_theta.theta_abcd` with k = +-1.  Counting the
    words per state (image, last letter) instead of listing them measured
    slower at maxlen 5, where the benchmark's `sweeps` workload runs the
    scan (0.36 against 0.18 ms), and faster at SCAN_MAXLEN (0.11 against
    0.23 s), which it would not raise: the scan at maxlen 12 still took
    0.74 s that way (pure Python 3.11, 2-core Xeon VM).
    """
    groups: dict[tuple[int, int, int, int], list] = {}
    frontier: list = [((), (1, 0, 0, 1))]
    for _ in range(maxlen):
        nxt = []
        for w, (a, b, c, d) in frontier:
            last = w[-1] if w else 0
            if last != 1:
                nxt.append((w + (-1,), (a, b - a, c, d - c)))
            if last != -1:
                nxt.append((w + (1,), (a, b + a, c, d + c)))
            if last != 2:
                nxt.append((w + (-2,), (a + b, b, c + d, d)))
            if last != -2:
                nxt.append((w + (2,), (a - b, b, c - d, d)))
        for w, m in nxt:
            group = groups.get(m)
            if group is None:
                groups[m] = [w, 1]
            else:
                group[1] += 1
                if w < group[0]:
                    group[0] = w
        frontier = nxt
    return groups


def _is_pure(m) -> bool:
    """theta(b) = I mod 2, i.e. b is a pure braid (its S_3 image is trivial)."""
    return m[1] % 2 == 0 and m[2] % 2 == 0


def _fricke_roots(t1: int, t2: int) -> tuple[int, ...]:
    """The integer roots t12 of t12^2 - t1 t2 t12 + t1^2 + t2^2 = 0, the
    Fricke quadratic at commutator trace T = -2.

    Needs |t1|, |t2| >= 3, the hyperbolic traces that fact (E) leaves the
    scan: the discriminant is then (t1^2 - 4)(t2^2 - 4) - 16 >= 5 * 5 - 16
    = 9, so it is never negative."""
    p = t1 * t2
    disc = p * p - 4 * (t1 * t1 + t2 * t2)
    s = math.isqrt(disc)
    # disc = p^2 mod 4, so s = p mod 2 and both roots are integers
    return ((p + s) // 2, (p - s) // 2) if s * s == disc else ()


def zero_entropy_commutator_scan(maxlen: int) -> CommutatorScanReport:
    """Find pairs (b1, b2) whose commutator is nontrivial yet has entropy
    zero, among all reduced words of length <= maxlen, one row per ordered
    pair of theta images.

    Each pair carries the entropies of b1 and b2, which are both positive:
    by (E) below, a braid of entropy zero commutes with every braid whose
    commutator with it has entropy zero.  So no found pair meets the
    hypotheses of the commuting-criterion corollary (b1, b2 and the
    commutator all of entropy zero), and the scan needs no check of it.

    Every value of a pair but its words is read off m1 = theta(b1) and
    m2 = theta(b2), so the words are grouped by theta image and each pair
    of images is tested once.  Its row holds the least word and the word
    count of each group; every word of the first group pairs with every
    word of the second, so the rows stand for `pair_count` word pairs.
    The commutator has exponent sum 0 and the kernel of theta is
    <Delta^4>, of exponent sum 12, so the commutator is trivial exactly
    when m1 and m2 commute.  b is pure exactly when theta(b) = I mod 2,
    because theta mod 2 induces S_3 = SL(2,F_2) on the quotient by the pure
    braids.

    Cost (pure Python 3.11, 2-core Xeon VM): maxlen 5 about 0.43 ms, 7
    about 15 ms (1,824 rows for 31,536 word pairs), 10 about 0.3 s, and
    SCAN_MAXLEN = 11 about 0.5 s and 115 MB max RSS (17,504 rows for
    62,103,024 word pairs).  At the cap most of it is the word list,
    which triples with each letter.

    The image pairs are tested per trace class, through the Fricke identity
    tr[m1, m2] = t1^2 + t2^2 + t12^2 - t1 t2 t12 - 2 (Goldman, Trace
    coordinates on Fricke spaces, 2009), with t1, t2 the traces of m1, m2
    and t12 = tr(m1 m2).  Five facts bound the pairs worth testing, and a
    sixth checks the result:

    (A) tr[m1, m2] = 2 exactly when m1 and m2 have a common eigenvector
        (Culler-Shalen, Ann. of Math. 117, 1983, section 1), and in SL(2,Z)
        a common fixed point forces m1 m2 = m2 m1: the stabiliser of a cusp
        is +-(a conjugate of) <T>, a hyperbolic matrix that fixes a
        quadratic irrational also fixes its Galois conjugate, and the
        stabiliser of an elliptic point is cyclic.  So a found pair has
        tr[m1, m2] = T in {-2, -1, 0, 1}.
    (B) For |t1| = 2 the Fricke identity, as a quadratic
        t12^2 - t1 t2 t12 + t1^2 + t2^2 - 2 - T = 0 in t12, has
        discriminant 4 (T - 2) < 0, so parabolic and central images pair
        with nothing and leave the pass.
    (C) For each unordered pair of the hyperbolic trace classes (t1, t2),
        t12 is an integer root of the quadratic at T = -2, the one value
        that (A) and (D) leave.  A block whose discriminant is no perfect
        square is skipped; in the others, t12 = a p + b r + c q + d s of
        m1 = (a, b, c, d) and m2 = (p, q, r, s) is compared with the two
        roots.
    (D) The commutator subgroup of SL(2,Z) is free, so a commutator is
        never elliptic and never -I, and T = -2.  Every element of finite
        order is conjugate to a power of S = [[0, -1], [1, 0]] (order 4) or
        of U = [[0, -1], [1, 1]] (order 6), and the abelianization
        SL(2,Z) -> Z/12, S -> 3, U -> 2, is injective on <S> and <U>; so
        the commutator subgroup has no torsion, and a torsion-free
        subgroup of SL(2,Z) is free (Serre, Trees, 1980, I.1.5).  T = -1,
        0 and 1 are the traces of elements of order 3, 4 and 6.
    (E) For |t1| < 2, T = t1^2 - 2 + (t2^2 - t1 t2 t12 + t12^2), and the
        bracket is a positive definite form in (t2, t12), so T >= -2, with
        equality only at t1 = t2 = t12 = 0.  No pair has those traces:
        every trace-0 matrix is conjugate to +-S, and tr m2 = 0 = tr(S m2)
        forces m2 = [[a, b], [b, -a]], of determinant -a^2 - b^2 != 1.  So
        with (A), (B) and (D), an m1 that is not hyperbolic has
        tr[m1, m2] >= 3 unless it commutes with m2, and elliptic images
        leave the pass too: only hyperbolic ones pair.
    (F) At T = -2 the Fricke identity reads t1^2 + t2^2 + t12^2 =
        t1 t2 t12, whose nonzero integer solutions are exactly 3 (a, b, c)
        up to signs, with a^2 + b^2 + c^2 = 3abc a Markov triple (Hurwitz,
        Arch. Math. Phys. 11, 1907; H. Cohn, Ann. of Math. 61, 1955;
        M. Aigner, Markov's Theorem and 100 Years of the Uniqueness
        Conjecture, 2013).  It prunes nothing beyond (C)'s perfect-square
        test, so it serves as a label and an oracle: each row carries its
        Markov triple, and the Markov tree lists every triple a found pair
        may have, without `_fricke_roots`.

    [m1, m2] and [m2, m1] are inverse, so one test covers both orders.  A
    found pair that commutes contradicts (A) and raises
    InternalInconsistency.  Each word's image comes from its prefix's
    during the enumeration, so no word is multiplied out.
    """
    check_int(maxlen, "maxlen")
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    if maxlen > SCAN_MAXLEN:
        raise ResourceLimit(f"commutator scan is limited to maxlen <= {SCAN_MAXLEN}")
    groups = _image_groups3(maxlen)
    classes: dict[int, list[tuple[int, int, int, int]]] = {}
    for m in groups:
        if abs(m[0] + m[3]) > 2:
            classes.setdefault(m[0] + m[3], []).append(m)
    traces = list(classes)

    pairs = []  # both orders of each unordered pair of images
    for i, t1 in enumerate(traces):
        for t2 in traces[i:]:
            roots = _fricke_roots(t1, t2)
            if not roots:
                continue
            block = classes[t1]
            for k, m1 in enumerate(block):
                a, b, c, d = m1
                for m2 in block[k + 1:] if t1 == t2 else classes[t2]:
                    if a * m2[0] + b * m2[2] + c * m2[1] + d * m2[3] not in roots:
                        continue
                    if mat_mul(m1, m2) == mat_mul(m2, m1):
                        raise InternalInconsistency(
                            f"images {m1}, {m2} commute with tr[m1, m2] = -2, "
                            "but in SL(2,Z) tr[m1, m2] = 2 exactly when m1 and m2 commute"
                        )
                    (w1, k1), (w2, k2) = groups[m1], groups[m2]
                    pairs += (CommutatorPair(w1, w2, k1, k2, m1, m2),
                              CommutatorPair(w2, w1, k2, k1, m2, m1))
    pairs.sort(key=lambda p: (p.b1, p.b2))
    return CommutatorScanReport(maxlen, tuple(pairs))
