"""The symmetric-group projection, linking numbers, the Garside left
normal form, and equality of braids.

Conventions.  A braid word is a sequence of nonzero integers: letter +i is
the Artin generator sigma_i, letter -i its inverse.  It is held as its
maximal runs sigma_i^k of one letter (`_word.BraidWord`, which this module
reads back, with the exponent sum, so `braid.BraidWord` is the same class),
and the B_3 decisions, the exponent sum, the permutation and the linking
numbers cost O(1) integer operations per run, however long the run.  The normal form reads the runs too, but
sigma_i^k gives k factors; equality beyond B_3 steps through the letters.
Strands are labelled by their starting position; the permutation image
sends a strand's start to its end position, and sigma_i maps to the
adjacent transposition (i, i+1).

The normal form is the classical left Garside form Delta^p . A_1 ... A_k
with each A_j a permutation braid (neither trivial nor Delta) and each
consecutive pair left-weighted: the starting set of A_{j+1} is contained in
the finishing set of A_j.  It is computed by right insertion of
permutation-braid runs of the word; a pair is left-weighted in place by
moving the meet m of (A_j^-1 Delta) and A_{j+1} across one crossing at a
time, O(n + |m|) swaps on lists that carry each factor and its inverse
(see `normal_form`; Elrifai-Morton, Algorithms for positive braids, 1994;
Epstein et al., Word Processing in Groups, ch. 9).  Inverse letters enter
through the identity s^-1 = Delta^-1 (Delta s^-1), whose second factor is
a permutation braid.  The word's runs are read once, left to right,
without spelling the word out: tau, conjugation by Delta, is an
involution that keeps simple elements, Delta and left-weightedness, so
each run is inserted turned by tau^(Delta^-1 markers before it), and the
output is turned once by tau^(all markers).  The output is checked for
left-weightedness on the inverses held beside the factors, and its
permutations are built without a second validation.  The normal form
serves `nf`; equality does not build it.  `braid_eq` decides B_3 by theta
(`_theta.theta_abcd`) and the exponent sum, and every other B_n by the
faithful integer action of B_n on Dynnikov coordinates in Z^(2n).
"""

from __future__ import annotations

from itertools import chain

from . import _theta, perms
from ._value import Value, check_int
# the word and its limits live in `_word`; they read as braid.BraidWord,
# braid.MAX_STRANDS and so on as well
from ._word import (  # noqa: F401
    MAX_LETTERS,
    MAX_STRANDS,
    POW_MAXRUNS,
    _TOO_LONG,
    BraidWord,
    Run,
    exponent_sum,
)
from .errors import InternalInconsistency, NotPure, ResourceLimit, StrandMismatch

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .perms import Permutation


def delta(n: int) -> BraidWord:
    """The positive half twist Delta_n = (s1)(s2 s1)...(s_{n-1} ... s1)."""
    check_int(n, "n")
    letters = [i for k in range(1, n) for i in range(k, 0, -1)]
    return BraidWord(n, tuple(letters))


def commutator(b1: BraidWord, b2: BraidWord) -> BraidWord:
    return b1 * b2 * b1.inv() * b2.inv()


def permutation(b: BraidWord) -> Permutation:
    """Image of b under the natural projection B_n -> S_n; a run sigma_i^k
    is the transposition (i, i+1) when k is odd, else nothing."""
    pos = list(range(1, b.strands + 1))  # pos[p-1] = strand currently at position p
    for i, k in b.runs:
        if k % 2:
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return perms.Permutation(tuple(_t_inv(pos)))


class LinkingNumbers(Value):
    """Linking numbers l_ij of a pure braid, one per strand pair i < j."""

    strands: int
    values: tuple[tuple[int, int, int], ...]  # sorted ((i, j), l) triples flattened

    def __init__(self, strands: int, values: tuple[tuple[int, int, int], ...]) -> None:
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "values", values)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = min(pair), max(pair)
        for a, b, v in self.values:
            if (a, b) == (i, j):
                return v
        raise KeyError(pair)

    def tuple3(self) -> tuple[int, int, int]:
        """The ordered tuple (l_23, l_13, l_12) used for 3-braids."""
        if self.strands != 3:
            raise ValueError("tuple3 is only defined for B_3")
        return (self[(2, 3)], self[(1, 3)], self[(1, 2)])

    def unordered(self) -> tuple[int, ...]:
        return tuple(sorted(v for _, _, v in self.values))


def linking_numbers(b: BraidWord) -> LinkingNumbers:
    """Linking numbers by strand tracing.

    Discarding all strands but {i, j} leaves a 2-braid sigma^(2m); here the
    signed crossings between the two retained strands are counted along the
    word and halved.  Every letter of a run sigma_i^k crosses the same two
    strands, so the run adds k to their count.  Sign convention: sigma_i^2
    on adjacent retained strands has linking number +1.  The braid is pure
    when the walk ends with every strand back at its start.  Each crossing
    of two strands swaps their order, so two strands that end where they
    started crossed an even number of times and every count halves.
    """
    n = b.strands
    counts: dict[tuple[int, int], int] = {}
    pos = list(range(1, n + 1))  # pos[p-1] = strand currently at position p
    for i, k in b.runs:
        s, t = pos[i - 1], pos[i]
        pair = (s, t) if s < t else (t, s)
        counts[pair] = counts.get(pair, 0) + k
        if k % 2:
            pos[i - 1], pos[i] = t, s
    if pos != list(range(1, n + 1)):
        raise NotPure("linking numbers are defined for pure braids only")
    values = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = counts.get((i, j), 0)
            if c % 2:
                raise InternalInconsistency("odd crossing count in a pure braid")
            values.append((i, j, c // 2))
    return LinkingNumbers(n, tuple(values))


# ---------------------------------------------------------------------------
# Garside left normal form
# ---------------------------------------------------------------------------


# the normal-form inner loop works on raw image lists (p[i-1] = image of
# i) to stay off the validating constructor


def _t_inv(p: list[int] | tuple[int, ...]) -> list[int]:
    out = [0] * len(p)
    for i, img in enumerate(p, start=1):
        out[img - 1] = i
    return out


def _t_left_weight(a: list[int], ai: list[int], b: list[int], bi: list[int]) -> bool:
    """Make the pair (a, b) left-weighted in place, where ai and bi are the
    inverses of a and b and stay so; return whether anything moved.

    One crossing moves at a time: wherever sigma_(i+1) (0-based i) starts
    b (b(i) > b(i+1)) and does not end a (a^-1(i) < a^-1(i+1)), b becomes
    sigma_(i+1)^-1 b (its entries i, i+1 swap) and a becomes a sigma_(i+1)
    (its values i+1, i+2 swap).  A move changes the test only at i - 1, i
    and i + 1, and it fails at i afterwards, so the scan steps back one
    position.  While the test holds there, the next move carries b(i+1)
    and a^-1(i+1) one position further down, and each position passed
    fails again: its test reads what the test one position lower read
    before, and at the foot b increases.  So each descent is one shift,
    the carried entries placed once at its foot, and the scan goes on at
    i + 1.  Every move takes one crossing of the meet m = (a^-1 Delta) ^ b
    off b, and the pair left-weighted with the same product is unique, so
    the scan ends at (a m, m^-1 b) after O(n + |m|) steps.
    """
    moved = False
    for i in range(len(b) - 1):
        if b[i] > b[i + 1] and ai[i] < ai[i + 1]:
            x, y = b[i + 1], ai[i + 1]
            j = i
            while True:
                u, v = b[j], ai[j]
                b[j + 1] = u
                bi[u - 1] = j + 2
                ai[j + 1] = v
                a[v - 1] = j + 2
                if not j or b[j - 1] < x or ai[j - 1] > y:
                    break
                j -= 1
            b[j] = x
            bi[x - 1] = j + 1
            ai[j] = y
            a[y - 1] = j + 1
            moved = True
    return moved


class GarsideNormalForm(Value):
    """Delta^power followed by a left-weighted sequence of permutation braids."""

    strands: int
    power: int
    factors: tuple[Permutation, ...]

    def __init__(self, strands: int, power: int, factors: tuple[Permutation, ...]) -> None:
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "factors", factors)

    def canonical_length(self) -> int:
        return len(self.factors)

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors

    def __repr__(self) -> str:
        facs = ", ".join(str(f.images) for f in self.factors)
        return f"GarsideNormalForm(B{self.strands}, Delta^{self.power}, [{facs}])"


def normal_form(b: BraidWord) -> GarsideNormalForm:
    """The left normal form Delta^p A_1 ... A_k of b.

    The word's runs sigma_i^k are read once, left to right, without
    spelling the word out, and cut into maximal same-sign runs that are
    permutation braids: the first letter of sigma_i^k may extend the open
    run, and each later letter closes one, since sigma_i^2 is not a
    permutation braid.  A positive run s is one factor; a
    negative run s^-1 is Delta^-1 (Delta s^-1), a Delta^-1 marker and the
    factor Delta s^-1.  The markers go to the front by one lemma: tau,
    conjugation by Delta, is an involution of B_n (Delta^2 is central) that
    keeps simple elements, Delta and left-weightedness, since S(tau B) =
    n - S(B) and F(tau A) = n - F(A) for the starting and finishing sets
    of generator indices.  A marker moved left past a factor turns it by
    tau, so factor j is turned by tau^(markers after j), which is tau^total
    tau^(markers up to j).  So each run is inserted as it closes, turned by
    tau^(markers read so far); once the word is read, every output factor
    is turned by tau^total and the power is lead - total, where lead counts
    the Delta factors at the front.

    Insertion appends one factor (right insertion) and left-weights the
    pairs from the right end leftwards in one step each, by moving the meet
    m of (A_j^-1 Delta) and A_{j+1} from A_{j+1} onto A_j
    (`_t_left_weight`), stopping at the first pair that is already
    left-weighted or whose left factor is Delta (Elrifai-Morton, Algorithms
    for positive braids, 1994; Epstein et al., Word Processing in Groups,
    ch. 9).  Each factor is held as a list of images beside a list of its
    inverse, so a step costs O(n + |m|) swaps in place, and with k factors
    there are O(k^2) steps.  sigma_i^k still gives k factors, so
    ResourceLimit is raised above MAX_LETTERS letters, on the sum of the
    run lengths before any run is read.

    The final check that consecutive factors are left-weighted reads the
    inverses held beside them, before the turn by tau^total, which keeps
    left-weightedness.  It trusts those inverses, so it gives up the
    independence of inverting each factor afresh: an inverse list gone
    wrong would pass it.  The tests check the output that way
    (`check_factors` in tests/nf_reference.py).
    """
    n = b.strands
    if sum([k if k > 0 else -k for _, k in b.runs]) > MAX_LETTERS:
        raise ResourceLimit(_TOO_LONG)
    w0 = list(range(n, 0, -1))
    ident = list(range(1, n + 1))
    out: list[list[int]] = []  # the factors inserted, and their inverses beside them
    outi: list[list[int]] = []
    markers = 0  # the Delta^-1 markers read so far
    positive = True
    fi = ident[:]  # the strand at each position after the open run's letters
    # a run (1, 0) after the word's runs closes the last open run
    for i, k in chain(b.runs, ((1, 0),)):
        # the letters of sigma_i^k that close an open run; (1, 0) closes one
        c = k if k > 0 else -k or 1
        if k and (k > 0) == positive and fi[i - 1] < fi[i]:
            c -= 1  # the first letter extends the open run
            fi[i - 1], fi[i] = fi[i], fi[i - 1]
        while c:
            c -= 1
            # fi is the inverse of the closed run s, and that of Delta s^-1
            # is fi with its values flipped; tau, which commutes with
            # inversion, flips both positions and values
            markers += not positive
            odd = markers % 2
            if odd:
                fi.reverse()
            if odd == positive:  # values flipped by tau or by Delta s^-1, not both
                fi = [n + 1 - x for x in fi]
            # right insertion; only the appended factor can become trivial,
            # because the pairs left of it were left-weighted before the append
            if fi != ident:
                out.append(_t_inv(fi))
                outi.append(fi)
                j = len(out) - 1
                while (j and out[j - 1] != w0
                       and _t_left_weight(out[j - 1], outi[j - 1], out[j], outi[j])):
                    if out[j] == ident:
                        del out[j], outi[j]
                    j -= 1
            positive = k > 0
            fi = ident[:]
            fi[i - 1], fi[i] = fi[i], fi[i - 1]

    lead = 0
    while lead < len(out) and out[lead] == w0:
        lead += 1
    # tau keeps left-weightedness, so the pairs are checked before the turn
    for ai, bb in zip(outi[lead:], out[lead + 1:]):
        for i in range(n - 1):
            if bb[i] > bb[i + 1] and ai[i] < ai[i + 1]:
                raise InternalInconsistency("factors not left-weighted after rewrite")
    odd = markers % 2  # tau^markers turns every factor once
    make = perms.Permutation._from_images
    factors = [make(tuple([n + 1 - x for x in reversed(f)] if odd else f)) for f in out[lead:]]
    return GarsideNormalForm(n, lead - markers, tuple(factors))


def _dynnikov(runs: tuple[Run, ...], start: list[int]) -> list[int]:
    """The image of start = (a_1, b_1, ..., a_n, b_n) in Z^(2n) under the
    word's letters, applied from the left end of the word, one at a time.

    sigma_i maps the coordinates (x1, y1, x2, y2) = (a_i, b_i, a_{i+1},
    b_{i+1}) by the piecewise-linear map F, with x+ = max(x, 0) and
    x- = min(x, 0):
      F: z = x1 - y1- - x2 + y2+;  (x1 + y1+ + (y2+ - z)+, y2 - z+,
                                    x2 + y2- + (y1- + z)-, y1 + z+)
    and sigma_i^-1 by N F N, with N negating x1 and x2.  B_n acts
    faithfully this way and only the identity fixes (0, 1, ..., 0, 1)
    (Dynnikov, Russian Math. Surveys 57, 2002; Dehornoy-Dynnikov-Rolfsen-
    Wiest, Ordering Braids, AMS 2008, ch. XII), so two words are equal
    exactly when their images are.  A run reads and writes its four
    coordinates once.  ResourceLimit is raised when the runs longer than
    one letter hold more than MAX_LETTERS letters; every other run is one
    step, which the length of the input pays for.
    """
    v = list(start)
    budget = MAX_LETTERS
    for i, k in runs:
        j = 2 * i - 2
        x1, y1, x2, y2 = v[j], v[j + 1], v[j + 2], v[j + 3]
        neg = k < 0
        if neg:
            x1, x2, k = -x1, -x2, -k
        if k > 1:
            budget -= k
            if budget < 0:
                raise ResourceLimit(_TOO_LONG)
        while True:
            y1p = y1 if y1 > 0 else 0
            y2p = y2 if y2 > 0 else 0
            y1m = y1 - y1p
            z = x1 - y1m - x2 + y2p
            zp = z if z > 0 else 0
            t = y2p - z
            u = y1m + z
            x1 = x1 + y1p + (t if t > 0 else 0)
            x2 = x2 + y2 - y2p + (u if u < 0 else 0)
            y1, y2 = y2 - zp, y1 + zp
            k -= 1
            if not k:
                break
        if neg:
            x1, x2 = -x1, -x2
        v[j] = x1
        v[j + 1] = y1
        v[j + 2] = x2
        v[j + 3] = y2
    return v


def braid_eq(b1: BraidWord, b2: BraidWord) -> bool:
    """Equality in B_n.

    B_3 compares the (theta, exponent sum) pair, which is faithful because
    the kernel of theta is generated by Delta^4 and Delta^4 has exponent sum
    12; both cost O(1) per run.  Every other n compares the two words'
    images of (0, 1, ..., 0, 1) under the Dynnikov action (`_dynnikov`), at
    a cost linear in the word length and in the bit length of the
    coordinates; no normal form is built.
    """
    if b1.strands != b2.strands:
        raise StrandMismatch(f"B_{b1.strands} vs B_{b2.strands}")
    if b1.strands == 3:
        if exponent_sum(b1) != exponent_sum(b2):
            return False
        return _theta.theta_abcd(b1.runs) == _theta.theta_abcd(b2.runs)
    start = [0, 1] * b1.strands
    return _dynnikov(b1.runs, start) == _dynnikov(b2.runs, start)
