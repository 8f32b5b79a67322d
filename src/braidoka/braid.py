"""Braid words, the symmetric-group projection, linking numbers, the
Garside left normal form, and equality of braids.

Conventions.  A braid word is a sequence of nonzero integers: letter +i is
the Artin generator sigma_i, letter -i its inverse.  It is held as its
maximal runs sigma_i^k of one letter, and the B_3 decisions, the exponent
sum, the permutation and the linking numbers cost O(1) integer operations
per run, however long the run; the normal form and equality beyond B_3
step through the letters.  Strands are labelled by their starting
position; the permutation image sends a strand's start to its end
position, and sigma_i maps to the adjacent transposition (i, i+1).

The normal form is the classical left Garside form Delta^p . A_1 ... A_k
with each A_j a permutation braid (neither trivial nor Delta) and each
consecutive pair left-weighted: the starting set of A_{j+1} is contained in
the finishing set of A_j.  It is computed by right insertion of
permutation-braid runs of the word, with one-step left-weighting of
adjacent pairs through meets of permutation braids (see `normal_form`;
Elrifai-Morton, Algorithms for positive braids, 1994; Epstein et al., Word
Processing in Groups, ch. 9).  Inverse letters enter through the identity
s^-1 = Delta^-1 (Delta s^-1), whose second factor is a permutation braid.
The normal form serves `nf`; equality does not build it.  `braid_eq`
decides B_3 by theta and the exponent sum, and every other B_n by the
faithful integer action of B_n on Dynnikov coordinates in Z^(2n).
"""

from __future__ import annotations

from itertools import chain

from . import _purekernels, perms
from ._value import Value, read_int
from .errors import InternalInconsistency, NotPure, ResourceLimit, StrandMismatch

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .perms import Permutation

Run = tuple[int, int]  # (i, k): sigma_i^k, with i >= 1 and k != 0

# most letters a word is spelled out to (`letters`, `normal_form`) or
# stepped through in runs of several letters (`_dynnikov`, which `braid_eq`
# runs beyond B_3).  At 2^18 letters sigma_1^k takes about 2.3 s in
# normal_form and 0.1 s in _dynnikov, and a random B_4 or B_8 word 3-4 s in
# _dynnikov (pure Python 3.11, 2-core VM); normal_form is quadratic in the
# factors of a general word
MAX_LETTERS = 2**18

# most runs __pow__ spells out for a word of several runs: 2^20 runs take
# about 0.14 s and add 24 MB to the peak resident size (pure Python 3.11,
# 2-core VM); both grow linearly
POW_MAXRUNS = 2**20


# the runs of up to 8 letters of sigma_1 .. sigma_15 and their inverses,
# as _SMALL_RUNS[letter][count], shared by the words built from letters
_SMALL_RUNS = {s * i: tuple((i, s * c) for c in range(9)) for i in range(1, 16) for s in (1, -1)}
_END = object()


def _letter_runs(letters) -> tuple[Run, ...]:
    """The maximal runs of one repeated letter, in one pass."""
    runs = []
    prev, count = 0, 0
    for let in chain(letters, (_END,)):
        if let == prev:
            count += 1
            continue
        if count:
            row = _SMALL_RUNS.get(prev)
            runs.append(row[count] if row and count < 9
                        else (prev, count) if prev > 0 else (-prev, -count))
        prev, count = let, 1
    return tuple(runs)


def _merge_runs(runs) -> tuple[Run, ...]:
    """Runs with the neighbours of one letter merged."""
    out: list[Run] = []
    for run in runs:
        i, k = run
        if out and out[-1][0] == i and (out[-1][1] > 0) == (k > 0):
            out[-1] = (i, out[-1][1] + k)
        else:
            out.append(run)
    return tuple(out)


_TOO_LONG = f"the word has more than MAX_LETTERS = {MAX_LETTERS} letters to step through"


class BraidWord(Value):
    """A word in the Artin generators of B_n, held as its maximal runs
    (i, k) = sigma_i^k: no two neighbouring runs have the same generator
    and sign, so equal words have equal runs."""

    __slots__ = ("strands", "runs")
    strands: int
    runs: tuple[Run, ...]

    def __init__(self, strands: int, letters=()) -> None:
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "runs", _letter_runs(letters))
        self.__post_init__()

    @staticmethod
    def _from_runs(strands: int, runs: tuple[Run, ...]) -> "BraidWord":
        """The word of runs that are already maximal, with no zero exponent."""
        self = object.__new__(BraidWord)
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "runs", runs)
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError("braid group needs at least 2 strands")
        top = self.strands - 1
        for i, k in self.runs:
            if not 0 < i <= top:
                raise ValueError(f"letter {i if k > 0 else -i} out of range for B_{self.strands}")

    def __reduce__(self):
        # copy and pickle would otherwise set the slots through __setattr__
        return BraidWord._from_runs, (self.strands, self.runs)

    @property
    def letters(self) -> tuple[int, ...]:
        """The word spelled out, letter +i for sigma_i and -i for its
        inverse; ResourceLimit above MAX_LETTERS letters."""
        if sum([k if k > 0 else -k for _, k in self.runs]) > MAX_LETTERS:
            raise ResourceLimit(_TOO_LONG)
        out: list[int] = []
        for i, k in self.runs:
            out += (i,) * k if k > 0 else (-i,) * -k
        return tuple(out)

    @staticmethod
    def sigma(n: int, i: int, exp: int = 1) -> "BraidWord":
        return BraidWord._from_runs(n, ((i, exp),) if exp else ())

    @staticmethod
    def parse(text: str, strands: int | None = None) -> "BraidWord":
        """Letters separated by whitespace or commas: i is sigma_i, -i its
        inverse, and i^k, k != 0, the letter i to the power k."""
        runs = []
        for tok in text.replace(",", " ").split():
            let, hat, exp = tok.partition("^")
            let = read_int(let, "a braid letter")
            k = read_int(exp, "a braid exponent") if hat else 1
            if not k:
                raise ValueError(f"a braid exponent must be nonzero, got {tok!r}")
            runs.append((let, k) if let > 0 else (-let, -k))
        if strands is None:
            strands = max([2] + [i + 1 for i, _ in runs])
        return BraidWord._from_runs(strands, _merge_runs(runs))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise StrandMismatch(f"B_{self.strands} vs B_{other.strands}")
        a, b = self.runs, other.runs
        return BraidWord._from_runs(self.strands, a[:-1] + _merge_runs(a[-1:] + b[:1]) + b[1:])

    def inv(self) -> "BraidWord":
        return BraidWord._from_runs(self.strands, tuple((i, -k) for i, k in reversed(self.runs)))

    def __pow__(self, k: int) -> "BraidWord":
        """The word repeated |k| times (its inverse for k < 0).  A run takes
        one multiplication of its exponent, whatever k is; a word of several
        runs is spelled out |k| times, so ResourceLimit is raised above
        POW_MAXRUNS runs."""
        runs = self.runs if k >= 0 else self.inv().runs
        k = abs(k)
        if len(runs) == 1:
            return BraidWord._from_runs(self.strands, ((runs[0][0], runs[0][1] * k),) if k else ())
        if len(runs) * k > POW_MAXRUNS:
            raise ResourceLimit(f"a power of {len(runs) * k} runs exceeds POW_MAXRUNS = {POW_MAXRUNS}")
        return BraidWord._from_runs(self.strands, _merge_runs(runs * k))

    def text(self) -> str:
        return " ".join(f"{i}" if k == 1 else f"{-i}" if k == -1 else f"{i}^{k}"
                        for i, k in self.runs)

    def __repr__(self) -> str:
        return f"BraidWord(B{self.strands}: {self.text() or '1'})"


def delta(n: int) -> BraidWord:
    """The positive half twist Delta_n = (s1)(s2 s1)...(s_{n-1} ... s1)."""
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
    return perms.Permutation(_t_inv(tuple(pos)))


def exponent_sum(b: BraidWord) -> int:
    """Sum of the run exponents: the abelianization B_n -> Z."""
    return sum([k for _, k in b.runs])


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
    when the walk ends with every strand back at its start.
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


# the normal-form inner loop works on raw image tuples (p[i-1] = image of i)
# to stay off the validating constructor


def _t_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, img in enumerate(p, start=1):
        out[img - 1] = i
    return tuple(out)


def _t_left_weighted(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether every sigma_i that is a word-prefix of the permutation braid
    of b (b(i) > b(i+1)) is a word-suffix of that of a (a^-1(i) > a^-1(i+1))."""
    ai = _t_inv(a)
    return all(ai[i] > ai[i + 1] for i in range(len(b) - 1) if b[i] > b[i + 1])


def _t_tau(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by Delta: flip both positions and values."""
    n = len(p)
    return tuple(n + 1 - p[n - 1 - i] for i in range(n))


def _t_runs(letters: tuple[int, ...], n: int) -> list[tuple[bool, tuple[int, ...]]]:
    """Split a word into maximal same-sign runs whose letters, read as a
    positive word, form a permutation braid (no two strands cross twice).
    Each run comes as (positive, permutation of its letters)."""
    runs: list[tuple[bool, tuple[int, ...]]] = []
    strand = list(range(1, n + 1))  # strand[p-1] = strand at position p
    positive = True
    for k, let in enumerate(letters):
        i = abs(let)
        if k and ((let > 0) != positive or strand[i - 1] > strand[i]):
            runs.append((positive, _t_inv(tuple(strand))))
            strand = list(range(1, n + 1))
        positive = let > 0
        strand[i - 1], strand[i] = strand[i], strand[i - 1]
    if letters:
        runs.append((positive, _t_inv(tuple(strand))))
    return runs


def _t_left_weight(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Make the pair (a, b) left-weighted in one step: move the greatest
    common prefix m of a^-1 Delta and b from the front of b onto the end of
    a, giving (a m, m^-1 b); (a, b) itself comes back when m is trivial.

    Prefix order is inclusion of inversion sets, so the non-inversions of m
    are the transitive closure of those of a^-1 Delta and b together.  Row i
    is a bitmask of the j > i (0-based) with m(i) < m(j), filled from each
    factor's positions by decreasing image: a itself for a^-1 Delta (which
    sends j to n + 1 - a^-1(j)), b^-1 reversed for b.  m is trivial unless
    some (i, i+1) is inverted in both.  Otherwise rows are closed from the
    last position down, and each position is inserted into the list of
    later positions sorted by image, where its rank is the number of later
    positions it is inverted with; the list is then m^-1.
    """
    n = len(a)
    rows = [0] * n
    seen = 0
    for i in a:
        rows[i - 1] = seen >> i << i
        seen |= 1 << (i - 1)
    for i in range(n - 1):
        if b[i] > b[i + 1] and not rows[i] >> i & 2:
            break
    else:
        return a, b
    seen = 0
    for i in reversed(_t_inv(b)):
        rows[i - 1] |= seen >> i << i
        seen |= 1 << (i - 1)
    order: list[int] = []
    for i in range(n - 1, -1, -1):
        row = todo = rows[i]
        while todo:
            low = todo & -todo
            later = rows[low.bit_length() - 1]
            row |= later
            todo &= ~(later | low)
        rows[i] = row
        order.insert(n - 1 - i - row.bit_count(), i + 1)
    m = _t_inv(order)
    return tuple([m[x - 1] for x in a]), tuple([b[x - 1] for x in order])


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

    The word is cut into maximal same-sign runs that are permutation
    braids.  A positive run is one factor; a negative run s^-1 is
    Delta^-1 (Delta s^-1), a Delta^-1 marker and a factor.  The markers move
    to the front through the tau automorphism.  The factors are then
    appended one at a time (right insertion); after each append the pairs
    from the right end leftwards are left-weighted in one step each, by
    moving the meet of (A_j^-1 Delta) and A_{j+1} from A_{j+1} onto A_j,
    stopping at the first pair that is already left-weighted or whose left
    factor is Delta (Elrifai-Morton, Algorithms for positive braids, 1994;
    Epstein et al., Word Processing in Groups, ch. 9).  With k factors this
    is O(k^2) meets of O(n^2) bit operations each.  The word is spelled
    out, since sigma_i^k has k factors, so ResourceLimit is raised above
    MAX_LETTERS letters.
    """
    n = b.strands
    w0 = tuple(range(n, 0, -1))
    ident = tuple(range(1, n + 1))

    factors: list[tuple[int, ...]] = []
    dpows: list[int] = []
    for positive, p in _t_runs(b.letters, n):
        if positive:
            factors.append(p)
            dpows.append(0)
        else:
            factors.append(p[::-1])  # permutation of Delta s^-1: w0 followed by p
            dpows.append(-1)

    # migrate the Delta^-1 markers to the front through the tau automorphism
    power = 0
    for k in range(len(factors) - 1, -1, -1):
        if power % 2:
            factors[k] = _t_tau(factors[k])
        power += dpows[k]

    # right insertion; only the appended factor can become trivial, because
    # the pairs left of it were left-weighted before the append
    out: list[tuple[int, ...]] = []
    for f in factors:
        if f == ident:
            continue
        out.append(f)
        k = len(out) - 1
        while k and out[k - 1] != w0:
            a, bb = _t_left_weight(out[k - 1], out[k])
            if a is out[k - 1]:
                break
            out[k - 1] = a
            if bb == ident:
                del out[k]
            else:
                out[k] = bb
            k -= 1
    factors = out

    while factors and factors[0] == w0:
        factors.pop(0)
        power += 1
    for a, bb in zip(factors, factors[1:]):
        if not _t_left_weighted(a, bb):
            raise InternalInconsistency("factors not left-weighted after rewrite")
    return GarsideNormalForm(n, power, tuple(perms.Permutation(f) for f in factors))


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
        return _purekernels.theta_abcd(b1.runs) == _purekernels.theta_abcd(b2.runs)
    start = [0, 1] * b1.strands
    return _dynnikov(b1.runs, start) == _dynnikov(b2.runs, start)
