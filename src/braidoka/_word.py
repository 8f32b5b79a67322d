"""Braid words: a word in the Artin generators of B_n, held as its maximal
runs sigma_i^k of one letter, and its exponent sum.

Letter +i is the Artin generator sigma_i, letter -i its inverse.  The B_3
decisions (`three`, `oka`, through theta) and the procedures of `braid`
(permutation, linking numbers, the Garside normal form, equality) all read
a word here, so a subcommand that works on theta alone compiles none of
`braid`.
"""

from __future__ import annotations

from itertools import chain

from ._value import Value, check_int, read_int
from .errors import ResourceLimit, StrandMismatch

Run = tuple[int, int]  # (i, k): sigma_i^k, with i >= 1 and k != 0

# most letters a word is spelled out to (`letters`) or stepped through
# (`braid.normal_form`, which closes a factor at each letter of a run
# after its first, and `braid._dynnikov`, which `braid_eq` runs beyond
# B_3, in runs of several letters).  At 2^18 letters sigma_1^k in B_3
# takes about 0.9 s in normal_form (either sign, best of 7 fresh
# processes) and 0.06 s in _dynnikov, and a random B_4 or B_8 word 3-4 s
# in _dynnikov (pure Python 3.11, 2-core VM); normal_form is quadratic in
# the factors of a general word
MAX_LETTERS = 2**18

# most strands of a word, checked by every constructor.  `linking` prints
# n(n-1)/2 pairs: `braidoka linking --braid "1 1" --n 1000` takes 1.3 s at
# 150 MB peak RSS and prints 8.9 MB, and 5.1 s and 567 MB at 2,000 strands.
# `nf --braid "1 2 -1"` grows linearly (0.1 s at 2,000 strands, 0.54 s and
# 46 MB at 10^5), and `eq` builds a list of 2n entries (Python 3.11, 2-core
# VM, one fresh process per call)
MAX_STRANDS = 1000

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
        for let in letters:  # 1.0 and True equal 1, so they would join its runs
            check_int(let, "a braid letter")
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
        check_int(self.strands, "a strand count")
        if self.strands < 2:
            raise ValueError("braid group needs at least 2 strands")
        if self.strands > MAX_STRANDS:
            raise ResourceLimit(f"B_{self.strands} has more than MAX_STRANDS = {MAX_STRANDS} strands")
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
        check_int(i, "a braid generator")
        check_int(exp, "a braid exponent")
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
        check_int(k, "a braid power")
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


def exponent_sum(b: BraidWord) -> int:
    """Sum of the run exponents: the abelianization B_n -> Z."""
    return sum([k for _, k in b.runs])
