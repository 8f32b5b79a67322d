"""Free-group word algebra.

Words are stored run-length encoded as (generator, signed exponent) blocks,
which keeps reduction linear and matches the block shape of typical inputs
like e2*e1^-2.  A FreeWord is always reduced; reduction happens on
construction.  Cyclic reduction (`_core`) also works on blocks: it splits a
word into a conjugator and a core, both block sequences, without spelling
out a letter.  The core is the word's cyclic run sequence: reduced,
cyclically reduced, and with end blocks on different generators, so its
maximal runs read around the cycle are its blocks.  One identity,
g^a X g^b = g^a (X g^(a+b)) g^-a, brings every word there.  Conjugacy,
primitive roots, peripheral powers and powers read the core as it is, so
their cost follows the number of blocks, never the size of an exponent:
a1^(10^9) costs what a1 costs.
"""

from __future__ import annotations

import re

from ._value import Value, _same_cycle, check_int, read_int
from .errors import IdentityInput, ResourceLimit

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

Block = tuple[int, int]  # (generator index >= 1, exponent != 0)

# Canonical names of the peripheral conjugacy classes of the twice punctured
# plane: loops around -1, around 1, and around infinity.
PERIPHERAL_A1 = "a1"
PERIPHERAL_A2 = "a2"
PERIPHERAL_A1A2_INV = "(a1a2)^-1"

# largest power FreeWord.__pow__ spells out, in core blocks times |n|: 2^20
# blocks (a two-block core to the 2^19) take about 0.18 s and add 88 MB to
# the peak resident size (pure Python 3.11, 2-core VM); both grow linearly
POW_MAXBLOCKS = 2**20

# ASCII digits only: \d would also match other scripts' digits
_TOKEN_RE = re.compile(r"^([aAeExX])([0-9]+)(?:\^(-?[0-9]+))?$")


def _merge_blocks(blocks: Iterable[Block]) -> tuple[Block, ...]:
    """Free reduction of a block sequence (stack-based, linear time)."""
    out: list[Block] = []
    for gen, exp in blocks:
        if exp == 0:
            continue
        if gen <= 0:
            raise ValueError(f"generator index must be positive, got {gen}")
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    # merging can expose a new adjacent pair only at the merge point, which
    # the stack handles; a second pass is unnecessary.
    return tuple(out)


def _inverse(blocks: tuple[Block, ...]) -> tuple[Block, ...]:
    return tuple((g, -e) for g, e in reversed(blocks))


def _core(blocks: tuple[Block, ...]) -> tuple[tuple[Block, ...], tuple[Block, ...]]:
    """Split reduced blocks into (conjugator, core) with
    word = conjugator * core * conjugator^-1, where the conjugator is a
    prefix of the blocks and the core is the word's cyclic run sequence:
    reduced, cyclically reduced, and, when it has two or more blocks, with
    end blocks on different generators.

    While the end blocks g^a, g^b are powers of one generator, a + b = 0
    strips both and the reduction goes on; otherwise
    g^a X g^b = g^a (X g^(a+b)) g^-a gives the core, whatever the signs.
    No letter is spelled out.
    """
    i, j = 0, len(blocks)
    while j - i > 1 and blocks[i][0] == blocks[j - 1][0]:
        g, a = blocks[i]
        b = blocks[j - 1][1]
        if a + b:
            return blocks[:i + 1], blocks[i + 1:j - 1] + ((g, a + b),)
        i, j = i + 1, j - 1
    return blocks[:i], blocks[i:j]


class FreeWord(Value):
    """A reduced word in a free group of unbounded rank."""

    blocks: tuple[Block, ...]

    def __init__(self, blocks: tuple[Block, ...] = ()) -> None:
        blocks = tuple(blocks)
        for gen, exp in blocks:
            check_int(gen, "a free-word generator")
            check_int(exp, "a free-word exponent")
        object.__setattr__(self, "blocks", blocks)
        self.__post_init__()

    @staticmethod
    def _from_blocks(blocks: tuple[Block, ...]) -> "FreeWord":
        """The word of blocks of ints, reduced, with no check of their
        type: the constructor of the module's own operations."""
        self = object.__new__(FreeWord)
        object.__setattr__(self, "blocks", blocks)
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", _merge_blocks(self.blocks))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity() -> "FreeWord":
        return FreeWord()

    @staticmethod
    def gen(index: int, exp: int = 1) -> "FreeWord":
        return FreeWord(((index, exp),))

    @staticmethod
    def parse(text: str) -> "FreeWord":
        """Parse whitespace-separated tokens like ``a1 a2^-2 e3^5``; the
        token ``1``, which `text` writes for the identity, is the identity."""
        blocks: list[Block] = []
        for tok in text.split():
            if tok == "1":
                continue
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ValueError(f"cannot parse free-word token {tok!r}")
            gen = read_int(m.group(2), "a free-word generator")
            exp = read_int(m.group(3), "a free-word exponent") if m.group(3) is not None else 1
            blocks.append((gen, exp))
        return FreeWord(tuple(blocks))

    # -- queries ------------------------------------------------------------

    def is_identity(self) -> bool:
        return not self.blocks

    def text(self, prefix: str = "a") -> str:
        parts = []
        for gen, exp in self.blocks:
            parts.append(f"{prefix}{gen}" if exp == 1 else f"{prefix}{gen}^{exp}")
        return " ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"FreeWord({self.text()})"

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord._from_blocks(self.blocks + other.blocks)

    def inv(self) -> "FreeWord":
        return FreeWord._from_blocks(_inverse(self.blocks))

    def __pow__(self, n: int) -> "FreeWord":
        """conj * core^n * conj^-1; a one-block core takes one multiplication
        of its exponent, whatever n is.  A longer core is spelled out n
        times, so ResourceLimit is raised above POW_MAXBLOCKS blocks."""
        check_int(n, "a free-word power")
        if n == 0:
            return FreeWord()
        conj, core = _core(self.blocks)
        if n < 0:
            core, n = _inverse(core), -n
        if len(core) == 1:
            middle = ((core[0][0], core[0][1] * n),)
        elif len(core) * n > POW_MAXBLOCKS:
            raise ResourceLimit(f"a power of {len(core) * n} blocks exceeds POW_MAXBLOCKS = {POW_MAXBLOCKS}")
        else:
            middle = core * n
        return FreeWord._from_blocks(conj + middle + _inverse(conj))


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    return u * v * u.inv() * v.inv()


def free_conjugate(w1: FreeWord, w2: FreeWord) -> bool:
    """True iff w1 and w2 are conjugate: their cores, the cyclic run
    sequences, are rotations of each other (`_value._same_cycle`)."""
    return _same_cycle(_core(w1.blocks)[1], _core(w2.blocks)[1])


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """Write w = root^power with root not a proper power, power >= 1.

    A one-block core g^e has root g^(sign e).  Otherwise the core, the
    cyclic run sequence, repeats with a least period p (in blocks), and its
    first p blocks, conjugated back, are the root; roots in a free group
    are unique, so the rotation chosen does not matter.
    """
    if w.is_identity():
        raise IdentityInput("the identity has no primitive root")
    conj, core = _core(w.blocks)
    if len(core) == 1:
        g, e = core[0]
        return FreeWord._from_blocks(conj + ((g, 1 if e > 0 else -1),) + _inverse(conj)), abs(e)
    n = len(core)
    for p in range(1, n + 1):
        if n % p == 0 and core[p:] == core[:n - p]:
            return FreeWord._from_blocks(conj + core[:p] + _inverse(conj)), n // p
    raise AssertionError("unreachable: every sequence has period = its length")


class PeripheralPower(Value):
    """w is conjugate to peripheral^power; peripheral None marks w = identity."""

    peripheral: str | None
    power: int

    def __init__(self, peripheral: str | None, power: int) -> None:
        object.__setattr__(self, "peripheral", peripheral)
        object.__setattr__(self, "power", power)


def _peripheral(blocks: tuple[Block, ...]) -> tuple[str | None, int] | None:
    """Match reduced blocks against conjugates of powers of a1, a2,
    (a1 a2)^-1: (name, power), (None, 0) for the identity, or None.

    Works on the core, the cyclic run sequence: a one-block core (1, e) or
    (2, e) is a1^e or a2^e.  A longer core is a power of (a1 a2)^-1 when
    every block is a single letter a1^s or a2^s of one sign s: then the
    generators alternate, and as the end generators of a core differ, the
    alternation closes up.  s = -1 gives positive powers, s = 1 negative
    ones.  Any other core is never peripheral.
    """
    _, core = _core(blocks)
    if not core:
        return None, 0
    if len(core) == 1:
        g, e = core[0]
        if g == 1:
            return PERIPHERAL_A1, e
        if g == 2:
            return PERIPHERAL_A2, e
        return None
    sign = core[0][1]
    if sign not in (1, -1) or not set(core) <= {(1, sign), (2, sign)}:
        return None
    return PERIPHERAL_A1A2_INV, (len(core) // 2) * (1 if sign < 0 else -1)


def is_conjugate_into_peripheral(w: FreeWord) -> PeripheralPower | None:
    """The peripheral class and power w is conjugate to, by `_peripheral`;
    None when w is not conjugate into a peripheral power."""
    hit = _peripheral(w.blocks)
    return None if hit is None else PeripheralPower(*hit)


def peripheral_word(name: str, power: int = 1) -> FreeWord:
    """The standard representative of a peripheral class, as a word."""
    if name == PERIPHERAL_A1:
        base = FreeWord.gen(1)
    elif name == PERIPHERAL_A2:
        base = FreeWord.gen(2)
    elif name == PERIPHERAL_A1A2_INV:
        base = (FreeWord.gen(1) * FreeWord.gen(2)).inv()
    else:
        raise ValueError(f"unknown peripheral {name!r}")
    return base ** power
