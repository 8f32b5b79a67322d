"""Free-group word algebra.

Words are stored run-length encoded as (generator, signed exponent) blocks,
which keeps reduction linear and matches the block shape of typical inputs
like e2*e1^-2.  A FreeWord is always reduced; reduction happens on
construction.  Cyclic reduction (`_core`) also works on blocks: it splits a
word into a conjugator and a cyclically reduced core, both block sequences,
without spelling out a letter.  Conjugacy, primitive roots, peripheral
powers and powers read the core, so their cost follows the number of
blocks, never the size of an exponent: a1^(10^9) costs what a1 costs.
"""

from __future__ import annotations

import re

from ._value import Value
from .errors import IdentityInput, ResourceLimit

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

Block = tuple[int, int]      # (generator index >= 1, exponent != 0)
Letter = tuple[int, int]     # (generator index, +1 or -1)

# Canonical names of the peripheral conjugacy classes of the twice punctured
# plane: loops around -1, around 1, and around infinity.
PERIPHERAL_A1 = "a1"
PERIPHERAL_A2 = "a2"
PERIPHERAL_A1A2_INV = "(a1a2)^-1"
PERIPHERALS = (PERIPHERAL_A1, PERIPHERAL_A2, PERIPHERAL_A1A2_INV)

# largest power FreeWord.__pow__ spells out, in core blocks times |n|: 2^20
# blocks (a two-block core to the 2^19) take about 0.18 s and add 88 MB to
# the peak resident size (pure Python 3.11, 2-core VM); both grow linearly
POW_MAXBLOCKS = 2**20

_TOKEN_RE = re.compile(r"^([aAeExX])(\d+)(?:\^(-?\d+))?$")


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
    """Split reduced blocks into (conjugator, core), both reduced, with
    word = conjugator * core * conjugator^-1 and core cyclically reduced.

    Each step cancels the end blocks when they are powers of one generator
    with opposite signs.  Equal and opposite end blocks both go and the
    reduction goes on; otherwise the shorter one is absorbed into the
    longer one and the core is reached.  No letter is spelled out.
    """
    conj: list[Block] = []
    i, j = 0, len(blocks)
    while j - i > 1:
        g, a = blocks[i]
        h, b = blocks[j - 1]
        if g != h or (a > 0) == (b > 0):
            break
        if a + b == 0:
            conj.append((g, a))
            i, j = i + 1, j - 1
        elif abs(a) < abs(b):
            # g^a X g^b = g^a (X g^(a+b)) g^-a
            conj.append((g, a))
            return tuple(conj), blocks[i + 1:j - 1] + ((g, a + b),)
        else:
            # g^a X g^b = g^-b (g^(a+b) X) g^b
            conj.append((g, -b))
            return tuple(conj), ((g, a + b),) + blocks[i + 1:j - 1]
    return tuple(conj), blocks[i:j]


def _cyclic_blocks(core: tuple[Block, ...]) -> tuple[Block, ...]:
    """A core as a cyclic sequence of maximal runs: when its end blocks are
    powers of one generator (then of one sign), the first block f is moved
    onto the last one, which gives f^-1 * core * f."""
    if len(core) > 1 and core[0][0] == core[-1][0]:
        return core[1:-1] + ((core[0][0], core[0][1] + core[-1][1]),)
    return core


class FreeWord(Value):
    """A reduced word in a free group of unbounded rank."""

    blocks: tuple[Block, ...]

    def __init__(self, blocks: tuple[Block, ...] = ()) -> None:
        object.__setattr__(self, "blocks", blocks)
        self.__post_init__()

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
    def from_letters(letters: Iterable[Letter]) -> "FreeWord":
        return FreeWord(tuple((g, s) for g, s in letters))

    @staticmethod
    def parse(text: str) -> "FreeWord":
        """Parse whitespace-separated tokens like ``a1 a2^-2 e3^5``."""
        blocks: list[Block] = []
        for tok in text.split():
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ValueError(f"cannot parse free-word token {tok!r}")
            gen = int(m.group(2))
            exp = int(m.group(3)) if m.group(3) is not None else 1
            blocks.append((gen, exp))
        return FreeWord(tuple(blocks))

    # -- queries ------------------------------------------------------------

    def is_identity(self) -> bool:
        return not self.blocks

    def length(self) -> int:
        """Reduced word length, counting letters."""
        return sum(abs(e) for _, e in self.blocks)

    def letters(self) -> Iterator[Letter]:
        for gen, exp in self.blocks:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield (gen, sign)

    def text(self, prefix: str = "a") -> str:
        parts = []
        for gen, exp in self.blocks:
            parts.append(f"{prefix}{gen}" if exp == 1 else f"{prefix}{gen}^{exp}")
        return " ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"FreeWord({self.text()})"

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.blocks + other.blocks)

    def inv(self) -> "FreeWord":
        return FreeWord(_inverse(self.blocks))

    def __pow__(self, n: int) -> "FreeWord":
        """conj * core^n * conj^-1; a one-block core takes one multiplication
        of its exponent, whatever n is.  A longer core is spelled out n
        times, so ResourceLimit is raised above POW_MAXBLOCKS blocks."""
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
        return FreeWord(conj + middle + _inverse(conj))


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    return u * v * u.inv() * v.inv()


def _min_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The lexicographically least rotation, by Booth's algorithm: a
    failure function over the doubled sequence, linear in its length."""
    doubled = letters + letters
    fail = [-1] * len(doubled)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(doubled)):
        x = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and x != doubled[k + i + 1]:
            if x < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and x != doubled[k]:
            if x < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return doubled[k:k + len(letters)]


def free_conjugate(w1: FreeWord, w2: FreeWord) -> bool:
    """True iff w1 and w2 are conjugate: the cyclic run sequences of their
    cores are rotations of each other."""
    r1 = _min_rotation(_cyclic_blocks(_core(w1.blocks)[1]))
    return r1 == _min_rotation(_cyclic_blocks(_core(w2.blocks)[1]))


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """Write w = root^power with root not a proper power, power >= 1.

    A one-block core g^e has root g^(sign e).  Otherwise the cyclic run
    sequence of the core repeats with a least period p (in blocks), and its
    first p blocks, conjugated back, are the root; roots in a free group
    are unique, so the rotation chosen does not matter.
    """
    if w.is_identity():
        raise IdentityInput("the identity has no primitive root")
    conj, core = _core(w.blocks)
    if len(core) == 1:
        g, e = core[0]
        return FreeWord(conj + ((g, 1 if e > 0 else -1),) + _inverse(conj)), abs(e)
    if core[0][0] == core[-1][0]:
        conj += core[:1]
        core = _cyclic_blocks(core)
    n = len(core)
    for p in range(1, n + 1):
        if n % p == 0 and core[p:] == core[:n - p]:
            return FreeWord(conj + core[:p] + _inverse(conj)), n // p
    raise AssertionError("unreachable: every sequence has period = its length")


class PeripheralPower(Value):
    """w is conjugate to peripheral^power; trivial marks w = identity."""

    peripheral: str | None
    power: int
    trivial: bool

    def __init__(self, peripheral: str | None, power: int, trivial: bool = False) -> None:
        object.__setattr__(self, "peripheral", peripheral)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "trivial", trivial)


def is_conjugate_into_peripheral(w: FreeWord) -> PeripheralPower | None:
    """Match w against conjugates of powers of a1, a2, (a1 a2)^-1.

    Works on the cyclically reduced core: a one-block core (1, e) or (2, e)
    is a1^e or a2^e.  A longer core is a power of (a1 a2)^-1 when every
    block is a single letter a1^s or a2^s of one sign s (then the
    generators alternate) and its end generators differ (so the alternation
    closes up): s = -1 gives positive powers, s = 1 negative ones.  Any
    other core is never peripheral.
    """
    _, core = _core(w.blocks)
    if not core:
        return PeripheralPower(None, 0, trivial=True)
    if len(core) == 1:
        g, e = core[0]
        if g == 1:
            return PeripheralPower(PERIPHERAL_A1, e)
        if g == 2:
            return PeripheralPower(PERIPHERAL_A2, e)
        return None
    sign = core[0][1]
    if sign not in (1, -1) or core[0][0] == core[-1][0]:
        return None
    if not set(core) <= {(1, sign), (2, sign)}:
        return None
    return PeripheralPower(PERIPHERAL_A1A2_INV, (len(core) // 2) * (1 if sign < 0 else -1))


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
