"""Free-group word algebra.

Words are stored run-length encoded as (generator, signed exponent) blocks,
which keeps reduction linear and matches the block shape of typical inputs
like e2*e1^-2.  A FreeWord is always reduced; reduction happens on
construction.  Conjugacy is decided through cyclically reduced cores, which
are rotation classes of letter sequences.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterable, Iterator, Optional

from .errors import IdentityInput

Block = tuple[int, int]      # (generator index >= 1, exponent != 0)
Letter = tuple[int, int]     # (generator index, +1 or -1)

# Canonical names of the peripheral conjugacy classes of the twice punctured
# plane: loops around -1, around 1, and around infinity.
PERIPHERAL_A1 = "a1"
PERIPHERAL_A2 = "a2"
PERIPHERAL_A1A2_INV = "(a1a2)^-1"
PERIPHERALS = (PERIPHERAL_A1, PERIPHERAL_A2, PERIPHERAL_A1A2_INV)

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


@dataclasses.dataclass(frozen=True)
class FreeWord:
    """A reduced word in a free group of unbounded rank."""

    blocks: tuple[Block, ...] = ()

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
        return FreeWord(tuple((g, -e) for g, e in reversed(self.blocks)))

    def __pow__(self, n: int) -> "FreeWord":
        if n == 0:
            return FreeWord()
        base = self if n > 0 else self.inv()
        return FreeWord(base.blocks * abs(n))


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


@dataclasses.dataclass(frozen=True, eq=False)
class CyclicWord:
    """A cyclically reduced word compared up to rotation.

    The letters keep the rotation they were built with (so callers can
    reconstruct identities literally); equality and hashing go through the
    lexicographically minimal rotation.
    """

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        if letters:
            g0, s0 = letters[0]
            gl, sl = letters[-1]
            if len(letters) > 1 and g0 == gl and s0 == -sl:
                raise ValueError("letter sequence is not cyclically reduced")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_canonical", _min_rotation(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def is_rotation_of(self, other: "CyclicWord") -> bool:
        return self._canonical == other._canonical

    def to_word(self) -> FreeWord:
        return FreeWord.from_letters(self.letters)

    def __repr__(self) -> str:
        return f"CyclicWord({self.to_word().text()})"


def cyclic_reduce(w: FreeWord) -> tuple[FreeWord, CyclicWord]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced."""
    letters = list(w.letters())
    i, j = 0, len(letters)
    while i < j - 1:
        g0, s0 = letters[i]
        g1, s1 = letters[j - 1]
        if g0 == g1 and s0 == -s1:
            i += 1
            j -= 1
        else:
            break
    conjugator = FreeWord.from_letters(letters[:i])
    core = CyclicWord(tuple(letters[i:j]))
    return conjugator, core


def free_conjugate(w1: FreeWord, w2: FreeWord) -> bool:
    """True iff w1 and w2 are conjugate (cores are rotations of each other)."""
    _, c1 = cyclic_reduce(w1)
    _, c2 = cyclic_reduce(w2)
    return c1.is_rotation_of(c2)


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """Write w = root^power with root not a proper power, power >= 1."""
    if w.is_identity():
        raise IdentityInput("the identity has no primitive root")
    conj, core = cyclic_reduce(w)
    letters = core.letters
    n = len(letters)
    for p in range(1, n + 1):
        if n % p:
            continue
        if all(letters[k] == letters[k % p] for k in range(n)):
            root = conj * FreeWord.from_letters(letters[:p]) * conj.inv()
            return root, n // p
    raise AssertionError("unreachable: every word has period = its length")


@dataclasses.dataclass(frozen=True)
class PeripheralPower:
    """w is conjugate to peripheral^power; trivial marks w = identity."""

    peripheral: Optional[str]
    power: int
    trivial: bool = False


def is_conjugate_into_peripheral(w: FreeWord) -> Optional[PeripheralPower]:
    """Match w against conjugates of powers of a1, a2, (a1 a2)^-1.

    Works on the cyclically reduced core: single-generator cores are powers
    of a1 or a2; alternating all-negative cores of even length are powers of
    (a1 a2)^-1, alternating all-positive ones are its negative powers.
    Mixed-sign or non-alternating cores are never peripheral.
    """
    _, core = cyclic_reduce(w)
    letters = core.letters
    if not letters:
        return PeripheralPower(None, 0, trivial=True)
    gens = {g for g, _ in letters}
    if not gens <= {1, 2}:
        return None
    signs = {s for _, s in letters}
    if len(signs) > 1:
        return None
    sign = signs.pop()
    n = len(letters)
    if gens == {1}:
        return PeripheralPower(PERIPHERAL_A1, sign * n)
    if gens == {2}:
        return PeripheralPower(PERIPHERAL_A2, sign * n)
    # both generators present: must alternate strictly
    if n % 2:
        return None
    if any(letters[k][0] == letters[(k + 1) % n][0] for k in range(n)):
        return None
    # all-negative alternating = ((a1 a2)^-1)^(n/2); positive = its inverse
    return PeripheralPower(PERIPHERAL_A1A2_INV, (n // 2) * (1 if sign < 0 else -1))


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
