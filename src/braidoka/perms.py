"""Symmetric-group utilities and the constructive abelian-transitive lemmas."""

from __future__ import annotations

from . import _prime, words
from ._value import Value, check_int
from .errors import (
    InternalInconsistency,
    NotAbelianTransitive,
    NotCommuting,
    NotPrime,
    NotTransitive,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence


def _inverse(images: Sequence[int]) -> list[int]:
    """The images of the inverse of the permutation with these images."""
    out = [0] * len(images)
    for i, img in enumerate(images, start=1):
        out[img - 1] = i
    return out


class Permutation(Value):
    """A permutation of {1..n}; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        object.__setattr__(self, "images", images)
        self.__post_init__()

    @staticmethod
    def _from_images(images: tuple[int, ...]) -> "Permutation":
        """The permutation whose images are already ints that form one, with
        no check: for callers that built them as a permutation."""
        self = object.__new__(Permutation)
        object.__setattr__(self, "images", images)
        return self

    def __post_init__(self) -> None:
        n = len(self.images)
        for x in self.images:  # 1.0 and True equal 1, so they pass the sort
            check_int(x, "a permutation image")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """The adjacent transposition (i, i+1) in S_n."""
        check_int(n, "n")
        check_int(i, "i")
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range for S_{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (left-to-right composition)."""
        return Permutation(tuple(other.images[x - 1] for x in self.images))

    def inv(self) -> "Permutation":
        return Permutation._from_images(tuple(_inverse(self.images)))

    def __pow__(self, k: int) -> "Permutation":
        """Each cycle rotated by k mod its length: O(n) for any k."""
        check_int(k, "a permutation power")
        images = [0] * self.n
        for cyc in self.cycles(include_fixed=True):
            for i, x in enumerate(cyc):
                images[x - 1] = cyc[(i + k) % len(cyc)]
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def is_n_cycle(self) -> bool:
        cycs = self.cycles()
        return len(cycs) == 1 and len(cycs[0]) == self.n

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_string()}"


def commute(p: Permutation, q: Permutation) -> bool:
    return p.then(q) == q.then(p)


def is_transitive(gens: Sequence[Permutation], n: int) -> bool:
    """Does the group the generators generate move 1 to every point?  A
    permutation has finite order, so g^-1 is a power of g and the forward
    images alone reach the whole orbit."""
    if not gens:
        return n == 1
    reached = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g(x)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == n


def abelian_transitive_generator(
    gens: Sequence[Permutation], n: int
) -> tuple[Permutation, list[int]]:
    """Find an n-cycle s0 among the generators with every generator a power of it.

    Constructive content of the abelian-transitive lemma for prime n: the
    generated group is cyclic, generated by whichever generator moves a full
    minimal invariant block of size n.  Returns (s0, exponents) with
    gens[j] = s0 ** exponents[j].  Each exponent is read off the cycle of
    s0 through 1: a generator g commutes with the n-cycle s0, so it lies in
    its centralizer <s0>, and g = s0^k exactly when g(1) = s0^k(1).
    """
    if not _prime._is_prime(n):
        raise NotPrime(f"{n} is not prime")
    for g in gens:
        if g.n != n:
            raise ValueError(f"permutation on {g.n} points, expected {n}")
    for i, p in enumerate(gens):
        for q in gens[i + 1:]:
            if not commute(p, q):
                raise NotCommuting(f"{p} and {q} do not commute")
    if not is_transitive(gens, n):
        raise NotTransitive("generated group is not transitive")

    # among the n-cycle generators pick the lexicographically smallest,
    # which makes the choice independent of the generator order
    candidates = sorted((g for g in gens if g.is_n_cycle()), key=lambda g: g.images)
    if not candidates:
        raise InternalInconsistency("no generator is an n-cycle, but an abelian transitive "
                                    "group of prime degree is regular and cyclic")
    s0 = candidates[0]
    # the cycle of s0 through 1 is (1, s0(1), s0^2(1), ...)
    step = {x: k for k, x in enumerate(s0.cycles()[0])}
    exponents = [step[g(1)] for g in gens]
    for g, k in zip(gens, exponents):
        if s0 ** k != g:
            raise InternalInconsistency(f"{g} commutes with the n-cycle {s0} but is not a power of it")
    return s0, exponents


def lemma5_generators(
    psi_e1: Permutation, psi_e2: Permutation
) -> tuple[words.FreeWord, words.FreeWord]:
    """Replace free generators so the first maps to a 3-cycle, the second to id.

    Given the images of e1, e2 under a homomorphism F2 -> S3 with abelian
    transitive image, returns new free generators (e1', e2') drawn from
    {e1, e2, e2 e1^-1, e2 e1^-2} and inverses, with [e1', e2'] conjugate to
    [e1, e2].  Tie-break: the smallest q in {0,1,2} with Psi(e2 e1^-q) = id.
    """
    if psi_e1.n != 3 or psi_e2.n != 3:
        raise NotAbelianTransitive("images must lie in S_3")
    if not commute(psi_e1, psi_e2):
        raise NotAbelianTransitive("images do not commute")
    if not is_transitive([psi_e1, psi_e2], 3):
        raise NotAbelianTransitive("image group is not transitive")

    e1, e2 = words.FreeWord.gen(1), words.FreeWord.gen(2)
    if psi_e1.is_n_cycle():
        for q in range(3):
            if psi_e2.then(psi_e1.inv() ** q).is_identity():
                return e1, e2 * e1 ** (-q)
    elif psi_e1.is_identity() and psi_e2.is_n_cycle():
        return e2, e1.inv()
    raise InternalInconsistency("the images generate no A_3, but an abelian transitive "
                                "subgroup of S_3 is regular and cyclic, so it is A_3")
