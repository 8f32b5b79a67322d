"""Symmetric-group utilities and the constructive abelian-transitive lemmas."""

from __future__ import annotations

from . import words
from ._value import Value
from .errors import (
    InternalInconsistency,
    NotAbelianTransitive,
    NotCommuting,
    NotPrime,
    NotTransitive,
    ResourceLimit,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence


class Permutation(Value):
    """A permutation of {1..n}; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        object.__setattr__(self, "images", images)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """The adjacent transposition (i, i+1) in S_n."""
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
        out = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            out[img - 1] = i
        return Permutation(tuple(out))

    def __pow__(self, k: int) -> "Permutation":
        """Each cycle rotated by k mod its length: O(n) for any k."""
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
    if not gens:
        return n == 1
    reached = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (g(x), g.inv()(x)):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == n


# the first 13 primes; as Miller-Rabin bases they decide primality for
# every n below _MR_BOUND (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Division by the bases, then a strong probable-prime test to each of
    them: deterministic below _MR_BOUND, at a cost that follows the bit
    length of n.  At or above the bound ResourceLimit is raised."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise ResourceLimit(f"primality is decided only below {_MR_BOUND}, got a "
                            f"{n.bit_length()}-bit number")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def abelian_transitive_generator(
    gens: Sequence[Permutation], n: int
) -> tuple[Permutation, list[int]]:
    """Find an n-cycle s0 among the generators with every generator a power of it.

    Constructive content of the abelian-transitive lemma for prime n: the
    generated group is cyclic, generated by whichever generator moves a full
    minimal invariant block of size n.  Returns (s0, exponents) with
    gens[j] = s0 ** exponents[j].
    """
    if not _is_prime(n):
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
    powers = [s0 ** k for k in range(n)]
    exponents = []
    for g in gens:
        exponents.append(next(k for k in range(n) if powers[k] == g))
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
