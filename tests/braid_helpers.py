"""Test-only braid helpers: exhaustive word enumeration, seeded random
words of three shapes, the same braid spelled differently and a word one
letter away, a word for a Garside normal form, the action of
strand relabelling on B_3 linking tuples, and letter-by-letter oracles for
the run-based consumers (theta, the strand walk and the Dynnikov action,
one letter at a time)."""

from typing import Iterable

from braidoka.braid import BraidWord, GarsideNormalForm, delta, permutation
from braidoka.perms import Permutation


def enumerate_words(
    n: int, maxlen: int, *, freely_reduced: bool = True, include_identity: bool = False
) -> Iterable[BraidWord]:
    """All words in B_n of length <= maxlen, lexicographic within a length."""
    letters = sorted(alphabet(n))
    if include_identity:
        yield BraidWord(n)
    prev: list[tuple[int, ...]] = [()]
    for _ in range(maxlen):
        nxt = []
        for word in prev:
            for let in letters:
                if freely_reduced and word and word[-1] == -let:
                    continue
                nxt.append(word + (let,))
        for word in nxt:
            yield BraidWord(n, word)
        prev = nxt


def alphabet(n):
    """The letters of B_n: +-1, ..., +-(n - 1)."""
    return [s * i for i in range(1, n) for s in (1, -1)]


def reduced_word(rng, n, length):
    """A seeded freely reduced word of the given length."""
    out = []
    while len(out) < length:
        x = rng.choice(alphabet(n))
        if not out or out[-1] != -x:
            out.append(x)
    return BraidWord(n, tuple(out))


def negative_word(rng, n, length):
    """A seeded word of inverse letters only."""
    return BraidWord(n, tuple(-rng.randint(1, n - 1) for _ in range(length)))


def block_word(rng, n, length, block=10):
    """Blocks of `block` positive letters alternating with blocks of inverse letters."""
    return BraidWord(n, tuple((1 if (i // block) % 2 == 0 else -1) * rng.randint(1, n - 1)
                              for i in range(length)))


def relation_rewrite(rnd, b, moves=20):
    """The same braid spelled differently: each move commutes two far
    letters, applies a braid relation of one sign, or inserts x x^-1."""
    w = list(b.letters)
    for _ in range(moves):
        spots = [
            i for i in range(len(w) - 1)
            if abs(abs(w[i]) - abs(w[i + 1])) >= 2
            or (i + 2 < len(w) and w[i + 2] == w[i] and abs(abs(w[i]) - abs(w[i + 1])) == 1
                and (w[i] > 0) == (w[i + 1] > 0))
        ]
        if not spots or rnd.random() < 0.2:
            x = rnd.choice(alphabet(b.strands))
            i = rnd.randint(0, len(w))
            w[i:i] = [x, -x]
            continue
        i = rnd.choice(spots)
        a, c = w[i], w[i + 1]
        if abs(abs(a) - abs(c)) >= 2:
            w[i], w[i + 1] = c, a
        else:
            w[i:i + 3] = [c, a, c]
    return BraidWord(b.strands, tuple(w))


def one_letter_change(rng, b):
    """b with one letter replaced by a different letter (or, for the empty
    word, one letter appended): never the same braid."""
    w = list(b.letters)
    if not w:
        return BraidWord(b.strands, (rng.choice(alphabet(b.strands)),))
    k = rng.randrange(len(w))
    w[k] = rng.choice([x for x in alphabet(b.strands) if x != w[k]])
    return BraidWord(b.strands, tuple(w))


def permute_linking_tuple3(t: tuple[int, int, int], s: Permutation) -> tuple[int, int, int]:
    """Apply a strand permutation s to an ordered (l_23, l_13, l_12) tuple.

    Component j of the result is the entry for the pair obtained by applying
    s to the complement pair of j: (l_{s(2)s(3)}, l_{s(1)s(3)}, l_{s(1)s(2)}).
    """
    by_pair = {(2, 3): t[0], (1, 3): t[1], (1, 2): t[2]}
    def look(a: int, b: int) -> int:
        return by_pair[(min(a, b), max(a, b))]
    return (look(s(2), s(3)), look(s(1), s(3)), look(s(1), s(2)))


def conjugate_linking_tuple3(t: tuple[int, int, int], w: BraidWord) -> tuple[int, int, int]:
    """The linking tuple of w^-1 b w, given the tuple t of the pure braid b.

    Conjugation relabels the strands by the permutation of w; with the
    start-position labelling used here the tuple transforms under the
    inverse of permutation(w).
    """
    return permute_linking_tuple3(t, permutation(w).inv())


def perm_to_letters(p: Permutation) -> list[int]:
    """A positive word whose permutation image is p (peel word prefixes)."""
    out: list[int] = []
    images = list(p.images)
    while True:
        i = next((i for i in range(1, len(images)) if images[i - 1] > images[i]), None)
        if i is None:
            return out
        out.append(i)
        images[i - 1], images[i] = images[i], images[i - 1]


def nf_to_braid_word(nf: GarsideNormalForm) -> BraidWord:
    """The word Delta^power followed by a positive word of each factor."""
    letters: list[int] = []
    d = delta(nf.strands).letters
    if nf.power >= 0:
        letters.extend(d * nf.power)
    else:
        letters.extend(tuple(-x for x in reversed(d)) * (-nf.power))
    for f in nf.factors:
        letters.extend(perm_to_letters(f))
    return BraidWord(nf.strands, tuple(letters))


# theta(sigma_1), theta(sigma_1^-1), theta(sigma_2), theta(sigma_2^-1)
THETA_OF_LETTER = {1: (1, 1, 0, 1), -1: (1, -1, 0, 1), 2: (1, 0, -1, 1), -2: (1, 0, 1, 1)}


def theta_letters(letters) -> tuple[int, int, int, int]:
    """theta of a B_3 letter tuple, one 2x2 product per letter."""
    a, b, c, d = 1, 0, 0, 1
    for let in letters:
        p, q, r, s = THETA_OF_LETTER[let]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def strand_walk(n: int, letters) -> tuple[tuple[int, ...], dict[tuple[int, int], int]]:
    """(strand at each final position, signed crossings per strand pair),
    one transposition per letter."""
    pos = list(range(1, n + 1))
    counts: dict[tuple[int, int], int] = {}
    for let in letters:
        k = abs(let)
        s, t = pos[k - 1], pos[k]
        pair = (min(s, t), max(s, t))
        counts[pair] = counts.get(pair, 0) + (1 if let > 0 else -1)
        pos[k - 1], pos[k] = t, s
    return tuple(pos), counts


def dynnikov_letters(letters, start: list[int]) -> list[int]:
    """The Dynnikov action one letter at a time, with the maps F+ and F- of
    sigma_i and sigma_i^-1 both written out (Dehornoy-Dynnikov-Rolfsen-
    Wiest, Ordering Braids, ch. XII)."""
    v = list(start)
    for let in letters:
        j = 2 * abs(let) - 2
        x1, y1, x2, y2 = v[j:j + 4]
        y1p, y1m, y2p, y2m = max(y1, 0), min(y1, 0), max(y2, 0), min(y2, 0)
        if let > 0:
            z = x1 - y1m - x2 + y2p
            v[j:j + 4] = (x1 + y1p + max(y2p - z, 0), y2 - max(z, 0),
                          x2 + y2m + min(y1m + z, 0), y1 + max(z, 0))
        else:
            z = x1 + y1m - x2 - y2p
            v[j:j + 4] = (x1 - y1p - max(y2p + z, 0), y2 + min(z, 0),
                          x2 - y2m - min(y1m - z, 0), y1 - min(z, 0))
    return v
