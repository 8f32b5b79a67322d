"""Test-only braid helpers: exhaustive word enumeration, a word for a
Garside normal form, and the action of strand relabelling on B_3 linking
tuples."""

from typing import Iterable

from braidoka.braid import BraidWord, GarsideNormalForm, delta, permutation
from braidoka.perms import Permutation


def enumerate_words(
    n: int, maxlen: int, *, freely_reduced: bool = True, include_identity: bool = False
) -> Iterable[BraidWord]:
    """All words in B_n of length <= maxlen, lexicographic within a length."""
    alphabet = [i for k in range(1, n) for i in (k, -k)]
    alphabet.sort()
    if include_identity:
        yield BraidWord(n)
    prev: list[tuple[int, ...]] = [()]
    for _ in range(maxlen):
        nxt = []
        for word in prev:
            for let in alphabet:
                if freely_reduced and word and word[-1] == -let:
                    continue
                nxt.append(word + (let,))
        for word in nxt:
            yield BraidWord(n, word)
        prev = nxt


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
