"""Reference Garside left normal form for parity tests.

This is the slide-to-fixed-point algorithm that `braidoka.braid.normal_form`
used before right insertion: every letter is its own factor, each inverse
letter a Delta^-1 marker plus a near-Delta factor, and adjacent factors
exchange one letter at a time until a whole pass changes nothing.  It is
slow (superquadratic in the word length) and independent of the meet
computation, which is what makes it a useful oracle.

`check_factors` checks the output factors from their images alone
(`_t_left_weighted` for each pair), which `normal_form`'s own final check
does not: that one reads the inverses it held beside the factors.

`_t_closure_step` is a second oracle for one left-weighting step: it
builds the meet m = (a^-1 Delta) ^ b whole, as the transitive closure of
two inversion sets, where `braidoka.braid._t_left_weight` moves one
crossing at a time in place and `_t_slide` one starting generator at a
time on tuples.
"""

from __future__ import annotations

from braidoka.braid import BraidWord, GarsideNormalForm
from braidoka.errors import InternalInconsistency
from braidoka.perms import Permutation


def _t_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, img in enumerate(p, start=1):
        out[img - 1] = i
    return tuple(out)


def _t_starting_set(p: tuple[int, ...]) -> set[int]:
    """Indices i with sigma_i a word-prefix of the permutation braid of p."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def _t_finishing_set(p: tuple[int, ...]) -> set[int]:
    """Indices i with sigma_i a word-suffix of the permutation braid of p."""
    pi = _t_inv(p)
    return {i for i in range(1, len(p)) if pi[i - 1] > pi[i]}


def _t_left_weighted(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether every sigma_i that is a word-prefix of the permutation braid
    of b (b(i) > b(i+1)) is a word-suffix of that of a (a^-1(i) > a^-1(i+1)),
    with a^-1 computed here from a alone."""
    ai = _t_inv(a)
    return all(ai[i] > ai[i + 1] for i in range(len(b) - 1) if b[i] > b[i + 1])


def check_factors(nf: GarsideNormalForm) -> None:
    """Assert that each factor of nf is a permutation of 1..n in ints,
    neither the identity nor Delta, and left-weighted with the next one by
    `_t_left_weighted`."""
    n = nf.strands
    ident, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    for f in nf.factors:
        assert sorted(f.images) == list(ident) and {type(x) for x in f.images} == {int}, nf
        assert f.images != ident and f.images != w0, nf
    for a, b in zip(nf.factors, nf.factors[1:]):
        assert _t_left_weighted(a.images, b.images), nf


def _t_swap_values(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """p followed by sigma_i: swap the values i, i+1 in the one-line form."""
    return tuple(i + 1 if x == i else (i if x == i + 1 else x) for x in p)


def _t_swap_positions(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """sigma_i followed by p: swap the entries at positions i, i+1."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def _t_tau(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by Delta: flip both positions and values."""
    n = len(p)
    return tuple(n + 1 - p[n - 1 - i] for i in range(n))


def _t_slide(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Move prefix letters of b across to a until (a, b) is left-weighted."""
    changed = False
    while True:
        need = _t_starting_set(b) - _t_finishing_set(a)
        if not need:
            return a, b, changed
        i = min(need)
        a = _t_swap_values(a, i)
        b = _t_swap_positions(b, i)
        changed = True


def _t_closure_step(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
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
    m = _t_inv(tuple(order))
    return tuple([m[x - 1] for x in a]), tuple([b[x - 1] for x in order])


def reference_normal_form(b: BraidWord) -> GarsideNormalForm:
    n = b.strands
    w0 = tuple(range(n, 0, -1))
    ident = tuple(range(1, n + 1))

    factors: list[tuple[int, ...]] = []
    dpows: list[int] = []
    for let in b.letters:
        i = abs(let)
        if let > 0:
            factors.append(_t_swap_values(ident, i))
            dpows.append(0)
        else:
            factors.append(_t_swap_values(w0, i))  # permutation of Delta sigma_i^-1
            dpows.append(-1)

    # migrate the Delta^-1 markers to the front through the tau automorphism
    power = 0
    for k in range(len(factors) - 1, -1, -1):
        if power % 2:
            factors[k] = _t_tau(factors[k])
        power += dpows[k]

    factors = [f for f in factors if f != ident]

    # local sliding to the unique left-weighted form
    guard = 4 * (len(factors) + 2) ** 2 + 16
    for _ in range(guard):
        changed = False
        k = 0
        while k < len(factors) - 1:
            a, bb = factors[k], factors[k + 1]
            if a != w0:
                a, bb, moved = _t_slide(a, bb)
                if moved:
                    changed = True
                    factors[k] = a
                    if bb == ident:
                        del factors[k + 1]
                        continue
                    factors[k + 1] = bb
            k += 1
        if not changed:
            break
    else:
        raise InternalInconsistency("normal form rewriting did not stabilize")

    while factors and factors[0] == w0:
        factors.pop(0)
        power += 1
    for a, bb in zip(factors, factors[1:]):
        if not _t_starting_set(bb) <= _t_finishing_set(a):
            raise InternalInconsistency("factors not left-weighted after rewrite")
    return GarsideNormalForm(n, power, tuple(Permutation(f) for f in factors))
