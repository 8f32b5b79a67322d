"""Reference Garside left normal form for parity tests.

This is the slide-to-fixed-point algorithm that `braidoka.braid.normal_form`
used before right insertion: every letter is its own factor, each inverse
letter a Delta^-1 marker plus a near-Delta factor, and adjacent factors
exchange one letter at a time until a whole pass changes nothing.  It is
slow (superquadratic in the word length) and independent of the meet
computation, which is what makes it a useful oracle.
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
