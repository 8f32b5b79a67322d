"""Reference F2 Gromov-Oka decision for parity tests.

These are `braidoka.words.is_conjugate_into_peripheral`,
`braidoka.words.primitive_root` and `braidoka.oka`'s `eprime_generate`,
`_find_conjugator`, `_common_conjugator_to` and `go_surface_decide` as they
were before the F2 layer worked on run-length blocks:

* cyclic reduction peels one letter pair at a time off the spelled-out
  word (`cyclic_reduce`, formerly in `braidoka.words` with its letter
  `CyclicWord`), and cores are compared up to rotation by trying every
  rotation (`rotation_class`);
* the peripheral test and the primitive root read the letter core, the
  root by trying every letter period;
* every homomorphism image is a product of generator-image powers, one
  `FreeWord` multiplication per block (`word_image`, formerly
  `SurfaceHom.word_image`);
* E' is built from `FreeWord` products and powers;
* a sphere pattern is matched by searching the rotations of the letter
  core for the first conjugator, then sweeping the powers of the first
  pattern letter's primitive root for the common one.

They share with the code under test `FreeWord` (construction, `*`, `**`,
`inv`), the signature and result types and the errors.  They
spell out every letter, so keep exponents small.
"""

from __future__ import annotations

import itertools
from typing import Optional

from braidoka.errors import (
    DegenerateSignature,
    IdentityInput,
    InternalInconsistency,
    TheoremContradiction,
    WrongTarget,
)
from braidoka.oka import (
    TAG_COMMUTATOR,
    TAG_GENERATOR,
    TAG_HANDLE_MIX,
    TAG_HOLE_PATTERN,
    TAG_PAIR,
    TAG_TRIPLE,
    TARGET_F2,
    EPrimeSet,
    GOReducible,
    GoSurfaceResult,
    GOSphereHolomorphic,
    NotGO,
    NotGOSphereAntiholomorphic,
    SurfaceHom,
    SurfaceSignature,
)
from braidoka.words import (
    PERIPHERAL_A1,
    PERIPHERAL_A1A2_INV,
    PERIPHERAL_A2,
    FreeWord,
    PeripheralPower,
    commutator,
)


def letters_of(w: FreeWord) -> tuple:
    """w spelled out as (generator, sign) letters."""
    return tuple((g, 1 if e > 0 else -1) for g, e in w.blocks for _ in range(abs(e)))


def cyclic_reduce(w: FreeWord) -> tuple[FreeWord, tuple]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically
    reduced; the core is its tuple of (generator, sign) letters."""
    letters = list(letters_of(w))
    i, j = 0, len(letters)
    while i < j - 1:
        g0, s0 = letters[i]
        g1, s1 = letters[j - 1]
        if g0 == g1 and s0 == -s1:
            i += 1
            j -= 1
        else:
            break
    conjugator = FreeWord(tuple(letters[:i]))
    return conjugator, tuple(letters[i:j])


def rotation_class(letters: tuple) -> tuple:
    """The least rotation of a letter sequence, by comparing every rotation."""
    return min((letters[i:] + letters[:i] for i in range(len(letters))), default=())


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """Write w = root^power with root not a proper power, power >= 1."""
    if w.is_identity():
        raise IdentityInput("the identity has no primitive root")
    conj, letters = cyclic_reduce(w)
    n = len(letters)
    for p in range(1, n + 1):
        if n % p:
            continue
        if all(letters[k] == letters[k % p] for k in range(n)):
            root = conj * FreeWord(tuple(letters[:p])) * conj.inv()
            return root, n // p
    raise AssertionError("unreachable: every word has period = its length")


def is_conjugate_into_peripheral(w: FreeWord) -> Optional[PeripheralPower]:
    """Match w against conjugates of powers of a1, a2, (a1 a2)^-1.

    Works on the cyclically reduced core: single-generator cores are powers
    of a1 or a2; alternating all-negative cores of even length are powers of
    (a1 a2)^-1, alternating all-positive ones are its negative powers.
    Mixed-sign or non-alternating cores are never peripheral.
    """
    _, letters = cyclic_reduce(w)
    if not letters:
        return PeripheralPower(None, 0)
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


def word_image(hom: SurfaceHom, w: FreeWord) -> FreeWord:
    out = FreeWord.identity()
    for gen, exp in w.blocks:
        out = out * hom.images[gen] ** exp
    return out


def hole_product_inverse(sig: SurfaceSignature) -> FreeWord:
    """For genus 0: the virtual generator e_m = (e_1 ... e_{m-1})^-1
    surrounding the last hole."""
    prod = FreeWord.identity()
    for j in range(1, sig.holes):
        prod = prod * FreeWord.gen(j)
    return prod.inv()


def eprime_generate(sig: SurfaceSignature) -> EPrimeSet:
    """The simple-closed-curve test set E' for a genus-g m-hole surface.

    Families, in order: the free generators (handles first, then holes,
    plus the virtual hole generator for genus 0), handle commutators, pair
    products of non-handle pairs, the four handle-mix words per handle and
    other generator, the hole-pattern words through the first handle, and
    for genus zero the pair and triple products of distinct generators.
    Ordered pairs and triples are taken in ascending generator order.
    """
    g, m = sig.genus, sig.holes
    if (g, m) == (0, 1):
        raise DegenerateSignature("(0, 1) has trivial fundamental group")
    x = sig.free_rank
    gens = {j: FreeWord.gen(j) for j in range(1, x + 1)}
    items: list[tuple[FreeWord, str]] = []

    if g > 0:
        for j in range(1, g + 1):
            items.append((gens[2 * j - 1], TAG_GENERATOR))
            items.append((gens[2 * j], TAG_GENERATOR))
            items.append((commutator(gens[2 * j - 1], gens[2 * j]), TAG_COMMUTATOR))
        for ell in range(1, m):
            items.append((gens[2 * g + ell], TAG_GENERATOR))
        handle_pairs = {(2 * j - 1, 2 * j) for j in range(1, g + 1)}
        for i, j in itertools.combinations(range(1, x + 1), 2):
            if (i, j) in handle_pairs:
                continue
            items.append((gens[i] * gens[j], TAG_PAIR))
        for j in range(1, g + 1):
            a, b = gens[2 * j - 1], gens[2 * j]
            for other in range(1, x + 1):
                if other in (2 * j - 1, 2 * j):
                    continue
                e = gens[other]
                items.append((a ** 2 * b * e, TAG_HANDLE_MIX))
                items.append((a ** 3 * b * e, TAG_HANDLE_MIX))
                items.append((a * b ** 2 * e, TAG_HANDLE_MIX))
                items.append((a * b ** 3 * e, TAG_HANDLE_MIX))
        if m > 2:
            e1, e2 = gens[1], gens[2]
            holes = list(range(2 * g + 1, 2 * g + m))
            for i, j in itertools.combinations(holes, 2):
                ep, epp = gens[i], gens[j]
                items.append((ep * e1 * ep * e2 * epp, TAG_HOLE_PATTERN))
    else:
        if m == 2:
            items.append((gens[1], TAG_GENERATOR))
        else:
            em = hole_product_inverse(sig)
            base: list[FreeWord] = [gens[j] for j in range(1, m)] + [em]
            for w in base:
                items.append((w, TAG_GENERATOR))
            for i, j in itertools.combinations(range(m), 2):
                items.append((base[i] * base[j], TAG_PAIR))
            for i, j, k in itertools.combinations(range(m), 3):
                items.append((base[i] * base[j] * base[k], TAG_TRIPLE))

    seen: set = set()
    unique: list[tuple[FreeWord, str]] = []
    for w, tag in items:
        if w.blocks not in seen:
            seen.add(w.blocks)
            unique.append((w, tag))
    out = EPrimeSet(sig, tuple(unique))
    if out.count > out.bound:
        raise InternalInconsistency(
            f"E' for {sig} has {out.count} elements, above the bound {out.bound}"
        )
    return out


def _find_conjugator(u: FreeWord, target: FreeWord) -> Optional[FreeWord]:
    """Some c with c * u * c^-1 = target, or None; target cyclically reduced."""
    lt = letters_of(target)
    if lt and lt[0][0] == lt[-1][0] and lt[0][1] == -lt[-1][1]:
        raise ValueError("target must be cyclically reduced")
    raw = list(letters_of(u))
    i, j = 0, len(raw)
    while i < j - 1 and raw[i][0] == raw[j - 1][0] and raw[i][1] == -raw[j - 1][1]:
        i += 1
        j -= 1
    p = FreeWord(tuple(raw[:i]))
    core = tuple(raw[i:j])
    if len(core) != len(lt):
        return None
    if not core:
        return FreeWord.identity()
    doubled = core + core
    for o in range(len(core)):
        if doubled[o:o + len(lt)] == lt:
            pre = FreeWord(tuple(core[:o]))
            return (p * pre).inv()
    return None


def _common_conjugator_to(
    u1: FreeWord, u2: FreeWord, t1: FreeWord, t2: FreeWord
) -> Optional[FreeWord]:
    """Some c with c u_i c^-1 = t_i for both i, or None.

    Any solution for the first equation differs from a particular one by an
    element of the centralizer of t1, which is the cyclic group on its
    primitive root; the power is bounded by the word lengths, so a finite
    sweep is complete.
    """
    c0 = _find_conjugator(u1, t1)
    if c0 is None:
        return None
    w2 = c0 * u2 * c0.inv()
    rho, _ = primitive_root(t1)
    bound = (len(letters_of(w2)) + len(letters_of(t2))) // max(1, 2 * len(letters_of(rho))) + 2
    for s in range(-bound, bound + 1):
        c = rho ** s * c0
        if c * u2 * c.inv() == t2:
            return c
    return None


# the four sphere boundary patterns: monodromy triples around the three
# relevant holes, up to simultaneous conjugation and cyclic rotation
def _sphere_patterns() -> list[tuple[str, tuple[FreeWord, FreeWord, FreeWord]]]:
    a1, a2 = FreeWord.gen(1), FreeWord.gen(2)
    return [
        ("holomorphic", (a1, a2, (a1 * a2).inv())),
        ("holomorphic", (a2, a1, (a2 * a1).inv())),
        ("antiholomorphic", (a1.inv(), a2.inv(), a2 * a1)),
        ("antiholomorphic", (a2.inv(), a1.inv(), a1 * a2)),
    ]


def _unreachable(reason: str) -> tuple[str, str]:
    """An outcome that lemmas G1-G3 of `braidoka.oka.go_surface_decide`
    rule out after a clean E' screen, as a value that no package record
    equals: a test that compares it with the package's verdict fails and
    shows the reason."""
    return ("unreachable", reason)


def go_surface_decide(hom: SurfaceHom) -> GoSurfaceResult:
    """Decide the Gromov-Oka property of an F2-valued surface monodromy.

    Step 1 requires every E' image to be conjugate into a peripheral power.
    Step 2 looks for a cyclic image: all nontrivial generator images powers
    of one root that is itself conjugate to a peripheral.  Step 3 (genus
    zero only) matches the boundary monodromies against the sphere
    patterns; for positive genus a step-2 failure after a clean step 1
    contradicts the classification and raises TheoremContradiction.
    """
    if hom.target != TARGET_F2:
        raise WrongTarget("go_surface_decide needs an F2-valued homomorphism")
    sig = hom.signature
    g, m = sig.genus, sig.holes

    for e, _tag in eprime_generate(sig).elements:
        if is_conjugate_into_peripheral(word_image(hom, e)) is None:
            return NotGO(e)

    gen_images = [word_image(hom, FreeWord.gen(j)) for j in range(1, sig.free_rank + 1)]
    nontrivial = [w for w in gen_images if not w.is_identity()]
    if not nontrivial:
        return GOReducible(None, FreeWord.identity())
    roots = [primitive_root(w)[0] for w in nontrivial]
    r0 = roots[0]
    if all(r == r0 or r == r0.inv() for r in roots):
        hit = is_conjugate_into_peripheral(r0)
        if hit is not None:
            return GOReducible(hit.peripheral, r0)

    if g > 0:
        raise TheoremContradiction(
            "positive genus with all E' images peripheral must have cyclic image"
        )

    # genus zero, non-cyclic image: sphere analysis of boundary monodromies
    boundary = list(gen_images) + [word_image(hom, hole_product_inverse(sig))]
    live = [(j + 1, w) for j, w in enumerate(boundary) if not w.is_identity()]
    if len(live) != 3:
        return _unreachable(f"{len(live)} nontrivial boundary monodromies, need 3")
    for j, w in live:
        hit = is_conjugate_into_peripheral(w)
        if hit is None or abs(hit.power) != 1:
            return _unreachable(f"boundary monodromy {j} is not a simple peripheral loop")
    indices = tuple(j for j, _ in live)
    us = [w for _, w in live]
    prod = us[0] * us[1] * us[2]
    if not prod.is_identity():
        raise InternalInconsistency("boundary monodromies must multiply to 1")

    for rot in range(3):
        v = us[rot:] + us[:rot]
        idx = indices[rot:] + indices[:rot]
        for orientation, (t1, t2, t3) in _sphere_patterns():
            c = _common_conjugator_to(v[0], v[1], t1, t2)
            if c is None:
                continue
            if c * v[2] * c.inv() != t3:
                raise InternalInconsistency("pattern third element did not align")
            if orientation == "holomorphic":
                return GOSphereHolomorphic(idx)
            return NotGOSphereAntiholomorphic(idx)
    return _unreachable("boundary triple does not align with any sphere pattern")
