"""Reference E0 decision, E0 screen and commutator scan for parity tests.

These are `braidoka.oka.oka3_decide` and
`braidoka.three.zero_entropy_commutator_scan` as they were before both were
computed from theta images alone: the decision builds the braid image of
every E0 element (`_braid_image`, formerly `SurfaceHom.braid_image`) and
tests commutation and the 3-cycle condition on braid words (`braid_eq`,
`permutation`); the scan multiplies out every word pair and rebuilds each
found pair as braid words.  They are slow, and they share with the code
under test only theta of braid words, `log_spectral_radius` and the E0
word list, which is what makes them useful oracles: the scans enumerate
their own words and multiply out each word's theta image letter by
letter (`braid_helpers.theta_letters`), apart from the run kernel.  The
scan's process pool is left out; its single-process path is the one kept
here.

`e0_screen_matrices_reference` is `braidoka._theta.e0_screen_matrices`
as it was before it read the five traces off (tr m1, tr m2, tr m1 m2): each
E0 image is written out as a product of the two matrices and their
inverses.

`zero_entropy_commutator_scan_allpairs` is the scan's later image pass,
which tested every pair of theta images, kept to check the pruning of that
pass where the word-by-word reference is too slow.

Both scans return (words scanned, word pairs): one plain tuple per word
pair, (b1, b2, commutator trace, entropy of b1, entropy of b2, b1 pure,
b2 pure, entropy of b2 b1^-1, entropy of b2 b1^-2), sorted.  The scan under
test reports one row per pair of theta images instead; the tests group
these word pairs by image pair to compare.
"""

from __future__ import annotations

from braidoka import _theta as K
from braidoka.braid import BraidWord, braid_eq, commutator, permutation
from braidoka.errors import ResourceLimit, TheoremContradiction, WrongSignature, WrongTarget
from braidoka.oka import (
    PERIODIC_DELTA,
    PERIODIC_SIGMA12,
    REDUCIBLE_SIGMA1_DELTA2,
    TARGET_B3,
    Oka3Classified,
    Oka3Result,
    Oka3Violation,
    SurfaceHom,
    e0_set,
)
from braidoka.sl2z import theta
from braidoka.three import entropy3, log_spectral_radius
from braidoka.words import FreeWord

from braid_helpers import theta_letters


def _reduced_words(maxlen: int) -> list[tuple[int, ...]]:
    """Every reduced B_3 word of length 1 to maxlen, shortest first."""
    words: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(maxlen):
        frontier = [w + (let,) for w in frontier for let in (1, -1, 2, -2)
                    if not w or w[-1] != -let]
        words.extend(frontier)
    return words


def _braid_image(hom: SurfaceHom, w: FreeWord) -> BraidWord:
    out = BraidWord(3)
    for gen, exp in w.blocks:
        out = out * hom.images[gen] ** exp
    return out


def oka3_decide_reference(hom: SurfaceHom, mirrored: bool = False) -> Oka3Result:
    if (hom.signature.genus, hom.signature.holes) != (1, 1):
        raise WrongSignature("oka3_decide needs signature (1, 1)")
    if hom.target != TARGET_B3:
        raise WrongTarget("oka3_decide needs a B3-valued homomorphism")

    for e in e0_set(mirrored):
        m = theta(_braid_image(hom, e))
        if abs(m.trace) > 2:
            return Oka3Violation(e, m.trace)

    b1, b2 = hom.images[1], hom.images[2]
    if not braid_eq(b1 * b2, b2 * b1):
        raise TheoremContradiction(
            "all E0 entropies vanish but the generator images do not commute"
        )
    if permutation(b1).is_n_cycle() or permutation(b2).is_n_cycle():
        return Oka3Classified(PERIODIC_SIGMA12)
    if theta(b1).trace == 0 or theta(b2).trace == 0:
        return Oka3Classified(PERIODIC_DELTA)
    return Oka3Classified(REDUCIBLE_SIGMA1_DELTA2)


def e0_screen_matrices_reference(m1, m2, mirrored: bool) -> tuple[int, int]:
    """(index, trace) of the first E0 class of e1 -> m1, e2 -> m2 whose
    image, multiplied out, has |trace| > 2, or (0, 0)."""
    x, y = (m1, m2) if mirrored else (m2, m1)
    yi = K.mat_inv(y)
    x_yi = K.mat_mul(x, yi)
    for index, m in enumerate((m1, m2, x_yi, K.mat_mul(x_yi, yi)), start=1):
        t = m[0] + m[3]
        if abs(t) > 2:
            return index, t
    comm = K.mat_mul(K.mat_mul(m1, m2), K.mat_inv(K.mat_mul(m2, m1)))
    t = comm[0] + comm[3]
    return (5, t) if abs(t) > 2 else (0, 0)


def _scan_chunk(words, lo, hi):
    mats = [theta_letters(w) for w in words]
    found = []
    for i in range(lo, hi):
        w1, m1 = words[i], mats[i]
        m1i = K.mat_inv(m1)
        for w2, m2 in zip(words, mats):
            comm = K.mat_mul(K.mat_mul(m1, m2), K.mat_mul(m1i, K.mat_inv(m2)))
            if comm == (1, 0, 0, 1):
                continue  # commuting pair
            if abs(comm[0] + comm[3]) <= 2:
                found.append((w1, w2))
    return found


def zero_entropy_commutator_scan_reference(maxlen: int) -> tuple[int, tuple[tuple, ...]]:
    if maxlen > 10:
        raise ResourceLimit("commutator scan is limited to maxlen <= 10")
    words = _reduced_words(maxlen)
    raw = _scan_chunk(words, 0, len(words))
    raw.sort()

    pairs = []
    for w1, w2 in raw:
        b1, b2 = BraidWord(3, w1), BraidWord(3, w2)
        comm = commutator(b1, b2)
        hb1, hb2 = entropy3(b1), entropy3(b2)
        b1_pure = permutation(b1).is_identity()
        b2_pure = permutation(b2).is_identity()
        h1 = entropy3(b2 * b1.inv())
        h2 = entropy3(b2 * b1.inv() ** 2)
        if hb1 == 0.0 and hb2 == 0.0:
            if b1_pure or b2_pure or (h1 == 0.0 and h2 == 0.0):
                raise TheoremContradiction(
                    f"pair {w1}, {w2} satisfies the corollary hypotheses "
                    "but has a nontrivial commutator"
                )
        pairs.append((w1, w2, theta(comm).trace, hb1, hb2, b1_pure, b2_pure, h1, h2))
    return len(words), tuple(pairs)


def zero_entropy_commutator_scan_allpairs(maxlen: int) -> tuple[int, tuple[tuple, ...]]:
    """`braidoka.three.zero_entropy_commutator_scan` as it was before its
    image pass went per trace class and its report went per image pair:
    every unordered pair of distinct theta images is tested by the Fricke
    identity and a commutation check, and each found image pair is
    expanded into its word pairs.  It checks the pruning of the image
    pairs at maxlens where the word-by-word reference is too slow."""
    words = _reduced_words(maxlen)
    groups: dict[tuple[int, int, int, int], list[tuple[int, ...]]] = {}
    for w in words:
        groups.setdefault(theta_letters(w), []).append(w)
    images = list(groups)

    found = []
    traces = [m[0] + m[3] for m in images]
    for i, m1 in enumerate(images):
        a, b, c, d = m1
        t1 = traces[i]
        for j in range(i + 1, len(images)):
            m2 = images[j]
            t2 = traces[j]
            t12 = a * m2[0] + b * m2[2] + c * m2[1] + d * m2[3]
            t = t1 * t1 + t2 * t2 + t12 * t12 - t1 * t2 * t12 - 2
            if abs(t) <= 2 and K.mat_mul(m1, m2) != K.mat_mul(m2, m1):
                found += [(m1, m2, t), (m2, m1, t)]

    pairs = []
    for m1, m2, t in found:
        m1i = K.mat_inv(m1)
        m21i = K.mat_mul(m2, m1i)
        m21ii = K.mat_mul(m21i, m1i)
        hb1 = log_spectral_radius(m1[0] + m1[3])
        hb2 = log_spectral_radius(m2[0] + m2[3])
        h1 = log_spectral_radius(m21i[0] + m21i[3])
        h2 = log_spectral_radius(m21ii[0] + m21ii[3])
        b1_pure = m1[1] % 2 == 0 and m1[2] % 2 == 0
        b2_pure = m2[1] % 2 == 0 and m2[2] % 2 == 0
        pairs += [
            (w1, w2, t, hb1, hb2, b1_pure, b2_pure, h1, h2)
            for w1 in groups[m1]
            for w2 in groups[m2]
        ]
    pairs.sort()
    return len(words), tuple(pairs)
