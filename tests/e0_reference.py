"""Reference E0 decision and commutator scan for parity tests.

These are `braidoka.oka.oka3_decide` and
`braidoka.three.zero_entropy_commutator_scan` as they were before both were
computed from theta images alone: the decision builds the braid image of
every E0 element (`_braid_image`, formerly `SurfaceHom.braid_image`) and
tests commutation and the 3-cycle condition on braid words (`braid_eq`,
`permutation`); the scan multiplies out every word pair and rebuilds each
found pair as braid words.  They are slow, and they share with the code
under test only theta, `log_spectral_radius`, the E0 word list and the
word enumeration, which is what makes them useful oracles.  The scan's
process pool is left out; its single-process path is the one kept here.
"""

from __future__ import annotations

from braidoka import _purekernels as K
from braidoka.braid import BraidWord, braid_eq, commutator, permutation
from braidoka.errors import ResourceLimit, TheoremContradiction, WrongSignature
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
from braidoka.three import (
    CommutatorPair,
    CommutatorScanReport,
    _reduced_words3,
    entropy3,
    log_spectral_radius,
)
from braidoka.words import FreeWord


def _braid_image(hom: SurfaceHom, w: FreeWord) -> BraidWord:
    out = BraidWord(3)
    for gen, exp in w.blocks:
        out = out * hom.images[gen] ** exp
    return out


def oka3_decide_reference(hom: SurfaceHom, mirrored: bool = False) -> Oka3Result:
    if (hom.signature.genus, hom.signature.holes) != (1, 1):
        raise WrongSignature("oka3_decide needs signature (1, 1)")
    if hom.target != TARGET_B3:
        raise WrongSignature("oka3_decide needs a B3-valued homomorphism")

    for e in e0_set(mirrored):
        m = theta(_braid_image(hom, e))
        if abs(m.trace) > 2:
            return Oka3Violation(e, m.trace, log_spectral_radius(m.trace))

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


def _scan_chunk(words, lo, hi):
    mats = [K.theta_abcd(w) for w in words]
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


def zero_entropy_commutator_scan_reference(maxlen: int) -> CommutatorScanReport:
    if maxlen > 10:
        raise ResourceLimit("commutator scan is limited to maxlen <= 10")
    words = _reduced_words3(maxlen)
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
        pairs.append(
            CommutatorPair(w1, w2, theta(comm).trace, hb1, hb2, b1_pure, b2_pure, h1, h2)
        )
    return CommutatorScanReport(maxlen, len(words), tuple(pairs))
