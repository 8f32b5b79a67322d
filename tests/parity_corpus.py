"""A seeded parity corpus: chunks of about 100 cases whose outputs are
hashed and compared with digests committed beside this file, in
parity_corpus.json.

The corpus is a regression check, not an oracle: a digest says that the
outputs of its chunk did not change, and the independent oracles of the
other tests say whether they are right.  A chunk is named
"procedure/index", and its cases come from a seed fixed by that name, so a
chunk holds the same inputs on every Python version.  Each case gives one
line, its input and output written with ints, tuples and the dicts of
the records' `as_dict` (for the CLI, the printed JSON read back), and the
digest is the sha256 of the lines.
Rewriting a digest is a change to a check: CHANGES.md then names the
chunk, the reason, and one case's old and new line.

    PYTHONPATH=src python tests/parity_corpus.py           # compare
    PYTHONPATH=src python tests/parity_corpus.py --write   # rewrite the JSON
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile

from braidoka import cli
from braidoka._purekernels import SWEEP3_MAXLEN, sweep3_stats
from braidoka.braid import BraidWord, braid_eq, normal_form
from braidoka.errors import BraidokaError
from braidoka.families import thm1_verdict
from braidoka.oka import (
    TARGET_B3,
    TARGET_F2,
    SurfaceHom,
    SurfaceSignature,
    go_surface_decide,
    oka3_decide,
)
from braidoka.three import centralizer_check, classify3, conj3, zero_entropy_commutator_scan
from braidoka.words import (
    FreeWord,
    _core,
    free_conjugate,
    is_conjugate_into_peripheral,
    peripheral_word,
    primitive_root,
)

from braid_helpers import (
    block_word,
    negative_word,
    nf_to_braid_word,
    one_letter_change,
    reduced_word,
    relation_rewrite,
)
from nf_reference import check_factors

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parity_corpus.json")
CASES_PER_CHUNK = 100

NF_STRANDS = (2, 3, 4, 5, 6, 8, 12, 16)
NF_SHAPES = (reduced_word, negative_word, block_word)


def nf_line(b) -> str:
    """The line of one normal_form case.  The normal form must also come
    back from the word it spells (nf_to_braid_word), and its factors must
    pass `check_factors`, which inverts each one afresh."""
    nf = normal_form(b)
    line = f"B{b.strands} {b.letters} -> {nf.power} {[f.images for f in nf.factors]}"
    assert normal_form(nf_to_braid_word(nf)) == nf, f"no round trip: {line}"
    check_factors(nf)
    return line


def normal_form_chunk(index: int) -> list[str]:
    """normal_form of words of 0-120 letters, every strand count of
    NF_STRANDS with every shape of NF_SHAPES (`nf_line`)."""
    rng = random.Random(21_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        n = NF_STRANDS[j % len(NF_STRANDS)]
        lines.append(nf_line(NF_SHAPES[j % len(NF_SHAPES)](rng, n, rng.randint(0, 120))))
    return lines


def delta_markers(b) -> int:
    """The Delta^-1 markers of b's letters: its maximal runs of inverse
    letters that cross no two strands twice, counted in one walk."""
    count, strand = 0, []
    for let in b.letters:
        i = -let
        if i < 0:
            strand = []
            continue
        if not strand or strand[i - 1] > strand[i]:
            count += 1
            strand = list(range(1, b.strands + 1))
        strand[i - 1], strand[i] = strand[i], strand[i - 1]
    return count


def run_word(rng, n, runs):
    """Runs sigma_i^(+-k), 1 <= k <= 64, of alternating sign."""
    sign = rng.choice((1, -1))
    letters: list[int] = []
    for _ in range(runs):
        letters += [sign * rng.randint(1, n - 1)] * rng.randint(1, 64)
        sign = -sign
    return BraidWord(n, tuple(letters))


def normal_form_turn_chunk(index: int) -> list[str]:
    """normal_form of words whose Delta^-1 markers number odd in half the
    cases and even in the other half: alternating-sign runs sigma_i^(+-k)
    with k up to 64 in B_2-B_16, and words of the shapes of NF_SHAPES of
    up to 200 letters in B_12 and B_16 (`nf_line`)."""
    rng = random.Random(21_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        while True:
            if j % 4 < 2:
                n = NF_STRANDS[j // 4 % len(NF_STRANDS)]
                b = run_word(rng, n, rng.randint(1, 6))
            else:
                n = (12, 16)[j // 4 % 2]
                b = NF_SHAPES[j // 8 % len(NF_SHAPES)](rng, n, rng.randint(0, 200))
            if delta_markers(b) % 2 == j % 2:
                break
        lines.append(nf_line(b))
    return lines


EQ_STRANDS = (3, 4, 5, 6)


def braid_eq_chunk(index: int) -> list[str]:
    """braid_eq of pairs in B_3-B_6: an even case pairs a word with a
    braid-relation rewrite of it (equal), an odd case with a rewrite of the
    word one letter away (unequal).  Every third word is alternating-sign
    runs sigma_i^(+-k) with k up to 64, the others freely reduced words of
    up to 40 letters; the verdict must be the one the pair was built for."""
    rng = random.Random(22_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        n = EQ_STRANDS[j % len(EQ_STRANDS)]
        b = run_word(rng, n, rng.randint(1, 6)) if j % 3 == 2 else reduced_word(rng, n, rng.randint(0, 40))
        other = relation_rewrite(rng, b if j % 2 == 0 else one_letter_change(rng, b))
        same = braid_eq(b, other)
        line = f"B{n} {b.runs} {other.runs} -> {same}"
        assert same == (j % 2 == 0), f"wrong verdict: {line}"
        lines.append(line)
    return lines


def free_word(rng, rank, blocks, top):
    """A seeded word of up to `blocks` blocks in a_1 .. a_rank, exponents
    +-1 .. +-top, reduced on construction."""
    return FreeWord(tuple((rng.randint(1, rank), rng.choice((1, -1)) * rng.randint(1, top))
                          for _ in range(rng.randint(0, blocks))))


PERIPHERALS = ("a1", "a2", "(a1a2)^-1")


def free_words_case(rng, j):
    """The j-th word of `free_words_chunk`: in rank 2 or 3, exponents up to
    64 or 10^9, of five kinds in turn: a random word; a conjugate of one;
    a conjugated proper power; a conjugated peripheral power; and
    g^a X g^b with the end blocks on one generator, in all four sign
    combinations, conjugated."""
    rank = 2 if j % 4 < 2 else 3
    top = 64 if j % 10 < 5 else 10**9
    c = free_word(rng, rank, 3, top)
    kind = j % 5
    if kind == 0:
        return free_word(rng, rank, 6, top)
    if kind == 1:
        return c * free_word(rng, rank, 6, top) * c.inv()
    if kind == 2:
        return c * free_word(rng, rank, 3, top) ** rng.randint(2, 4) * c.inv()
    if kind == 3:
        name = PERIPHERALS[j // 5 % 3]
        power = rng.choice((1, -1)) * rng.randint(1, 64 if name == "(a1a2)^-1" else top)
        return c * peripheral_word(name, power) * c.inv()
    g = rng.randint(1, rank)
    a, b = (s * rng.randint(1, top) for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))[j // 5 % 4])
    return c * FreeWord(((g, a),) + free_word(rng, rank, 4, top).blocks + ((g, b),)) * c.inv()


def free_words_chunk(index: int) -> list[str]:
    """Per word of `free_words_case`: w ** k for |k| <= 3, the primitive
    root, the peripheral match, and `free_conjugate` against a conjugate,
    a rotation of its core, its inverse and a random word.  The verdicts
    against the conjugate and the rotation must be True."""
    rng = random.Random(23_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        w = free_words_case(rng, j)
        d = free_word(rng, 3, 3, 64)
        core = _core(w.blocks)[1]
        # one draw whatever the core's length, so later cases do not move
        k = rng.randrange(64) % max(len(core), 1)
        other = free_word(rng, 3, 6, 64)
        root = None if w.is_identity() else primitive_root(w)
        hit = is_conjugate_into_peripheral(w)
        rotated = FreeWord(core[k:] + core[:k])
        conj = [free_conjugate(w, x) for x in (d * w * d.inv(), rotated, w.inv(), other)]
        line = (f"{w.blocks} -> {[(w ** n).blocks for n in range(-3, 4)]} "
                f"{root and (root[0].blocks, root[1])} "
                f"{hit and (hit.peripheral, hit.power, hit.peripheral is None)} {conj}")
        assert conj[0] and conj[1], f"conjugates not found conjugate: {line}"
        lines.append(line)
    return lines


def go_surface_case(rng, j) -> SurfaceHom:
    """The j-th homomorphism of `go_surface_chunk`, in one of eight
    signatures (genus 0 with 3-6 holes, genus 1 with 1-2, genus 2 with
    1-2), of four kinds in turn: every image a power of one conjugated
    peripheral (reducible); a conjugated sphere pattern on three holes,
    one image sometimes squared or inverted (genus 0), or peripheral
    powers and their conjugates (positive genus); random words and
    peripheral powers; and all images powers of one random root."""
    g, m = ((0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 1), (2, 2))[j % 8]
    x = 2 * g + m - 1
    top = 64 if j % 3 else 10**9
    kind = j // 8 % 4
    c = free_word(rng, 2, 4, top)
    if kind == 0:
        root = c * peripheral_word(PERIPHERALS[rng.randrange(3)]) * c.inv()
        images = [root ** rng.randint(-3, 3) for _ in range(x)]
    elif kind == 1 and g == 0:
        t1, t2 = rng.choice((("a1", "a2"), ("a2", "a1")))
        s = rng.choice((1, -1))
        p1, p2 = peripheral_word(t1, s), peripheral_word(t2, s)
        triple = [c * p1 * c.inv(), c * p2 * c.inv(), c * (p1 * p2).inv() * c.inv()]
        rot = rng.randrange(3)
        triple = triple[rot:] + triple[:rot]
        images = [FreeWord.identity()] * x
        # the last hole is the product inverse, so it carries the third word
        for h, w in zip(sorted(rng.sample(range(m), 3)), triple):
            if h < x:
                images[h] = w
        if rng.random() < 0.3:
            h = rng.randrange(x)
            images[h] = images[h] ** rng.choice((-1, 2))
    elif kind == 1:
        images = []
        for _ in range(x):
            d = free_word(rng, 2, 2, 8)
            p = peripheral_word(PERIPHERALS[rng.randrange(2)], rng.randint(-top, top))
            images.append(d * p * d.inv())
    elif kind == 2:
        images = [free_word(rng, 2, 5, top) if rng.random() < 0.5
                  else peripheral_word(PERIPHERALS[rng.randrange(3)], rng.randint(-2, 2))
                  for _ in range(x)]
    else:
        root = free_word(rng, 2, 4, top)
        images = [root ** rng.randint(-2, 2) for _ in range(x)]
    return SurfaceHom(SurfaceSignature(g, m), TARGET_F2, dict(enumerate(images, 1)))


def go_surface_chunk(index: int) -> list[str]:
    """go_surface_decide of `go_surface_case`, written as its `as_dict()`."""
    rng = random.Random(24_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        hom = go_surface_case(rng, j)
        sig = hom.signature
        images = [hom.images[k].blocks for k in sorted(hom.images)]
        lines.append(f"({sig.genus}, {sig.holes}) {images} -> {go_surface_decide(hom).as_dict()}")
    return lines


DELTA3 = BraidWord(3, (1, 2, 1))
THETA_CLASSES = ("central+I", "central-I", "elliptic", "parabolic", "hyperbolic")


def rl_runs_word(rng, pairs):
    """sigma_1^k0 sigma_2^-k1 ..., whose theta image is R^k0 L^k1 ...: a
    hyperbolic word of `pairs` R/L run pairs, exponents 1 to 5."""
    return BraidWord._from_runs(3, tuple((i, s * rng.randint(1, 5))
                                         for _ in range(pairs) for i, s in ((1, 1), (2, -1))))


def class_base(rng, kind):
    """A B_3 word whose theta image has the given class of THETA_CLASSES:
    Delta^(4l) and Delta^(4l+2) for the central ones; (sigma_1 sigma_2)^l,
    3 not dividing l, or Delta^l, l odd, for elliptic; sigma_1^k
    Delta^(2l), k up to 10^4, for parabolic; an R/L word times
    Delta^(2l) for hyperbolic."""
    ell = rng.randint(-2, 2)
    if kind == "central+I":
        return DELTA3 ** (4 * ell)
    if kind == "central-I":
        return DELTA3 ** (4 * ell + 2)
    if kind == "elliptic":
        if rng.random() < 0.5:
            return BraidWord(3, (1, 2)) ** rng.choice((-5, -4, -2, -1, 1, 2, 4, 5))
        return DELTA3 ** (2 * ell + 1)
    if kind == "parabolic":
        k = rng.choice((1, -1)) * rng.choice((rng.randint(1, 12), rng.randint(13, 10**4)))
        return BraidWord.sigma(3, 1, k) * DELTA3 ** (2 * ell)
    return rl_runs_word(rng, rng.randint(1, 4)) * DELTA3 ** (2 * ell)


def conjugator(rng, j):
    """A seeded B_3 word: a reduced word of up to 12 letters, sigma_1^k
    with k up to 10^4, or the two multiplied."""
    u = reduced_word(rng, 3, rng.randint(0, 12))
    s = BraidWord.sigma(3, 1, rng.choice((1, -1)) * rng.randint(1, 10**4))
    return (u, s, u * s, s * u)[j % 4]


def conj3_case(rng, j):
    """The j-th pair of `conj3_chunk` and whether it is conjugate by
    construction (None: either).  A base of each theta class in turn is
    paired, both sides conjugated (`conjugator`), with itself in half the
    cases, and otherwise with a word of the same trace and exponent sum
    that is not conjugate to it, or, for central and elliptic bases in
    every other case, with a random word.  Equal trace and exponent sum
    with another class only exist for parabolic and hyperbolic images:
    there the other word is sigma_1^-12 Delta^4 times sigma_1^k Delta^(2l)
    (shears k - 12 and k), or, for a base of 3 or 4 R/L run pairs, the
    word read backwards, which is conjugate to it only when its cyclic
    word reads the same backwards.
    The central and elliptic bases take Delta^4 times the base, of equal
    image and exponent sum 12 more."""
    kind = THETA_CLASSES[j % 5]
    variant = j // 5 % 4
    b = class_base(rng, kind)
    if variant in (0, 2):
        other, want = b, True
    elif kind == "parabolic":
        other, want = BraidWord.sigma(3, 1, -12) * b * DELTA3 ** 4, False
    elif kind == "hyperbolic":
        b = rl_runs_word(rng, rng.randint(3, 4)) * DELTA3 ** (2 * rng.randint(-2, 2))
        other, want = BraidWord._from_runs(3, b.runs[::-1]), None
    elif variant == 1:
        other, want = DELTA3 ** 4 * b, False
    else:
        other, want = reduced_word(rng, 3, rng.randint(0, 12)), None
    u, v = conjugator(rng, j), conjugator(rng, j + 1)
    return u * b * u.inv(), v * other * v.inv(), want


def conj3_chunk(index: int) -> list[str]:
    """conj3 of `conj3_case`, each pair in both orders: the verdict must
    agree with the construction and be symmetric."""
    rng = random.Random(25_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        b1, b2, want = conj3_case(rng, j)
        got = conj3(b1, b2)
        line = f"{b1.runs} {b2.runs} -> {got}"
        assert got == conj3(b2, b1) and want in (None, got), f"wrong verdict: {line}"
        lines.append(line)
    return lines


def classify3_chunk(index: int) -> list[str]:
    """classify3 of a base of each theta class in turn (`class_base`),
    conjugated by `conjugator`: the class must be the base's.  The line
    keeps the record's integer and text fields: its entropy and module
    are functions of the trace, which the line holds, and a float from the
    platform's libm may differ in its last bit between platforms."""
    rng = random.Random(26_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        b = class_base(rng, THETA_CLASSES[j % 5])
        u = conjugator(rng, j // 5)
        w = u * b * u.inv()
        got = {k: v for k, v in classify3(w).as_dict().items() if not isinstance(v, float)}
        line = f"{w.runs} -> {got}"
        assert classify3(b).as_dict() == classify3(w).as_dict(), f"not a class function: {line}"
        lines.append(line)
    return lines


def centralizer_check_chunk(index: int) -> list[str]:
    """centralizer_check(b, k) with k from +-1 to +-12 or up to +-10^4.
    In even cases b is a base of each theta class in turn (`class_base`),
    conjugated by `conjugator`; in odd cases it is sigma_1^m Delta^(2l)
    conjugated by a power of sigma_1, which commutes with every sigma_1^k,
    so the verdict must be True."""
    rng = random.Random(27_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        if j % 2:
            m = rng.randint(-10**4, 10**4)
            b = BraidWord.sigma(3, 1, m) * DELTA3 ** (2 * rng.randint(-2, 2))
            u = BraidWord.sigma(3, 1, rng.choice((1, -1)) * rng.randint(1, 10**4))
        else:
            b = class_base(rng, THETA_CLASSES[j // 2 % 5])
            u = conjugator(rng, j // 2)
        w = u * b * u.inv()
        k = rng.choice((1, -1)) * rng.choice((rng.randint(1, 12), rng.randint(13, 10**4)))
        got = centralizer_check(w, k)
        line = f"{w.runs} {k} -> {got}"
        assert got or not j % 2, f"a commuting pair not found commuting: {line}"
        lines.append(line)
    return lines


def outcome(f, *args) -> str:
    """repr of f(*args), or the type and message of the error it raises."""
    try:
        return repr(f(*args))
    except (BraidokaError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def thm1_verdict_chunk(index: int) -> list[str]:
    """thm1_verdict(n, modulus, index) for degrees n of five kinds in turn:
    1 to 60; a prime below 60; 10^12 to 10^13; a prime near 2^31, 10^12
    or 2^61; and 10^24 to 10^25 or the prime 2^89 - 1, past 3.3 * 10^24,
    where primality is a ResourceLimit unless a prime below 43 divides n.
    The modulus is 0.5, 0.999, 1.001 or 2 times the bound 2 pi n / log 2,
    or in every seventh case possibly not positive, and the index is a
    multiple of n in even cases and one more in odd cases.  An error is
    written as its type and message."""
    rng = random.Random(28_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        kind = j % 5
        if kind == 0:
            n = rng.randint(1, 60)
        elif kind == 1:
            n = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59))
        elif kind == 2:
            n = rng.randint(10**12, 10**13)
        elif kind == 3:
            n = rng.choice((2**31 - 1, 10**12 + 39, 2**61 - 1))
        else:
            n = rng.choice((rng.randint(10**24, 10**25), 2**89 - 1))
        scale = rng.choice((0.5, 0.999, 1.001, 2.0, 2.0, -1.0, 0.0) if j % 7 == 0
                           else (0.5, 0.999, 1.001, 2.0))
        modulus = scale * 2 * math.pi * n / math.log(2)
        idx = n * rng.randint(-3, 3) + j % 2
        lines.append(f"{n} {modulus!r} {idx} -> {outcome(thm1_verdict, n, modulus, idx)}")
    return lines


def rounded(obj):
    """obj with every float at the 12 significant digits that the CSV
    writer prints (`round12`), through dicts and lists."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    return obj


def oka3_case(rng, j):
    """The j-th pair of `oka3_decide_chunk`, of five kinds in turn:
    powers of sigma_1 sigma_2, Delta to an odd power with Delta^(2l), and
    sigma_1^k Delta^(2l) with sigma_1^k' Delta^(2l'), k up to 10^4, each
    pair conjugated by one `conjugator` (commuting pairs of entropy zero,
    classified); sigma_1^a, |a| <= 2, with (sigma_1 sigma_2)^b or
    sigma_1^b sigma_2, 3 not dividing b (the variants may fail at
    different indices, 4 in one and 5 in the other); and two
    reduced words of up to 8 letters, one of them sometimes times
    sigma_1^k with k up to 10^6."""
    kind = j % 5
    if kind == 0:
        b1, b2 = (BraidWord(3, (1, 2)) ** rng.choice((-5, -4, -2, -1, 1, 2, 4, 5))
                  for _ in range(2))
    elif kind == 1:
        b1, b2 = DELTA3 ** (2 * rng.randint(-2, 2) + 1), DELTA3 ** (2 * rng.randint(-2, 2))
    elif kind == 2:
        b1, b2 = (BraidWord.sigma(3, 1, rng.choice((1, -1)) * rng.randint(1, 10**4))
                  * DELTA3 ** (2 * rng.randint(-2, 2)) for _ in range(2))
    elif kind == 3:
        b1 = BraidWord.sigma(3, 1, rng.choice((-2, -1, 1, 2)))
        b = rng.choice((-5, -4, -2, -1, 1, 2, 4, 5))
        b2 = BraidWord(3, (1, 2)) ** b if rng.random() < 0.5 else BraidWord.sigma(3, 1, b) * BraidWord(3, (2,))
    else:
        b1, b2 = (reduced_word(rng, 3, rng.randint(0, 8)) for _ in range(2))
        if rng.random() < 0.5:
            b1 = b1 * BraidWord.sigma(3, 1, rng.choice((1, -1)) * rng.randint(1, 10**6))
    if kind < 3:
        u = conjugator(rng, j // 5)
        b1, b2 = u * b1 * u.inv(), u * b2 * u.inv()
    if rng.random() < 0.5:
        b1, b2 = b2, b1
    return b1, b2


def oka3_decide_chunk(index: int) -> list[str]:
    """oka3_decide of `oka3_case` in both variants, each verdict written
    as its `as_dict()` with the entropy at 12 significant digits
    (`rounded`).  The commuting pairs of entropy zero must be classified
    in both."""
    rng = random.Random(30_000 + index)
    lines = []
    for j in range(CASES_PER_CHUNK):
        b1, b2 = oka3_case(rng, j)
        hom = SurfaceHom(SurfaceSignature(1, 1), TARGET_B3, {1: b1, 2: b2})
        got = [rounded(oka3_decide(hom, mirrored).as_dict()) for mirrored in (False, True)]
        line = f"{b1.runs} {b2.runs} -> {got[0]} {got[1]}"
        assert j % 5 > 2 or got[0]["verdict"] == got[1]["verdict"] == "classified", \
            f"a commuting pair of entropy zero not classified: {line}"
        lines.append(line)
    return lines


SCAN_CHUNK_MAXLEN = 7


def scan_chunk() -> list[str]:
    """zero_entropy_commutator_scan at maxlen 0 to SCAN_CHUNK_MAXLEN, from
    its `as_dict()` with the entropies at 12 significant digits
    (`rounded`).  Case j holds the header fields of the report at maxlen
    m = j mod 8 and the rows i of that report with i = j // 8 modulo the
    number of cases of m, so the cases of each maxlen hold every row
    once."""
    reports = [rounded(zero_entropy_commutator_scan(m).as_dict())
               for m in range(SCAN_CHUNK_MAXLEN + 1)]
    lines = []
    for j in range(CASES_PER_CHUNK):
        m = j % (SCAN_CHUNK_MAXLEN + 1)
        report = reports[m]
        cases = len(range(m, CASES_PER_CHUNK, SCAN_CHUNK_MAXLEN + 1))
        header = {k: v for k, v in report.items() if k != "pairs"}
        lines.append(f"{header} -> {report['pairs'][j // (SCAN_CHUNK_MAXLEN + 1)::cases]}")
    return lines


def sweep_chunk() -> list[str]:
    """sweep3_stats at every maxlen 0 to SWEEP3_MAXLEN, each computed once:
    case j holds the dict at maxlen j mod (SWEEP3_MAXLEN + 1), so the 15
    dicts repeat, 6 or 7 times each, to fill the chunk."""
    stats = [sweep3_stats(m) for m in range(SWEEP3_MAXLEN + 1)]
    return [f"{j % len(stats)} -> {stats[j % len(stats)]}" for j in range(CASES_PER_CHUNK)]


# the subcommands, in the order `braidoka --help` lists them; case j of
# `cli_chunk` runs the (j mod 15)-th
CLI_SUBCOMMANDS = ("classify", "entropy", "module", "nf", "linking", "eq", "conj",
                   "scan-commutators", "disc-index", "thm1", "penner", "oka3", "go-surface",
                   "eprime", "lattice-branch")


def b3_text(rng, j) -> str:
    """A base of each theta class in turn (`class_base`), conjugated by
    `conjugator`, as braid text."""
    b = class_base(rng, THETA_CLASSES[j % 5])
    u = conjugator(rng, j)
    return (u * b * u.inv()).text()


def cli_case(rng, sub, v):
    """The arguments of the v-th case of subcommand sub in `cli_chunk`, and
    the object of its input file (None: no file).  Braid words go in the
    `--name=value` form; some cases are input errors (a braid that is not
    pure, a family whose discriminant vanishes on the circle, a signature
    out of range)."""
    if sub in ("classify", "entropy", "module"):
        return [f"--braid={b3_text(rng, v)}"], None
    if sub == "nf":
        n = rng.randint(2, 6)
        b = NF_SHAPES[v % 3](rng, n, rng.randint(0, 20))
        return [f"--braid={b.text()}", "--n", str(n)], None
    if sub == "linking":
        n = rng.randint(2, 5)
        u = reduced_word(rng, n, rng.randint(0, 6))
        b = reduced_word(rng, n, rng.randint(1, 6))
        if v % 4 != 3:  # a conjugated product of even powers is pure
            p, q = (BraidWord.sigma(n, rng.randint(1, n - 1), 2 * rng.randint(-3, 3))
                    for _ in range(2))
            b = u * p * q * u.inv()
        return [f"--braid={b.text()}", "--n", str(n)], None
    if sub == "eq":
        n = rng.randint(3, 5)
        b = reduced_word(rng, n, rng.randint(0, 12))
        other = relation_rewrite(rng, b if v % 2 == 0 else one_letter_change(rng, b))
        strands = ["--n", str(n)] if v % 3 != 2 else []
        return [*strands, f"--a={b.text()}", f"--b={other.text()}"], None
    if sub == "conj":
        b1, b2, _ = conj3_case(rng, v)
        return [f"--a={b1.text()}", f"--b={b2.text()}"], None
    if sub == "scan-commutators":
        return ["--maxlen", str(v % 6)], None
    if sub == "disc-index":
        n = rng.randint(2, 4)
        coeffs = {"0": {str(rng.randint(-3, 3)): [-1.0, 0.0]}}
        if v % 2:
            coeffs[str(rng.randint(1, n - 1))] = {str(rng.randint(-2, 2)): [rng.randint(-4, 4) / 8, 0.25]}
        return ["--family", "{file}", "--samples", str(rng.choice((16, 64, 256)))], \
            {"degree": n, "coeffs": coeffs}
    if sub == "thm1":
        n = rng.choice((2, 3, 4, 5, 6, 7, 9, 11, 13))
        modulus = round(rng.choice((0.9, 1.1, 2.0)) * 2 * math.pi * n / math.log(2), 3)
        idx = n * rng.randint(-3, 3) + v % 2
        return ["--n", str(n), "--modulus", repr(modulus), f"--index={idx}"], None
    if sub == "penner":
        surface = ["--genus", str(rng.randint(0, 3)), "--marked", str(rng.randint(0, 6))]
        braid_n = ["--braid-n", str(rng.randint(2, 12))]
        return ([surface, braid_n, surface + braid_n][v % 3]), None
    if sub == "oka3":
        if v % 2 == 0:  # powers of sigma_1 sigma_2 commute and have entropy zero
            e1, e2 = (BraidWord(3, (1, 2)) ** rng.randint(-4, 4) for _ in range(2))
        else:
            e1, e2 = (reduced_word(rng, 3, rng.randint(0, 6)) for _ in range(2))
        variant = [[], ["--mirrored"], ["--both-variants"]][v % 3]
        return ["--hom", "{file}", *variant], {"genus": 1, "holes": 1, "target": "B3",
                                               "images": {"e1": e1.text(), "e2": e2.text()}}
    if sub == "go-surface":
        hom = go_surface_case(rng, rng.randrange(32))
        sig = hom.signature
        return ["--hom", "{file}"], {"genus": sig.genus, "holes": sig.holes, "target": "F2",
                                     "images": {f"e{k}": "" if w.is_identity() else w.text()
                                                for k, w in hom.images.items()}}
    if sub == "eprime":
        listed = ["--list"] if v % 2 == 0 else []
        return ["--genus", str(rng.randint(0, 2)), "--holes", str(rng.randint(1, 4)), *listed], None
    tau = f"--tau={rng.randint(-500, 500) / 1000},{rng.randint(200, 2000) / 1000}"
    alpha = [f"--alpha={rng.randint(-8, 8) / 4},{rng.randint(1, 8) / 4}"] if v % 3 == 1 else []
    path = ([f"--path-end={rng.randint(-500, 500) / 1000},{rng.randint(200, 2000) / 1000}",
             "--path-steps", str(rng.randint(1, 3))] if v % 4 >= 2 else [])
    csv = ["--csv"] if v % 2 else []
    return [*alpha, tau, *path, *csv], None


def round12(text: str) -> float:
    """A JSON number at the 12 significant digits that the CSV writer
    prints, so the last bits of a platform's libm do not show."""
    return float(f"{float(text):.12g}")


def cli_chunk(index: int) -> list[str]:
    """One in-process `cli.main` call per case, over every subcommand in
    turn (`CLI_SUBCOMMANDS`, `cli_case`).  The line holds the arguments,
    with the input file's JSON in place of its temporary path, the exit
    code, and the output: CSV text as printed, and JSON (stdout, or the
    stderr error line on exit 1) parsed with floats at 12 digits and
    written with sorted keys, so the line does not depend on the layout."""
    rng = random.Random(29_000 + index)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        for j in range(CASES_PER_CHUNK):
            args, data = cli_case(rng, CLI_SUBCOMMANDS[j % 15], j // 15)
            argv = [CLI_SUBCOMMANDS[j % 15], *(a.replace("{file}", path) for a in args)]
            if data is not None:
                with open(path, "w") as fh:
                    json.dump(data, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if "--csv" in argv and code != 1:
                text = out.getvalue()
            else:
                text = json.dumps(json.loads(out.getvalue() if code != 1 else err.getvalue(),
                                             parse_float=round12), sort_keys=True)
            shown = [a.replace("{file}", json.dumps(data, sort_keys=True)) for a in args]
            lines.append(f"{[argv[0], *shown]} -> {code} {text}")
    return lines


CHUNKS = {
    "normal_form/0": lambda: normal_form_chunk(0),
    "normal_form/1": lambda: normal_form_turn_chunk(1),
    "braid_eq/0": lambda: braid_eq_chunk(0),
    "free_words/0": lambda: free_words_chunk(0),
    "go_surface_decide/0": lambda: go_surface_chunk(0),
    "conj3/0": lambda: conj3_chunk(0),
    "classify3/0": lambda: classify3_chunk(0),
    "centralizer_check/0": lambda: centralizer_check_chunk(0),
    "thm1_verdict/0": lambda: thm1_verdict_chunk(0),
    "cli/0": lambda: cli_chunk(0),
    "oka3_decide/0": lambda: oka3_decide_chunk(0),
    "zero_entropy_commutator_scan/0": scan_chunk,
    "sweep3_stats/0": sweep_chunk,
}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def committed() -> dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    got = {name: digest(chunk()) for name, chunk in CHUNKS.items()}
    if argv == ["--write"]:
        with open(DIGESTS, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    want = committed()
    for name in sorted(got.keys() | want.keys()):
        print(name, "ok" if got.get(name) == want.get(name) else "CHANGED")
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
