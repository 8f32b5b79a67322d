"""A seeded parity corpus: chunks of about 100 cases whose outputs are
hashed and compared with digests committed beside this file, in
parity_corpus.json.

The corpus is a regression check, not an oracle: a digest says that the
outputs of its chunk did not change, and the independent oracles of the
other tests say whether they are right.  A chunk is named
"procedure/index", and its cases come from a seed fixed by that name, so a
chunk holds the same inputs on every Python version.  Each case gives one
line, its input and output written with ints and tuples only, and the
digest is the sha256 of the lines.  Rewriting a digest is a change to a
check: CHANGES.md then names the chunk, the reason, and one case's old and
new line.

    PYTHONPATH=src python tests/parity_corpus.py           # compare
    PYTHONPATH=src python tests/parity_corpus.py --write   # rewrite the JSON
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from braidoka.braid import BraidWord, braid_eq, normal_form

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


CHUNKS = {
    "normal_form/0": lambda: normal_form_chunk(0),
    "normal_form/1": lambda: normal_form_turn_chunk(1),
    "braid_eq/0": lambda: braid_eq_chunk(0),
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
