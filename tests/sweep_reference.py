"""Reference 3-braid sweep for parity tests.

This is `braidoka._purekernels.sweep3_stats` as it was before it counted
words per distinct theta state: a depth-first walk of the 4-ary word tree
that visits every one of the (4^(maxlen+1) - 1)/3 words.  It takes time
proportional to the number of words (about 30 s at maxlen 12).  It builds
theta from its own table of generator images and `mat_mul`, which the
per-state count does not use, and composes the permutation from its own
table, so the two share no code, which is what makes it a useful oracle.
"""

from __future__ import annotations

from braidoka._purekernels import mat_mul

# theta(sigma_1) and theta(sigma_2) in SL(2,Z), plus inverses, keyed by letter
_THETA = {
    1: (1, 1, 0, 1),
    -1: (1, -1, 0, 1),
    2: (1, 0, -1, 1),
    -2: (1, 0, 1, 1),
}


def sweep3_stats(maxlen: int) -> dict:
    """Classify every raw B_3 word of length <= maxlen by theta trace.

    Walks the 4-ary word tree depth-first, carrying the theta image and the
    permutation image, and aggregates the counts needed by the trichotomy
    and minimum-entropy checks.  Kinds: periodic (elliptic or central
    image), reducible (parabolic image), pseudo-Anosov (hyperbolic image).
    """
    stats = {
        "total": 0,
        "periodic": 0,
        "reducible": 0,
        "pseudo_anosov": 0,
        "three_cycles": 0,
        "violations": 0,  # words with 3-cycle permutation but parabolic image
        "min_pa_abs_trace": 0,  # 0 = none seen
    }
    idmat = (1, 0, 0, 1)
    idperm = (1, 2, 3)
    _PERM = {1: (2, 1, 3), -1: (2, 1, 3), 2: (1, 3, 2), -2: (1, 3, 2)}

    def visit(mat, perm):
        stats["total"] += 1
        a, b, c, d = mat
        t = a + d
        if abs(t) > 2:
            stats["pseudo_anosov"] += 1
            cur = stats["min_pa_abs_trace"]
            if cur == 0 or abs(t) < cur:
                stats["min_pa_abs_trace"] = abs(t)
        elif abs(t) == 2 and not (b == 0 and c == 0):
            stats["reducible"] += 1
            if perm[0] != 1 and perm[1] != 2 and perm[2] != 3:
                stats["violations"] += 1
        else:
            stats["periodic"] += 1
        if perm[0] != 1 and perm[1] != 2 and perm[2] != 3:
            stats["three_cycles"] += 1

    stack = [(idmat, idperm, 0)]
    while stack:
        mat, perm, depth = stack.pop()
        visit(mat, perm)
        if depth == maxlen:
            continue
        for let in (1, -1, 2, -2):
            nm = mat_mul(mat, _THETA[let])
            s = _PERM[let]
            np_ = (s[perm[0] - 1], s[perm[1] - 1], s[perm[2] - 1])
            stack.append((nm, np_, depth + 1))
    return stats
