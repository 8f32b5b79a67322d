"""Reference 3-braid sweeps for parity tests.

`sweep3_stats` is `braidoka._purekernels.sweep3_stats` as it was before it
counted words per distinct theta state: a depth-first walk of the 4-ary word
tree that visits every one of the (4^(maxlen+1) - 1)/3 words.  It takes time
proportional to the number of words (about 30 s at maxlen 12).  It builds
theta from its own table of generator images and `mat_mul`, which the
kernel does not use, and composes the permutation from its own table, so the
two share no code, which is what makes it a useful oracle.

`sweep3_stats_per_state` is the kernel as it was before it counted orbits of
states: one dict entry per state (theta image, permutation), about 6 * 2^k of
them at length k.  It shares the permutation tables with the kernel but not
the kernel's orbit keys, and it reaches maxlen 14 in a fraction of a
second, where the word walk would take hours.

`sweep3_stats_klein` is the kernel as it was before it took the sign -I into
its orbits: one dict entry per orbit of the Klein four-group alone, about
1.5 * 2^k of them at length k, every level built.  It shares the permutation
tables and `_FLIP` with the kernel but not the kernel's +-I keys or the
classification of the last level from its parents.
"""

from __future__ import annotations

from braidoka._purekernels import _FLIP, _IS_THREE_CYCLE, _PERM_STEP
from braidoka._theta import mat_mul

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


def sweep3_stats_per_state(maxlen: int) -> dict:
    """The same counts, per state: level k maps each state (a, b, c, d, p)
    reached by a word of length k, with theta image [[a, b], [c, d]] and
    permutation _PERMS[p], to the number of such words, and level k + 1
    multiplies each state by the four generators."""
    total = periodic = reducible = pseudo_anosov = three_cycles = violations = 0
    min_pa = 0  # 0 = none seen
    level = {(1, 0, 0, 1, 0): 1}
    for depth in range(maxlen + 1):
        grow = depth < maxlen
        nxt: dict = {}
        get = nxt.get
        for (a, b, c, d, p), n in level.items():
            total += n
            cycle = _IS_THREE_CYCLE[p]
            t = abs(a + d)
            if t > 2:
                pseudo_anosov += n
                if min_pa == 0 or t < min_pa:
                    min_pa = t
            elif t == 2 and (b or c):
                reducible += n
                if cycle:
                    violations += n
            else:
                periodic += n
            if cycle:
                three_cycles += n
            if grow:
                # right multiplication by theta of sigma_1^{+-1}, sigma_2^{+-1}
                p1, p1i, p2, p2i = _PERM_STEP[p]
                k = (a, a + b, c, c + d, p1)
                nxt[k] = get(k, 0) + n
                k = (a, b - a, c, d - c, p1i)
                nxt[k] = get(k, 0) + n
                k = (a - b, b, c - d, d, p2)
                nxt[k] = get(k, 0) + n
                k = (a + b, b, c + d, d, p2i)
                nxt[k] = get(k, 0) + n
        level = nxt
    return {
        "total": total,
        "periodic": periodic,
        "reducible": reducible,
        "pseudo_anosov": pseudo_anosov,
        "three_cycles": three_cycles,
        "violations": violations,
        "min_pa_abs_trace": min_pa,
    }


def sweep3_stats_klein(maxlen: int) -> dict:
    """The same counts, per orbit of the Klein four-group V: level k maps
    the representative (least a, then b > 0; the least of the four tuples
    when a = d) of each V-orbit of the states of length k to the number
    of words of length k that reach the orbit, and level k + 1 adds that
    number to the orbit of each of its four products."""
    total = periodic = reducible = pseudo_anosov = three_cycles = violations = 0
    min_pa = 0  # 0 = none seen
    level = {(1, 0, 0, 1, 0): 1}
    for depth in range(maxlen + 1):
        grow = depth < maxlen
        nxt: dict = {}
        get = nxt.get
        for (a, b, c, d, p), n in level.items():
            total += n
            cycle = _IS_THREE_CYCLE[p]
            t = abs(a + d)
            if t > 2:
                pseudo_anosov += n
                if min_pa == 0 or t < min_pa:
                    min_pa = t
            elif t == 2 and (b or c):
                reducible += n
                if cycle:
                    violations += n
            else:
                periodic += n
            if cycle:
                three_cycles += n
            if grow:
                # right multiplication by theta of sigma_1^{+-1}, sigma_2^{+-1},
                # each product replaced by its orbit's representative
                p1, p1i, p2, p2i = _PERM_STEP[p]
                for a, b, c, d, q in ((a, a + b, c, c + d, p1), (a, b - a, c, d - c, p1i),
                                      (a - b, b, c - d, d, p2), (a + b, b, c + d, d, p2i)):
                    if a < d:
                        k = (a, b, c, d, q) if b > 0 else (a, -b, -c, d, q)
                    elif d < a:
                        k = (d, c, b, a, _FLIP[q]) if c > 0 else (d, -c, -b, a, _FLIP[q])
                    else:
                        f = _FLIP[q]
                        k = min((a, b, c, d, q), (a, -b, -c, d, q), (d, c, b, a, f), (d, -c, -b, a, f))
                    nxt[k] = get(k, 0) + n
        level = nxt
    return {
        "total": total,
        "periodic": periodic,
        "reducible": reducible,
        "pseudo_anosov": pseudo_anosov,
        "three_cycles": three_cycles,
        "violations": violations,
        "min_pa_abs_trace": min_pa,
    }
