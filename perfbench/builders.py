"""Word constructions whose answers are known by construction.

Braid words are tuples of signed generator indices; free words are tuples
of (generator, exponent) blocks.  Builders that draw words take a
random.Random, so a seed fixes the words.
"""

from __future__ import annotations

from oracle import inverse_word

DELTA3 = (1, 2, 1)
SIGMA12 = (1, 2)


def alphabet(n: int) -> list[int]:
    return [s * i for i in range(1, n) for s in (1, -1)]


def random_word(rng, n: int, length: int) -> tuple[int, ...]:
    """A freely reduced word of the given length in B_n."""
    letters = alphabet(n)
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(letters)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def block_word(rng, n: int, length: int, block: int = 10) -> tuple[int, ...]:
    """A word of the given length in B_n made of blocks of `block` random
    positive letters alternating with blocks of random inverse letters.
    normal_form's cost varies less over these than over freely reduced
    random words of the same length (coefficient of variation 0.14 against
    0.19 at 120 letters in B_8), at about the same mean."""
    return tuple((1 if (i // block) % 2 == 0 else -1) * rng.randint(1, n - 1)
                 for i in range(length))


def power(word, k: int) -> tuple[int, ...]:
    return tuple(word) * k if k >= 0 else inverse_word(word) * -k


def conj(u, w) -> tuple[int, ...]:
    return tuple(u) + tuple(w) + inverse_word(u)


def rewrite(rng, letters, n: int, moves: int) -> tuple[int, ...]:
    """The same braid spelled differently: each move applies a braid
    relation (far commutation, the braid relation in either sign) or inserts
    or cancels a pair x x^-1."""
    w = list(letters)
    letters_n = alphabet(n)
    for _ in range(moves):
        if rng.random() < 0.3:
            x = rng.choice(letters_n)
            i = rng.randint(0, len(w))
            w[i:i] = [x, -x]
            continue
        cands = []
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            gap = abs(abs(a) - abs(b))
            if a == -b:
                cands.append((i, "cancel"))
            elif gap >= 2:
                cands.append((i, "commute"))
            elif gap == 1 and i + 2 < len(w) and w[i + 2] == a and (a > 0) == (b > 0):
                cands.append((i, "braid"))
        if not cands:
            continue
        i, kind = rng.choice(cands)
        if kind == "cancel":
            del w[i:i + 2]
        elif kind == "commute":
            w[i], w[i + 1] = w[i + 1], w[i]
        else:
            a, b = w[i], w[i + 1]
            w[i:i + 3] = [b, a, b]
    return tuple(w)


def perturb(rng, letters, n: int) -> tuple[int, ...]:
    """Replace one letter by another generator: x s y = x t y forces s = t,
    so the result is never equal to the input."""
    i = rng.randrange(len(letters))
    choice = rng.choice([x for x in alphabet(n) if x != letters[i]])
    return letters[:i] + (choice,) + letters[i + 1:]


def pure_braid(rng, n: int, factors: int) -> tuple[tuple[int, ...], dict]:
    """A product of Artin generators A_ij^e of the pure braid group.

    A_ij = (s_{j-1} ... s_{i+1}) s_i^2 (s_{j-1} ... s_{i+1})^-1 links
    strands i and j once and no other pair, so the linking numbers of the
    product are the exponent sums per pair.
    """
    letters: list[int] = []
    link: dict[tuple[int, int], int] = {}
    for _ in range(factors):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        e = rng.choice((-2, -1, 1, 2))
        pre = tuple(range(j - 1, i, -1))
        letters += conj(pre, power((i, i), e))
        link[(i, j)] = link.get((i, j), 0) + e
    return tuple(letters), link


# ---------------------------------------------------------------------------
# B_3 elements of each SL(2,Z) class, and conjugacy pairs
# ---------------------------------------------------------------------------


def central_base(rng) -> tuple[int, ...]:
    return power(DELTA3, 2 * rng.randint(-2, 2))


def elliptic_base(rng) -> tuple[int, ...]:
    if rng.random() < 0.5:
        return power(SIGMA12, rng.choice((-5, -4, -2, -1, 1, 2, 4, 5)))
    return power(DELTA3, rng.choice((-3, -1, 1, 3)))


def parabolic_base(rng, m: int | None = None, ell: int | None = None) -> tuple[int, ...]:
    """sigma_1^m Delta^(2 ell): theta is (-1)^ell [[1, m], [0, 1]]."""
    m = rng.choice([x for x in range(-11, 12) if x]) if m is None else m
    ell = rng.randint(-1, 1) if ell is None else ell
    return power((1,), m) + power(DELTA3, 2 * ell)


def rl_word(a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """sigma_1^a sigma_2^-b sigma_1^c sigma_2^-d, whose theta is the positive
    word R^a L^b R^c L^d."""
    return power((1,), a) + power((2,), -b) + power((1,), c) + power((2,), -d)


def hyperbolic_quad(rng) -> tuple[int, int, int, int]:
    """Exponents (a, b, c, d) with a - b + c - d = 0 whose reversal (d, c, b, a)
    is not a rotation of (a, b, c, d).

    R^a L^b R^c L^d and R^d L^c R^b L^a are transposes, so they share the
    trace; the braids share the exponent sum 0; and positive hyperbolic
    classes of SL(2,Z) correspond to cyclic R/L words, so the two are not
    conjugate.
    """
    while True:
        a, b, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        d = a - b + c
        if d < 1 or (a == d and b == c) or (c == d and a == b):
            continue
        return a, b, c, d


CLASSES = ("central", "elliptic", "parabolic", "hyperbolic")


def conj_pair(rng, kind: str, conjugate: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two B_3 words that are conjugate, or not, by construction.

    Non-conjugate central and elliptic pairs differ by Delta^4, which has
    trivial theta and exponent sum 12; parabolic pairs share trace and
    exponent sum but not the shear; hyperbolic pairs are transposes.
    """
    if kind == "central":
        base = central_base(rng)
        other = base if conjugate else base + power(DELTA3, 4)
    elif kind == "elliptic":
        base = elliptic_base(rng)
        other = base if conjugate else base + power(DELTA3, 4)
    elif kind == "parabolic":
        m, ell = rng.choice([x for x in range(-11, 12) if x]), rng.randint(-1, 1)
        base = parabolic_base(rng, m, ell)
        other = base if conjugate else parabolic_base(rng, m - 12, ell + 2)
    else:
        a, b, c, d = hyperbolic_quad(rng)
        tail = power(DELTA3, 2 * rng.randint(-1, 1))
        base = rl_word(a, b, c, d) + tail
        other = base if conjugate else rl_word(d, c, b, a) + tail
    u = random_word(rng, 3, rng.randint(0, 6))
    v = random_word(rng, 3, rng.randint(0, 6))
    return conj(u, base), conj(v, rewrite(rng, other, 3, 3))


# ---------------------------------------------------------------------------
# free words and F_2 monodromies
# ---------------------------------------------------------------------------


def fw_reduce(blocks) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, e in blocks:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return tuple(out)


def fw_inv(w) -> tuple[tuple[int, int], ...]:
    return tuple((g, -e) for g, e in reversed(w))


def fw_mul(*ws) -> tuple[tuple[int, int], ...]:
    return fw_reduce(b for w in ws for b in w)


def fw_pow(w, k: int) -> tuple[tuple[int, int], ...]:
    return fw_reduce((w if k >= 0 else fw_inv(w)) * abs(k))


def fw_conj(c, w) -> tuple[tuple[int, int], ...]:
    return fw_mul(c, w, fw_inv(c))


def fw_text(w) -> str:
    return " ".join(f"a{g}" if e == 1 else f"a{g}^{e}" for g, e in w)


def fw_letters(w) -> int:
    return sum(abs(e) for _, e in w)


def random_free(rng, length: int) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    while fw_letters(out) < length:
        out = list(fw_mul(out, ((rng.randint(1, 2), rng.choice((1, -1))),)))
    return tuple(out)


PERIPHERAL = {"a1": ((1, 1),), "a2": ((2, 1),), "(a1a2)^-1": ((2, -1), (1, -1))}
NOT_PERIPHERAL = (((1, 1), (2, 2)), ((1, 1), (2, 1), (1, -1), (2, -1)),
                  ((1, 2), (2, 2)), ((1, 1), (2, -1)))
SPHERE_PATTERNS = {
    True: (((1, 1),), ((2, 1),), ((2, -1), (1, -1))),       # holomorphic
    False: (((1, -1),), ((2, -1),), ((2, 1), (1, 1))),      # antiholomorphic
}


def f2_hom(rng, kind: str) -> tuple[tuple[int, int], dict, dict]:
    """(signature, images by generator, expected verdict fields) of an F_2
    monodromy whose Gromov-Oka verdict is known by construction."""
    if kind == "reducible":
        sig = rng.choice(((1, 1), (1, 2), (2, 1), (0, 3), (0, 4)))
        rank = 2 * sig[0] + sig[1] - 1
        name = rng.choice(sorted(PERIPHERAL))
        root = fw_conj(random_free(rng, rng.randint(0, 4)), PERIPHERAL[name])
        exps = [rng.randint(-3, 3) for _ in range(rank)]
        exps[rng.randrange(rank)] = rng.choice((-2, -1, 1, 2))
        images = {j + 1: fw_pow(root, e) for j, e in enumerate(exps)}
        return sig, images, {"verdict": "reducible", "goProperty": True, "peripheral": name}
    if kind == "sphere":
        m = rng.randint(3, 5)
        holomorphic = rng.random() < 0.5
        c = random_free(rng, rng.randint(0, 4))
        t = [fw_conj(c, p) for p in SPHERE_PATTERNS[holomorphic]]
        images = {j: () for j in range(1, m)}
        if m >= 4 and rng.random() < 0.5:
            live = sorted(rng.sample(range(1, m), 3))
            for j, w in zip(live, t):
                images[j] = w
        else:
            live = sorted(rng.sample(range(1, m), 2)) + [m]
            images[live[0]], images[live[1]] = t[0], t[1]
        verdict = "sphereHolomorphic" if holomorphic else "sphereAntiholomorphic"
        return (0, m), images, {"verdict": verdict, "goProperty": holomorphic, "triple": live}
    sig, images, _ = f2_hom(rng, rng.choice(("reducible", "sphere")))
    j = rng.choice(sorted(images))
    images[j] = fw_conj(random_free(rng, rng.randint(0, 3)), rng.choice(NOT_PERIPHERAL))
    return sig, images, {"verdict": "notGO", "goProperty": False}
