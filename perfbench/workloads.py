"""The four workloads: seeded input lists, each operation with its check.

A list is fixed by (seed, seconds): its size is `seconds` times a nominal
rate measured on the parent code, so a run takes about `seconds` there and
a faster program simply finishes the same list sooner.  Lists are built in
chunks, each from its own random stream, and costs are stratified (fixed
mixes, fixed ladders for the expensive inputs) so that the total work
barely depends on the seed.  Where the tail percentile falls is part of the
design: among many operations of nearly one cost (queries: the top of the
sigma_1^k ladder; garside: the middle of the long B_8 words; sweeps: the
scans), never on the edge between two groups, where the seed would move it.

Every check compares against oracle.py or a truth known by construction
(builders.py); a check that raises counts as a wrong answer.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random

import metrics
import oracle as O
from builders import (
    CLASSES,
    DELTA3,
    SIGMA12,
    block_word,
    conj,
    conj_pair,
    elliptic_base,
    central_base,
    f2_hom,
    fw_text,
    parabolic_base,
    perturb,
    power,
    pure_braid,
    random_word,
    rewrite,
)

# Nominal rates measured on braidoka 0.1.0 (shared 2-core x86 VM, Python 3.11, pure
# backend), including input generation, checking and the reference readings
# of probe.py, so that a run of `seconds` takes about that long there.
QUERIES_ROUNDS_PER_S = 47     # 100 operations per round
GARSIDE_ROUNDS_PER_S = 9.0    # 30 short-word operations per round
# Long words as (strands, letters, builder): a few random ones of 100 letters
# in B_16, and as many block words of 120 letters in B_8 as put the tail
# percentile in the middle of their group, so that the tail reads a typical
# long word rather than the edge between two groups.
LONG16, LONG16_PER_S = (16, 100, random_word), 0.2
LONG8 = (8, 120, block_word)
SWEEPS_CYCLE_S = 1.8          # seconds per cycle of the job families
CLI_CALLS_PER_S = 2.25        # each call also waits for a bare interpreter start

BIG_K_SHARE = 1 / 200         # conj3 pairs conjugated by sigma_1^k, 1e3 <= k <= 1e4


class Op:
    """One operation: `call` is "module:function" in braidoka, the string
    "cli", or a callable; `check` gets the result (or the exception)."""

    __slots__ = ("label", "call", "args", "check", "key", "words")

    def __init__(self, label, call, args, check, key, words=()):
        self.label = label
        self.call = call
        self.args = args
        self.check = check
        self.key = key
        self.words = words  # (strands, letters); strands 0 marks free-word blocks


class Workload:
    def __init__(self, size, chunks, make, defer_checks=False):
        self.size = size          # operations in the whole list
        self.chunks = chunks      # number of chunks
        self.make = make          # chunk index -> list[Op]
        self.defer_checks = defer_checks


def _rng(seed: int, name: str, chunk: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{chunk}")


def text(letters) -> str:
    return " ".join(map(str, letters))


def _is(expected):
    return lambda r: isinstance(r, bool) and r is expected


# ---------------------------------------------------------------------------
# queries: independent decision queries, in process
# ---------------------------------------------------------------------------


def _classify_expect(w):
    m = O.theta(w)
    t = O.trace(m)
    return O.b3_kind(m), t, O.exp_sum(w), O.entropy_of_trace(t)


def _query_classify(w, BraidWord):
    kind, t, es, h = _classify_expect(w)

    def check(r):
        return (r.kind == kind and r.trace == t and r.exponent_sum == es
                and math.isclose(r.entropy, h, rel_tol=1e-9, abs_tol=1e-12))
    return Op("classify3", "three:classify3", (BraidWord(3, w),), check, ("c", w), ((3, w),))


def _query_entropy(w, BraidWord, module: bool):
    h = _classify_expect(w)[3]
    if module:
        def check(r):
            return math.isinf(r) if h == 0 else math.isclose(r, math.pi / (2 * h), rel_tol=1e-9)
        return Op("conformal_module3", "three:conformal_module3", (BraidWord(3, w),), check,
                  ("m", w), ((3, w),))
    return Op("entropy3", "three:entropy3", (BraidWord(3, w),),
              lambda r: math.isclose(r, h, rel_tol=1e-9, abs_tol=1e-12), ("e", w), ((3, w),))


def _query_conj(w1, w2, expected, BraidWord):
    return Op("conj3", "three:conj3", (BraidWord(3, w1), BraidWord(3, w2)), _is(expected),
              ("j", w1, w2), ((3, w1), (3, w2)))


def _oka3_pair(rng, passing: bool):
    if passing:
        model = rng.randrange(3)
        if model == 0:
            b1, b2 = power(SIGMA12, rng.randint(-5, 5)), power(SIGMA12, rng.randint(-5, 5))
        elif model == 1:
            b1, b2 = power(DELTA3, rng.randint(-3, 3)), power(DELTA3, rng.randint(-3, 3))
        else:
            b1 = parabolic_base(rng, rng.randint(-6, 6), rng.randint(-1, 1))
            b2 = parabolic_base(rng, rng.randint(-6, 6), rng.randint(-1, 1))
        u = random_word(rng, 3, rng.randint(0, 5))
        return conj(u, rewrite(rng, b1, 3, 2)), conj(u, rewrite(rng, b2, 3, 2))
    if rng.random() < 0.3:
        return random_word(rng, 3, rng.randint(1, 12)), random_word(rng, 3, rng.randint(1, 12))
    bases = (elliptic_base, central_base, parabolic_base)
    return tuple(conj(random_word(rng, 3, rng.randint(1, 5)), rng.choice(bases)(rng))
                 for _ in range(2))


def _oka3_case(rng, passing: bool):
    """(b1, b2, expected standard, expected mirrored), never a pair the
    theorem forbids."""
    while True:
        b1, b2 = _oka3_pair(rng, passing)
        std, mir = O.oka3_expected(b1, b2, False), O.oka3_expected(b1, b2, True)
        if "contradiction" not in (std["verdict"], mir["verdict"]):
            return b1, b2, std, mir


def _oka3_matches(d: dict, e: dict) -> bool:
    return all(d.get(k) == v for k, v in e.items())


def _query_oka3(rng, passing, mirrored, L):
    b1, b2, std, mir = _oka3_case(rng, passing)
    hom = L.SurfaceHom(L.SurfaceSignature(1, 1), "B3",
                       {1: L.BraidWord(3, b1), 2: L.BraidWord(3, b2)})
    e = mir if mirrored else std
    return Op("oka3_decide", "oka:oka3_decide", (hom, mirrored),
              lambda r: _oka3_matches(r.as_dict(), e), ("o", b1, b2, mirrored),
              ((3, b1), (3, b2)))


def _query_go(rng, kind, L):
    sig, images, e = f2_hom(rng, kind)
    hom = L.SurfaceHom(L.SurfaceSignature(*sig), "F2",
                       {j: L.FreeWord(w) for j, w in images.items()})
    return Op("go_surface_decide", "oka:go_surface_decide", (hom,),
              lambda r: _oka3_matches(r.as_dict(), e),
              ("g", sig, tuple(sorted(images.items()))), tuple((0, w) for w in images.values()))


def _eprime_ok(sig):
    rank = 2 * sig[0] + sig[1] - 1

    def check(r):
        blocks = [w.blocks for w in r.words()]
        return (r.count <= rank ** 3 and len(set(blocks)) == len(blocks)
                and all(((j, 1),) in blocks for j in range(1, rank + 1)))
    return check


EPRIME_SIGNATURES = ((0, 2), (0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2))


def _thm1_case(rng):
    n = rng.randint(2, 13)
    modulus = 2 * math.pi * n / math.log(2) * rng.uniform(0.5, 1.5)
    index = n * rng.randint(1, 5) + rng.choice((0, 0, 1))
    return n, modulus, index


def _library():
    import braidoka as L
    return L


def _queries_round(rng, L) -> list[Op]:
    ops: list[Op] = []
    BW = L.BraidWord
    for _ in range(12):
        ops.append(_query_classify(random_word(rng, 3, rng.randint(1, 60)), BW))
    for module in (False, True):
        for _ in range(8):
            ops.append(_query_entropy(random_word(rng, 3, rng.randint(1, 60)), BW, module))
    for kind in CLASSES:
        for conjugate in (True, True, True, False, False, False):
            ops.append(_query_conj(*conj_pair(rng, kind, conjugate), conjugate, BW))
    for equal in (True, False) * 5:
        w = random_word(rng, 3, rng.randint(1, 40))
        other = rewrite(rng, w, 3, 4) if equal else perturb(rng, w, 3)
        ops.append(Op("braid_eq", "braid:braid_eq", (BW(3, w), BW(3, other)), _is(equal),
                      ("q", w, other), ((3, w), (3, other))))
    for commutes in (True, False) * 4:
        w = power((1,), rng.randint(-6, 6)) + power(DELTA3, 2 * rng.randint(-1, 1))
        if not commutes:
            w += power((2,), rng.choice((-2, -1, 1, 2)))
        w = rewrite(rng, w, 3, 3)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        ops.append(Op("centralizer_check", "three:centralizer_check", (BW(3, w), k),
                      _is(commutes), ("z", w, k), ((3, w),)))
    for passing in (True, False):
        for mirrored in (False, True) * 4:
            ops.append(_query_oka3(rng, passing, mirrored, L))
    for kind in ("reducible", "reducible", "reducible", "sphere", "sphere", "sphere",
                 "notGO", "notGO"):
        ops.append(_query_go(rng, kind, L))
    for _ in range(4):
        sig = rng.choice(EPRIME_SIGNATURES)
        ops.append(Op("eprime_generate", "oka:eprime_generate", (L.SurfaceSignature(*sig),),
                      _eprime_ok(sig), ("p", sig)))
    for _ in range(2):
        n, modulus, index = _thm1_case(rng)
        e = O.thm1_expected(n, modulus, index)
        ops.append(Op("thm1_verdict", "families:thm1_verdict", (n, modulus, index),
                      lambda r, e=e: r == e, ("t", n, modulus, index)))
    rng.shuffle(ops)
    return ops


def _big_k_op(rng, k, elliptic, BW) -> Op:
    """A conjugate pair whose conjugator is sigma_1^k."""
    base = elliptic_base(rng) if elliptic else conj_pair(rng, "hyperbolic", True)[0]
    w1 = conj(random_word(rng, 3, rng.randint(0, 4)), base)
    return _query_conj(w1, conj((1,) * k, w1), True, BW)


def queries(seed: int, seconds: float) -> Workload:
    rounds = max(1, round(QUERIES_ROUNDS_PER_S * seconds))
    per_chunk = 20
    chunks = -(-rounds // per_chunk)
    n_big = max(1, round(24 * rounds * BIG_K_SHARE))
    # a fixed ladder of k, even in k, so every seed pays the same for them and
    # the tail percentile falls among many of nearly the same cost
    big_k = [round(1000 + 9000 * (i + 0.5) / n_big) for i in range(n_big)]

    def make(c: int) -> list[Op]:
        L = _library()
        rng = _rng(seed, "queries", c)
        ops = []
        for r in range(c * per_chunk, min(rounds, (c + 1) * per_chunk)):
            ops += _queries_round(rng, L)
            ops += [_big_k_op(rng, k, i % 2 == 0, L.BraidWord)
                    for i, k in enumerate(big_k) if i * rounds // n_big == r]
        return ops

    return Workload(rounds * 100 + n_big, chunks, make)


# ---------------------------------------------------------------------------
# garside: B_n normal forms, equality and linking numbers
# ---------------------------------------------------------------------------


def _nf_op(n, w, BW) -> Op:
    def check(r):
        return r.strands == n and not O.garside_problems(
            n, w, r.power, [f.images for f in r.factors])
    return Op("normal_form", "braid:normal_form", (BW(n, w),), check, ("n", n, w), ((n, w),))


def _garside_round(rng, BW, r: int) -> list[Op]:
    """Round r of short words; lengths (5-30 letters) and factor counts step
    through fixed ladders, so that a seed only picks the letters."""
    ops = []
    for n, count in ((3, 2), (4, 4), (8, 4)):
        for j in range(count):
            w = random_word(rng, n, 5 + (j * 26 // count + 7 * r) % 26)
            ops.append(_nf_op(n, w, BW))
            if n >= 4:
                for equal, other in ((True, rewrite(rng, w, n, len(w) // 2 + 2)),
                                     (False, perturb(rng, w, n))):
                    ops.append(Op("braid_eq", "braid:braid_eq", (BW(n, w), BW(n, other)),
                                  _is(equal), ("q", n, w, other), ((n, w), (n, other))))
    for j in range(4):
        n = (4, 8)[j % 2]
        w, link = pure_braid(rng, n, 2 + (j + r) % 5)
        w = rewrite(rng, w, n, 4)
        expect = tuple((i, j, link.get((i, j), 0)) for i in range(1, n + 1)
                       for j in range(i + 1, n + 1))
        ops.append(Op("linking_numbers", "braid:linking_numbers", (BW(n, w),),
                      lambda r, e=expect: tuple(r.values) == e, ("l", n, w), ((n, w),)))
    rng.shuffle(ops)
    return ops


def long8_count(short: int, long16: int) -> int:
    """How many B_8 long words put the tail percentile of a list of `short`
    short words, `long16` B_16 words and themselves at the middle of their
    group (they cost less than every B_16 word and more than every short one)."""
    b = 1
    while True:
        n = short + long16 + b
        p = metrics.tail_percentile(n)
        beyond = n - metrics.rank(p, n) if p is not None else 0
        if (b + 1) / 2 >= beyond + 1 - long16:
            return b
        b += 1


def garside(seed: int, seconds: float) -> Workload:
    rounds = max(1, round(GARSIDE_ROUNDS_PER_S * seconds))
    per_chunk = 10
    chunks = -(-rounds // per_chunk)
    n16 = max(1, round(LONG16_PER_S * seconds))
    longs = [LONG16] * n16 + [LONG8] * long8_count(rounds * 30, n16)
    random.Random(f"{seed}:garside:long").shuffle(longs)

    def make(c: int) -> list[Op]:
        BW = _library().BraidWord
        rng = _rng(seed, "garside", c)
        ops = []
        for r in range(c * per_chunk, min(rounds, (c + 1) * per_chunk)):
            ops += _garside_round(rng, BW, r)
        ops += [_nf_op(n, build(rng, n, length), BW)
                for i, (n, length, build) in enumerate(longs) if i * chunks // len(longs) == c]
        return ops

    return Workload(rounds * 30 + len(longs), chunks, make)


# ---------------------------------------------------------------------------
# sweeps: whole-space enumerations, scans and numerical families
# ---------------------------------------------------------------------------

SWEEP_MAXLEN = 9
SCAN_MAXLEN = 5
TAU_STEPS = 8
# One sweep3_stats, one scan, DISC_JOBS and PATH_JOBS per cycle: 30 jobs, so
# that with 7 to 33 cycles the tail percentile (p95) falls in the middle of
# the scans, whose input is the same in every cycle, and beyond that among
# the sweeps; the cheaper jobs vary with the seed.
DISC_JOBS = 20
PATH_JOBS = 8


@functools.lru_cache(maxsize=None)
def _scan_words() -> tuple:
    """The reduced B_3 words a scan examines, as its implicit inputs."""
    words, frontier = [], [()]
    for _ in range(SCAN_MAXLEN):
        frontier = [w + (x,) for w in frontier for x in (1, -1, 2, -2) if not w or w[-1] != -x]
        words += frontier
    return tuple((3, w) for w in words)


def _pair_ok(b1, b2, t) -> bool:
    """A scan pair must have a nontrivial commutator of entropy zero and trace t."""
    m1, m2 = O.theta(b1), O.theta(b2)
    comm = O.mul(O.mul(m1, m2), O.mul(O.inv(m1), O.inv(m2)))
    return comm != O.IDENT and abs(O.trace(comm)) <= 2 and O.trace(comm) == t


def _scan_ok(r) -> bool:
    return r.words_scanned == O.reduced_word_count(SCAN_MAXLEN) and all(
        _pair_ok(p.b1, p.b2, p.commutator_trace) for p in r.pairs)


def _sweep_ok(r) -> bool:
    total = O.sweep_total(SWEEP_MAXLEN)
    return (r["total"] == total and r["violations"] == 0 and r["min_pa_abs_trace"] == 3
            and r["periodic"] + r["reducible"] + r["pseudo_anosov"] == total)


def lattice_path(alpha: complex, taus: list[complex], zeta: complex):
    """Branch loci along a path of moduli, then the ODE residual at its start."""
    from braidoka import lattice

    loci = [lattice.branch_locus(lattice.LatticeSpec(alpha, t)).e for t in taus]
    return loci, lattice.ode_residual(taus[0], zeta)


def _lattice_ok(alpha, taus):
    def check(r):
        loci, residual = r
        for e, tau in zip(loci, taus):
            ref = [x * alpha ** -2 for x in O.half_periods(tau)]
            if not all(O.close(a, b, O.THETA_TOL) for a, b in zip(e, ref)):
                return False
        return residual < O.ODE_TOL
    return check


def _random_tau(rng) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))


# power families (degree, k) that the discriminant jobs step through in
# order, from a seeded start, so that every seed pays about the same for them
DISC_GRID = tuple((n, k) for n in range(2, 7) for k in range(1, 9))


def _sweeps_cycle(rng, L, first: int) -> list[Op]:
    ops = [Op("sweep3_stats", "_backend:sweep3_stats", (SWEEP_MAXLEN,), _sweep_ok,
              ("s", SWEEP_MAXLEN))]
    ops.append(Op("scan", "three:zero_entropy_commutator_scan", (SCAN_MAXLEN,), _scan_ok,
                  ("z", SCAN_MAXLEN), _scan_words()))
    families = [DISC_GRID[(first + j) % len(DISC_GRID)] for j in range(DISC_JOBS - 1)]
    families.append((3, rng.randint(32, 60)))  # index >= 64 forces sample doubling
    for n, k in families:
        ops.append(Op("discriminant_index", "families:discriminant_index",
                      (L.LaurentFamily.power_family(n, k), 256),
                      lambda r, e=k * (n - 1): r.index == e, ("d", n, k)))
    for _ in range(PATH_JOBS):
        t0, t1 = _random_tau(rng), _random_tau(rng)
        taus = [t0 + (t1 - t0) * s / TAU_STEPS for s in range(TAU_STEPS + 1)]
        alpha = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        zeta = rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * t0
        ops.append(Op("lattice_path", lattice_path, (alpha, taus, zeta),
                      _lattice_ok(alpha, taus), ("b", alpha, t0, t1)))
    rng.shuffle(ops)
    return ops


def sweeps(seed: int, seconds: float) -> Workload:
    cycles = max(1, round(seconds / SWEEPS_CYCLE_S))
    start = random.Random(f"{seed}:sweeps:disc").randrange(len(DISC_GRID))
    return Workload(cycles * (2 + DISC_JOBS + PATH_JOBS), cycles,
                    lambda c: _sweeps_cycle(_rng(seed, "sweeps", c), _library(),
                                            start + c * (DISC_JOBS - 1)),
                    defer_checks=True)


# ---------------------------------------------------------------------------
# cli: one process per call over all 15 subcommands
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("classify", "entropy", "module", "eq", "nf", "linking", "conj",
               "scan-commutators", "disc-index", "thm1", "penner", "oka3", "go-surface",
               "eprime", "lattice-branch")


def _json_check(code: int, pred):
    def check(r):
        got_code, out = r
        return got_code == code and pred(json.loads(out))
    return check


def _cx(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _cli_case(rng, sub: str, workdir: str, idx: int) -> Op:
    words = ()
    if sub in ("classify", "entropy", "module"):
        w = random_word(rng, 3, rng.randint(1, 30))
        kind, t, es, h = _classify_expect(w)
        argv = [sub, f"--braid={text(w)}"]
        words = ((3, w),)
        if sub == "classify":
            check = _json_check(0, lambda d: (d["kind"], d["trace"], d["exponentSum"]) == (kind, t, es))
        elif sub == "entropy":
            check = _json_check(0, lambda d: math.isclose(d["entropy"], h, rel_tol=1e-9, abs_tol=1e-12))
        else:
            check = _json_check(0, lambda d: d["infinite"] if h == 0 else
                                math.isclose(d["module"], math.pi / (2 * h), rel_tol=1e-9))
    elif sub == "eq":
        n = rng.choice((3, 4))
        w = random_word(rng, n, rng.randint(4, 16))
        equal = rng.random() < 0.5
        other = rewrite(rng, w, n, 6) if equal else perturb(rng, w, n)
        argv = ["eq", "--n", str(n), f"--a={text(w)}", f"--b={text(other)}"]
        check = _json_check(0 if equal else 2, lambda d: d["equal"] is equal)
        words = ((n, w), (n, other))
    elif sub == "nf":
        w = random_word(rng, 4, rng.randint(4, 16))
        argv = ["nf", f"--braid={text(w)}", "--n", "4"]
        check = _json_check(0, lambda d: d["exponentSum"] == O.exp_sum(w) and not O.garside_problems(
            4, w, d["power"], [tuple(f) for f in d["factors"]]))
        words = ((4, w),)
    elif sub == "linking":
        w, link = pure_braid(rng, 4, rng.randint(1, 4))
        argv = ["linking", f"--braid={text(w)}", "--n", "4"]
        pairs = {f"{i},{j}": link.get((i, j), 0) for i in range(1, 5) for j in range(i + 1, 5)}
        check = _json_check(0, lambda d: d["pairs"] == pairs)
        words = ((4, w),)
    elif sub == "conj":
        conjugate = rng.random() < 0.5
        w1, w2 = conj_pair(rng, rng.choice(CLASSES), conjugate)
        argv = ["conj", f"--a={text(w1)}", f"--b={text(w2)}"]
        check = _json_check(0 if conjugate else 2, lambda d: d["conjugate"] is conjugate)
        words = ((3, w1), (3, w2))
    elif sub == "scan-commutators":
        argv = ["scan-commutators", "--maxlen", "2"]
        check = _json_check(0, lambda d: d["wordsScanned"] == O.reduced_word_count(2) and all(
            _pair_ok(p["b1"], p["b2"], p["commutatorTrace"]) for p in d["pairs"]))
    elif sub == "disc-index":
        n, k = rng.randint(2, 5), rng.randint(1, 6)
        path = os.path.join(workdir, f"family{idx}.json")
        with open(path, "w") as fh:
            json.dump({"degree": n, "coeffs": {"0": {str(k): [-1.0, 0.0]}}}, fh)
        argv = ["disc-index", "--family", path, "--samples", "64"]
        check = _json_check(0, lambda d: d["index"] == k * (n - 1))
    elif sub == "thm1":
        n, modulus, index = _thm1_case(rng)
        e = O.thm1_expected(n, modulus, index)
        argv = ["thm1", "--n", str(n), "--modulus", repr(modulus), "--index", str(index)]
        check = _json_check(0 if e == "reducible" else 2, lambda d: d["verdict"] == e)
    elif sub == "penner":
        g, m = rng.choice(((0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 3), (3, 1)))
        n = rng.randint(3, 12)
        argv = ["penner", "--genus", str(g), "--marked", str(m), "--braid-n", str(n)]
        ref = (O.penner(g, m), O.entropy_lower(n), O.module_upper(n))
        check = _json_check(0, lambda d: all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(
            (d["penner"], d["entropyLower"], d["moduleUpper"]), ref)))
    elif sub == "oka3":
        b1, b2, std, mir = _oka3_case(rng, rng.random() < 0.5)
        path = os.path.join(workdir, f"hom{idx}.json")
        with open(path, "w") as fh:
            json.dump({"genus": 1, "holes": 1, "target": "B3",
                       "images": {"e1": text(b1), "e2": text(b2)}}, fh)
        variant = rng.choice(("", "--mirrored", "--both-variants"))
        argv = ["oka3", "--hom", path] + ([variant] if variant else [])
        code = 0 if std["verdict"] == "classified" else 2
        if variant == "--both-variants":
            check = _json_check(code, lambda d: _oka3_matches(d["standard"], std) and _oka3_matches(
                d["mirrored"], mir) and d["agree"] == (std == mir))
        else:
            e = mir if variant else std
            code = 0 if e["verdict"] == "classified" else 2
            check = _json_check(code, lambda d: _oka3_matches(d, e))
        words = ((3, b1), (3, b2))
    elif sub == "go-surface":
        sig, images, e = f2_hom(rng, rng.choice(("reducible", "sphere", "notGO")))
        path = os.path.join(workdir, f"f2hom{idx}.json")
        with open(path, "w") as fh:
            json.dump({"genus": sig[0], "holes": sig[1], "target": "F2",
                       "images": {f"e{j}": fw_text(w) for j, w in images.items()}}, fh)
        argv = ["go-surface", "--hom", path]
        check = _json_check(0 if e["goProperty"] else 2, lambda d: _oka3_matches(d, e))
        words = tuple((0, w) for w in images.values())
    elif sub == "eprime":
        g, m = rng.choice(EPRIME_SIGNATURES)
        rank = 2 * g + m - 1
        listed = rng.random() < 0.5
        argv = ["eprime", "--genus", str(g), "--holes", str(m)] + (["--list"] if listed else [])

        def pred(d):
            ok = d["bound"] == rank ** 3 and 0 < d["count"] <= d["bound"]
            if listed:
                got = [x["word"] for x in d["elements"]]
                ok = ok and len(got) == d["count"] and all(f"e{j}" in got for j in range(1, rank + 1))
            return ok
        check = _json_check(0, pred)
    else:
        tau = _random_tau(rng)
        alpha = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        csv = rng.random() < 0.5
        argv = ["lattice-branch", f"--tau={_cx(tau)}", f"--alpha={_cx(alpha)}", "--radius", "60"]
        argv += ["--csv"] if csv else []
        check = _branch_check(alpha, tau, csv)
    return Op(sub, "cli", (argv,), check, tuple(argv), words)


def _branch_check(alpha, tau, csv: bool):
    def check(r):
        code, out = r
        if csv:
            cells = [float(x) for x in out.strip().splitlines()[1].split(",")]
            e = [complex(cells[k], cells[k + 1]) for k in (0, 2, 4)]
        else:
            e = [complex(*x) for x in json.loads(out)["e"]]
        ref = [x * alpha ** -2 for x in O.half_periods(tau)]
        return code == 0 and all(O.close(a, b, O.THETA_TOL) for a, b in zip(e, ref))
    return check


def cli(seed: int, seconds: float, workdir: str) -> Workload:
    calls = max(len(SUBCOMMANDS), round(CLI_CALLS_PER_S * seconds))
    rng = _rng(seed, "cli", 0)
    order: list[str] = []
    while len(order) < calls:
        block = list(SUBCOMMANDS)
        rng.shuffle(block)
        order += block
    ops = [_cli_case(rng, sub, workdir, i) for i, sub in enumerate(order[:calls])]
    return Workload(calls, 1, lambda c: ops, defer_checks=True)


WORKLOADS = ("cli", "queries", "garside", "sweeps")


def build(name: str, seed: int, seconds: float, workdir: str) -> Workload:
    if name == "cli":
        return cli(seed, seconds, workdir)
    return {"queries": queries, "garside": garside, "sweeps": sweeps}[name](seed, seconds)
