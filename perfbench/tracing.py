"""Spans and counters installed around braidoka's public functions.

The benchmark never edits the program: install() replaces each listed
function, in every braidoka namespace that holds it (three and oka import
theta by name, for example), with a wrapper that records a span, and wraps
a few constructors with counters.  uninstall() puts the originals back.

A span is (name, start, end, parent span, operation id).  Spans are kept
in memory in flat arrays and written out when the run ends.  A call to a
function whose span is already the innermost open one (the compiled or
pure kernel behind the _backend dispatcher) is not recorded twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.open: list[int] = []
        self.op_id = -1
        self.active = False  # only calls made by an operation are recorded
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        names, start, end, parent, op, stack = (
            self.names, self.start, self.end, self.parent, self.op, self.open)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and names[stack[-1]] == name):
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, busy ms and self ms per span name."""
        return aggregate(self.names, self.start, self.end, self.parent)

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        doc = {
            "names": table,
            "name": [ids[n] for n in self.names],
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def aggregate(names, start, end, parent) -> dict[str, dict[str, float]]:
    """Per name: calls, total duration and total self time, in ms.

    Self time is a span's duration minus the part of it that its child
    spans cover (the union of the children's intervals, clipped to it).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        s, e = start[i], end[i]
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        agg["calls"] += 1
        agg["ms"] += (e - s) * 1e3
        agg["self_ms"] += (e - s - covered) * 1e3
    return out


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------


def _add(key, f):
    def count(counts, args, kwargs, result):
        counts[key] += f(args, kwargs, result)
    return count


def _count_normal_form(counts, args, kwargs, result):
    counts["braid.normal_form.letters_in"] += len(args[0].letters)
    counts["braid.normal_form.factors_out"] += len(result.factors)


def _count_scan(counts, args, kwargs, result):
    counts["three.scan.words_scanned"] += result.words_scanned
    counts["three.scan.pairs_examined"] += result.words_scanned ** 2
    counts["three.scan.pairs_found"] += len(result.pairs)


def _count_oka3(counts, args, kwargs, result):
    verdict = result.as_dict()["verdict"]
    counts["oka.oka3.violations" if verdict == "violation" else "oka.oka3.classified"] += 1


def _count_disc(counts, args, kwargs, result):
    requested = kwargs.get("samples", args[1] if len(args) > 1 else 256)
    counts["families.disc.samples_used"] += result.samples_used
    counts["families.disc.doublings"] += round(math.log2(result.samples_used / requested))


def _wp_terms(args, kwargs, result):
    return (2 * args[2] + 1) ** 2


# (module, function, span name, counter)
SPANS = (
    ("braid", "normal_form", "braid.normal_form", _count_normal_form),
    ("braid", "braid_eq", "braid.braid_eq", None),
    ("braid", "linking_numbers", "braid.linking_numbers", None),
    ("braid", "permutation", "braid.permutation", None),
    ("sl2z", "theta", "sl2z.theta", None),
    ("sl2z", "sl2z_conjugate", "sl2z.sl2z_conjugate", None),
    ("sl2z", "parabolic_normal_form", "sl2z.parabolic_normal_form", None),
    ("sl2z", "rl_factorization", "sl2z.rl_factorization", None),
    ("three", "classify3", "three.classify3", None),
    ("three", "entropy3", "three.entropy3", None),
    ("three", "conj3", "three.conj3", None),
    ("three", "centralizer_check", "three.centralizer_check", None),
    ("three", "zero_entropy_commutator_scan", "three.zero_entropy_commutator_scan", _count_scan),
    ("oka", "oka3_decide", "oka.oka3_decide", _count_oka3),
    ("oka", "go_surface_decide", "oka.go_surface_decide", None),
    ("oka", "eprime_generate", "oka.eprime_generate",
     _add("oka.eprime.elements", lambda a, k, r: r.count)),
    ("words", "is_conjugate_into_peripheral", "words.is_conjugate_into_peripheral", None),
    ("words", "primitive_root", "words.primitive_root", None),
    ("families", "discriminant_index", "families.discriminant_index", _count_disc),
    ("lattice", "branch_locus", "lattice.branch_locus", None),
    ("lattice", "wp", "lattice.wp", None),
    ("lattice", "wp_prime", "lattice.wp_prime", None),
)
COUNTERS = (
    "braid.normal_form.letters_in", "braid.normal_form.factors_out",
    "braid.BraidWord.constructed", "braid.BraidWord.letters_validated",
    "perms.Permutation.constructed",
    "sl2z.SL2Matrix.constructed", "sl2z.SL2Matrix.pow_calls", "sl2z.SL2Matrix.pow_steps",
    "three.scan.words_scanned", "three.scan.pairs_examined", "three.scan.pairs_found",
    "oka.oka3.violations", "oka.oka3.classified", "oka.eprime.elements",
    "words.FreeWord.constructed",
    "families.disc.samples_used", "families.disc.doublings",
    "kernel.theta_abcd.letters", "kernel.sweep3_stats.words",
    "kernel.wp_sum.terms_computed", "kernel.wp_prime_sum.terms_computed",
)
KERNELS = ("theta_abcd", "e0_screen", "sweep3_stats", "wp_sum", "wp_prime_sum")
KERNEL_COUNTS = {
    "theta_abcd": _add("kernel.theta_abcd.letters", lambda a, k, r: len(a[0])),
    "sweep3_stats": _add("kernel.sweep3_stats.words", lambda a, k, r: r["total"]),
    "wp_sum": _add("kernel.wp_sum.terms_computed", _wp_terms),
    "wp_prime_sum": _add("kernel.wp_prime_sum.terms_computed", _wp_terms),
}


def span_names() -> list[str]:
    return [name for _, _, name, _ in SPANS] + [f"kernel.{k}" for k in KERNELS]


def _counting_init(tracer, key, fn, letters_key=None):
    counts = tracer.counts

    def __post_init__(self):
        if tracer.active:
            counts[key] += 1
            if letters_key:
                counts[letters_key] += len(self.letters)
        fn(self)
    return __post_init__


def _counting_pow(tracer, fn):
    counts = tracer.counts

    def __pow__(self, k):
        if tracer.active:
            counts["sl2z.SL2Matrix.pow_calls"] += 1
            counts["sl2z.SL2Matrix.pow_steps"] += abs(k)
        return fn(self, k)
    return __pow__


def install(tracer: Tracer):
    """Wrap every listed function and constructor; returns the undo."""
    from braidoka import _backend, _purekernels, braid, perms, sl2z, words

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "braidoka" or n.startswith("braidoka."))]
    undo: list[tuple[object, str, object]] = []

    def replace_everywhere(orig, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    for mod, fn, name, count in SPANS:
        orig = getattr(sys.modules[f"braidoka.{mod}"], fn)
        replace_everywhere(orig, tracer.wrap(name, orig, count))
    for fn in KERNELS:
        for module in (_backend, _purekernels):
            orig = getattr(module, fn)
            replace_everywhere(orig, tracer.wrap(f"kernel.{fn}", orig, KERNEL_COUNTS.get(fn)))

    for cls, key, letters_key in (
        (braid.BraidWord, "braid.BraidWord.constructed", "braid.BraidWord.letters_validated"),
        (perms.Permutation, "perms.Permutation.constructed", None),
        (sl2z.SL2Matrix, "sl2z.SL2Matrix.constructed", None),
        (words.FreeWord, "words.FreeWord.constructed", None),
    ):
        orig = cls.__post_init__
        undo.append((cls, "__post_init__", orig))
        cls.__post_init__ = _counting_init(tracer, key, orig, letters_key)
    undo.append((sl2z.SL2Matrix, "__pow__", sl2z.SL2Matrix.__pow__))
    sl2z.SL2Matrix.__pow__ = _counting_pow(tracer, sl2z.SL2Matrix.__pow__)

    def uninstall():
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)

    return uninstall
