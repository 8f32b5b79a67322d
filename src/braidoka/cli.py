"""Command-line front end.

Each subcommand's handler `cmd_*` only computes: it returns
`(payload, positive)`, where the payload is a dict, or the CSV text under
`--csv`.  `main` is the one place that prints: a dict goes out as one JSON
object on one line whose first key is `schema` (strict JSON: a NaN or
infinite number is an input error), CSV text as it is.  `python -m
json.tool` lays a line out for reading.  `--out` writes the same text that
is printed to a file as well.  A payload integer with more digits than
the interpreter converts to text is a ResourceLimit error.  Exit codes: 0
for a positive or neutral result, 2 for a negative mathematical verdict
(inequality, non-conjugacy, violation, non-GO, inconclusive), 1 for usage
or input errors, which are reported on stderr as one JSON object on one
line of the same form (`errors.UsageError` for a command line that cannot
be read).  A reader that closes stdout early changes neither the exit code
nor stderr.

The options are one table, `_SUBCOMMANDS`, and `parse_args` reads argv
against the rows of the subcommand it names: `--name value` or
`--name=value`, where the value is the next token unless that starts with
`--` (so `--tau -0.3,1` is a value); the last of a repeated option wins; a
flag takes no value; an option is spelled out in full.  No argparse: its
import, with gettext and locale, and its parser cost a call about 4-5 ms.

The handlers read the package's modules by attribute (`three.classify3`),
so a call loads only the modules its handler runs, and reading the
command line loads none.  Every handler reads its braid words with
`_word.BraidWord`, so the B_3 subcommands compile none of `braid`.
"""

from __future__ import annotations

import json
import math
import os
import sys
import types

from . import __version__, _value, _word, braid, errors, families, lattice, oka, sl2z, three

SCHEMA_VERSION = "1"
PATH_STEPS = 16  # lattice-branch --path-end without --path-steps
# most --path-steps: 10,000 steps take 0.54-0.67 s and print 3.6 MB of
# JSON at 46 MB peak RSS (0.31-0.34 s, 1.1 MB and 25.5 MB under --csv;
# Python 3.11, 2-core VM, pinned to one CPU), and time, output and memory
# grow linearly with the steps
_PATH_STEPS_MAX = 10_000

OK = 0
USAGE_ERROR = 1
NEGATIVE = 2


def _braid_arg(args) -> _word.BraidWord:
    return _word.BraidWord.parse(args.braid, args.n)


def _load_json(path: str):
    """The JSON value in the file at path.  The decoder recurses once per
    nested array or object, so about 1,000 levels exhaust the interpreter's
    recursion limit: that is an input error that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def cmd_classify(args):
    b = _word.BraidWord.parse(args.braid, 3)
    payload = three.classify3(b).as_dict()
    payload["theta"] = sl2z.theta(b).to_json()
    return payload, True


def cmd_entropy(args):
    return {"entropy": three.entropy3(_word.BraidWord.parse(args.braid, 3))}, True


def cmd_module(args):
    m = three.conformal_module3(_word.BraidWord.parse(args.braid, 3))
    return {"module": None if math.isinf(m) else m, "infinite": math.isinf(m)}, True


def cmd_eq(args):
    a, b = _word.BraidWord.parse(args.a, args.n), _word.BraidWord.parse(args.b, args.n)
    if args.n is None:  # one inferred B_n for both; B_n embeds in B_(n+1)
        n = max(a.strands, b.strands)
        a, b = _word.BraidWord._from_runs(n, a.runs), _word.BraidWord._from_runs(n, b.runs)
    equal = braid.braid_eq(a, b)
    return {"equal": equal}, equal


def cmd_nf(args):
    b = _braid_arg(args)
    nf = braid.normal_form(b)
    return {
        "strands": nf.strands,
        "power": nf.power,
        "factors": [list(f.images) for f in nf.factors],
        "canonicalLength": nf.canonical_length(),
        "exponentSum": braid.exponent_sum(b),
    }, True


def cmd_linking(args):
    lk = braid.linking_numbers(_braid_arg(args))
    payload = {"strands": lk.strands,
               "pairs": {f"{i},{j}": v for i, j, v in lk.values}}
    if lk.strands == 3:
        payload["tuple"] = list(lk.tuple3())
    return payload, True


def cmd_conj(args):
    res = three.conj3(_word.BraidWord.parse(args.a, 3), _word.BraidWord.parse(args.b, 3))
    return {"conjugate": res}, res


def cmd_scan_commutators(args):
    return three.zero_entropy_commutator_scan(args.maxlen).as_dict(), True


def cmd_disc_index(args):
    fam = families.LaurentFamily.from_json(_load_json(args.family))
    return families.discriminant_index(fam, samples=args.samples).as_dict(), True


def _float_bound(options: str, f, *args):
    """f(*args), with an integer too large for a float reported as an
    input error that names the options it came from."""
    try:
        return f(*args)
    except OverflowError:
        raise ValueError(f"{options}: too large to convert to a float") from None


def cmd_thm1(args):
    verdict = _float_bound("--n", families.thm1_verdict, args.n, args.modulus, args.index)
    return {"verdict": verdict, "n": args.n, "modulus": args.modulus,
            "index": args.index}, verdict != families.INCONCLUSIVE


def cmd_penner(args):
    surface = args.genus is not None
    if surface != (args.marked is not None) or not (surface or args.braid_n is not None):
        raise errors.UsageError("give --genus and --marked, or --braid-n")
    payload: dict = {}
    if surface:
        payload["penner"] = _float_bound("--genus/--marked", families.penner_bound,
                                         args.genus, args.marked)
    if args.braid_n is not None:
        payload["entropyLower"] = _float_bound("--braid-n", families.nbraid_entropy_lower,
                                               args.braid_n)
        payload["moduleUpper"] = _float_bound("--braid-n", families.nbraid_module_upper,
                                              args.braid_n)
    return payload, True


def cmd_oka3(args):
    """--both-variants reports both E0 variants; the standard one sets the verdict."""
    if args.mirrored and args.both_variants:
        raise errors.UsageError("argument --both-variants: not allowed with argument --mirrored")
    hom = oka.SurfaceHom.from_json(_load_json(args.hom))
    if args.both_variants:
        payload = oka.oka3_decide_both(hom)
        return payload, payload["standard"]["verdict"] == "classified"
    payload = oka.oka3_decide(hom, mirrored=args.mirrored).as_dict()
    return payload, payload["verdict"] == "classified"


def cmd_go_surface(args):
    payload = oka.go_surface_decide(oka.SurfaceHom.from_json(_load_json(args.hom))).as_dict()
    return payload, payload["goProperty"]


def cmd_eprime(args):
    payload = oka.eprime_generate(oka.SurfaceSignature(args.genus, args.holes)).as_dict()
    if not args.list:
        payload.pop("elements")
    return payload, True


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(f"{c:.12g}" for c in row) for row in rows)])


def _e_cells(bl) -> list[float]:
    return [c for e in bl.e for c in (e.real, e.imag)]


def cmd_lattice_branch(args):
    alpha, tau, end = args.alpha, args.tau, args.path_end
    if args.radius is not None and args.radius < 10:
        raise ValueError(f"--radius must be at least 10, got {args.radius}")
    if end is None:
        if args.path_steps is not None:
            raise errors.UsageError("--path-steps needs --path-end")
        bl = lattice.branch_locus(lattice.LatticeSpec(alpha, tau))
        if args.csv:
            return _csv("e1_re,e1_im,e2_re,e2_im,e3_re,e3_im", [_e_cells(bl)]), True
        return {"alpha": [alpha.real, alpha.imag], "tau": [tau.real, tau.imag],
                **bl.as_dict()}, True
    steps = PATH_STEPS if args.path_steps is None else args.path_steps
    if not 1 <= steps <= _PATH_STEPS_MAX:
        raise ValueError(f"--path-steps must be between 1 and {_PATH_STEPS_MAX}, got {steps}")
    rows = []
    for k in range(steps + 1):
        t = k / steps
        tau_t = tau + (end - tau) * t
        rows.append((t, tau_t, lattice.branch_locus(lattice.LatticeSpec(alpha, tau_t))))
    if args.csv:
        return _csv("t,tau_re,tau_im,e1_re,e1_im,e2_re,e2_im,e3_re,e3_im",
                    [[t, tt.real, tt.imag, *_e_cells(bl)] for t, tt, bl in rows]), True
    return {"trace": [{"t": t, "tau": [tt.real, tt.imag], **bl.as_dict()}
                      for t, tt, bl in rows]}, True


def _int(text: str) -> int:
    """An integer option, read by the rule of braid words and JSON fields:
    ``int`` would also take "1_0", " 2" and other scripts' digits."""
    return _value.read_int(text, "the value")


def _float(text: str) -> float:
    """A float option, read with the integer rule's characters (ASCII, no
    "_", no surrounding space): ``float`` would also take "3_0", " 30 "
    and other scripts' digits."""
    if text.isascii() and "_" not in text and text == text.strip():
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"the value must be a number, got {text!r}")


def _complex(text: str) -> complex:
    """A complex option written re,im, each part read as `_float` reads."""
    try:
        re_, im = text.split(",")
        return complex(_float(re_), _float(im))
    except ValueError:
        raise ValueError(f"the value must be a complex number as re,im, got {text!r}") from None


_BRAID = ("--braid", str, ..., "braid word, such as '1 -2 1'")
_N = ("--n", _int, 3, "strand count")
_A, _B = ("--a", str, ..., "first braid word"), ("--b", str, ..., "second braid word")
_HOM = ("--hom", str, ..., "SurfaceHom JSON file")
_OUT = ("--out", str, None, "also write the printed output to this file")

# name: (handler, help line, option rows...), in the order `--help` lists
# them.  A row is (option, kind, default, help): the kind str, _int, _float
# or _complex reads the option's value and a default given as text, bool
# makes it a flag, and the default ... makes the option required.  Every
# subcommand also takes _OUT.
_SUBCOMMANDS = {
    "classify": (cmd_classify, "Nielsen-Thurston class of a 3-braid", _BRAID),
    "entropy": (cmd_entropy, "topological entropy of a 3-braid", _BRAID),
    "module": (cmd_module, "conformal module of a 3-braid class", _BRAID),
    "nf": (cmd_nf, "Garside left normal form", _BRAID, _N),
    "linking": (cmd_linking, "linking numbers of a pure braid", _BRAID, _N),
    "eq": (cmd_eq, "equality of two braid words", _A, _B,
           ("--n", _int, None, "strand count; the least that holds both if not given")),
    "conj": (cmd_conj, "conjugacy of two 3-braid words", _A, _B),
    "scan-commutators": (cmd_scan_commutators, "pairs with nontrivial zero-entropy commutator",
                         ("--maxlen", _int, ..., "longest word scanned")),
    "disc-index": (cmd_disc_index, "winding index of a family discriminant",
                   ("--family", str, ..., "LaurentFamily JSON file"),
                   ("--samples", _int, 256, "samples of the first pass")),
    "thm1": (cmd_thm1, "prime-degree reducibility verdict", ("--n", _int, ..., "degree"),
             ("--modulus", _float, ..., "conformal module of the annulus"),
             ("--index", _int, ..., "winding index of the discriminant")),
    "penner": (cmd_penner, "entropy and module bounds",
               ("--genus", _int, None, "genus of the surface"),
               ("--marked", _int, None, "marked points"),
               ("--braid-n", _int, None, "strand count of the n-braid bounds")),
    "oka3": (cmd_oka3, "E0 screen of a torus-with-hole B3 monodromy", _HOM,
             ("--mirrored", bool, False, "use the mirrored E0 variant"),
             ("--both-variants", bool, False, "report both E0 variants and whether they agree")),
    "go-surface": (cmd_go_surface, "Gromov-Oka verdict of an F2 monodromy", _HOM),
    "eprime": (cmd_eprime, "the E' test set of a surface",
               ("--genus", _int, ..., "genus of the surface"),
               ("--holes", _int, ..., "boundary components"),
               ("--list", bool, False, "list the elements")),
    "lattice-branch": (cmd_lattice_branch, "branch locus of a lattice",
                       ("--alpha", _complex, "1,0", "scale, complex as re,im"),
                       ("--tau", _complex, ..., "period ratio, complex as re,im"),
                       ("--radius", _int, None,
                        "accepted for compatibility, at least 10; the output does not "
                        "depend on it, since a reduced lattice needs at most 9 rows"),
                       ("--csv", bool, False, "print CSV"),
                       ("--path-end", _complex, None, "trace tau linearly to this value, re,im"),
                       ("--path-steps", _int, None,
                        f"steps along the --path-end path (default {PATH_STEPS})")),
}


def _usage(name: str | None) -> str:
    """The `--help` text of subcommand `name`, or of the program when None."""
    if name is None:
        return "\n".join([
            f"usage: braidoka [-h] [--version] {{{','.join(_SUBCOMMANDS)}}} ...",
            "braid classification, Gromov-Oka decisions, and lattice branch loci",
            *(f"  {n:<18}{row[1]}" for n, row in _SUBCOMMANDS.items())])
    _run, help_, *rows = _SUBCOMMANDS[name] + (_OUT,)
    return "\n".join([f"usage: braidoka {name} [-h] [options]", help_, *(
        f"  {option:<16}{h}" + ("" if kind is bool or d is None else " (required)" if d is ...
                                else f" (default {d})") for option, kind, d, h in rows)])


def _prints(text: str):
    """The namespace of a call that prints text and exits 0."""
    return types.SimpleNamespace(run=lambda args: (text, True), out=None)


def parse_args(argv: list[str]):
    """The namespace of the call that argv names: one attribute per option
    of its subcommand (`--braid-n` as `braid_n`), given or its default,
    and `run`, the handler that `main` calls on it.  `-h`/`--help` and
    `--version` give a handler that returns the text to print.  A command
    line it cannot read raises `errors.UsageError`."""
    if not argv:
        raise errors.UsageError("the following arguments are required: command")
    name, tokens = argv[0], iter(argv[1:])
    if name in ("-h", "--help", "--version"):
        return _prints(__version__ if name == "--version" else _usage(None))
    if name not in _SUBCOMMANDS:
        raise errors.UsageError(f"argument command: invalid choice: {name!r} "
                                "(braidoka --help lists the subcommands)")
    run, _help, *rows = _SUBCOMMANDS[name] + (_OUT,)
    kinds = {row[0]: row[1] for row in rows}
    values = {row[0]: row[1](row[2]) if isinstance(row[2], str) else row[2] for row in rows}
    extra = []
    for token in tokens:
        if token in ("-h", "--help"):
            return _prints(_usage(name))
        option, eq, text = token.partition("=")
        kind = kinds.get(option)
        if kind is None or (kind is bool and eq):  # unknown, a stray value or a flag's value
            extra.append(token)
        elif kind is bool:
            values[option] = True
        else:
            try:
                if not eq:  # the next token, unless it is an option
                    text = next(tokens, "--")
                    if text.startswith("--"):
                        raise ValueError("expected one argument")
                values[option] = kind(text)
            except ValueError as exc:
                raise errors.UsageError(f"argument {option}: {exc}") from None
    missing = [option for option, value in values.items() if value is ...]
    if missing:
        raise errors.UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise errors.UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return types.SimpleNamespace(
        run=run, **{option[2:].replace("-", "_"): value for option, value in values.items()})


def build_parser(command: str | None = None):
    """An object whose `parse_args(argv)` is the reader `main` uses, for
    callers written against the argparse parser it replaced.  It builds
    nothing, and `command` is not read."""
    return types.SimpleNamespace(parse_args=parse_args)


def _json_line(obj: dict) -> str:
    """obj as one line of strict JSON, after the key `schema`."""
    return json.dumps({"schema": SCHEMA_VERSION, **obj}, allow_nan=False)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        payload, positive = args.run(args)
        try:
            text = payload if isinstance(payload, str) else _json_line(payload)
        except ValueError as exc:
            # the limit guards against quadratic-time conversions of input
            # text, so it stays; a longer int in the output is reported
            if "integer string conversion" not in str(exc):
                raise
            raise errors.ResourceLimit(
                f"the output holds an integer of more digits than the limit of "
                f"{sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())") from None
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout early (`| head`): the verdict stands,
            # and stdout goes to devnull so the flush at exit stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (errors.BraidokaError, ValueError, OSError) as exc:
        print(_json_line({"error": str(exc), "errorType": type(exc).__name__}), file=sys.stderr)
        return USAGE_ERROR
    return OK if positive else NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
