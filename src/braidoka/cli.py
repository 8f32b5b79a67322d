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
line of the same form.  A reader that closes stdout early changes neither
the exit code nor stderr.

The handlers read the package's modules by attribute (`three.classify3`),
so a call loads only the modules its handler runs, and building the
parser loads none.  `main` builds the subparser of the subcommand that
its first argument names, none when that argument is `--version`, and
every subparser when it names none (`--help`, a typo).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, _value, braid, errors, families, lattice, oka, sl2z, three

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


def _braid_arg(args) -> braid.BraidWord:
    return braid.BraidWord.parse(args.braid, args.n)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def cmd_classify(args):
    b = braid.BraidWord.parse(args.braid, 3)
    payload = three.classify3(b).as_dict()
    payload["theta"] = sl2z.theta(b).to_json()
    return payload, True


def cmd_entropy(args):
    return {"entropy": three.entropy3(braid.BraidWord.parse(args.braid, 3))}, True


def cmd_module(args):
    m = three.conformal_module3(braid.BraidWord.parse(args.braid, 3))
    return {"module": None if math.isinf(m) else m, "infinite": math.isinf(m)}, True


def cmd_eq(args):
    a, b = braid.BraidWord.parse(args.a, args.n), braid.BraidWord.parse(args.b, args.n)
    if args.n is None:  # one inferred B_n for both; B_n embeds in B_(n+1)
        n = max(a.strands, b.strands)
        a, b = braid.BraidWord._from_runs(n, a.runs), braid.BraidWord._from_runs(n, b.runs)
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
    res = three.conj3(braid.BraidWord.parse(args.a, 3), braid.BraidWord.parse(args.b, 3))
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
        raise errors.BraidokaError("give --genus and --marked, or --braid-n")
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


def _parse_complex(option: str, text: str) -> complex:
    try:
        re_, im = text.split(",")
        return complex(float(re_), float(im))
    except ValueError:
        raise ValueError(f"{option} must be a complex number as re,im, got {text!r}") from None


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(f"{c:.12g}" for c in row) for row in rows)])


def _e_cells(bl) -> list[float]:
    return [c for e in bl.e for c in (e.real, e.imag)]


def cmd_lattice_branch(args):
    alpha = _parse_complex("--alpha", args.alpha)
    tau = _parse_complex("--tau", args.tau)
    if args.radius is not None and args.radius < 10:
        raise ValueError(f"--radius must be at least 10, got {args.radius}")
    if args.path_end is None:
        if args.path_steps is not None:
            raise ValueError("--path-steps needs --path-end")
        bl = lattice.branch_locus(lattice.LatticeSpec(alpha, tau))
        if args.csv:
            return _csv("e1_re,e1_im,e2_re,e2_im,e3_re,e3_im", [_e_cells(bl)]), True
        return {"alpha": [alpha.real, alpha.imag], "tau": [tau.real, tau.imag],
                **bl.as_dict()}, True
    end = _parse_complex("--path-end", args.path_end)
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
    """An integer option, read by the rule of braid words and JSON fields
    (`_value.read_int`): argparse's ``int`` would also take "1_0", " 2"
    and other scripts' digits.  argparse names the option in the error."""
    try:
        return _value.read_int(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _braid_options(p):
    p.add_argument("--braid", required=True, help="word like '1 -2 1'")


def _braid_n_options(p):  # the other --braid subcommands work in B_3 only
    _braid_options(p)
    p.add_argument("--n", type=_int, default=3, help="strand count")


def _pair_options(p):
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)


def _eq_options(p):
    _pair_options(p)
    p.add_argument("--n", type=_int)


def _scan_options(p):
    p.add_argument("--maxlen", type=_int, required=True)


def _disc_index_options(p):
    p.add_argument("--family", required=True, help="LaurentFamily JSON file")
    p.add_argument("--samples", type=_int, default=256)


def _thm1_options(p):
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--modulus", type=float, required=True)
    p.add_argument("--index", type=_int, required=True)


def _penner_options(p):
    p.add_argument("--genus", type=_int)
    p.add_argument("--marked", type=_int)
    p.add_argument("--braid-n", type=_int)


def _hom_options(p):
    p.add_argument("--hom", required=True, help="SurfaceHom JSON file")


def _oka3_options(p):
    _hom_options(p)
    variant = p.add_mutually_exclusive_group()
    variant.add_argument("--mirrored", action="store_true",
                         help="use the mirrored E0 variant")
    variant.add_argument("--both-variants", action="store_true",
                         help="report both E0 variants and whether they agree")


def _eprime_options(p):
    p.add_argument("--genus", type=_int, required=True)
    p.add_argument("--holes", type=_int, required=True)
    p.add_argument("--list", action="store_true")


# argparse takes a value that starts with "-" and is not a plain negative
# number, such as -0.3,1, for an option, so `--tau -0.3,1` is a usage error
_COMPLEX = "complex as re,im; a negative re needs the = form, as in {}=-0.3,1"


def _lattice_branch_options(p):
    p.add_argument("--alpha", default="1,0", help=_COMPLEX.format("--alpha"))
    p.add_argument("--tau", required=True, help=_COMPLEX.format("--tau"))
    p.add_argument("--radius", type=_int,
                   help="accepted for compatibility, at least 10; the output does not "
                        "depend on it, since a reduced lattice needs at most 9 rows")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--path-end", help="trace tau linearly to this value, "
                                      + _COMPLEX.format("--path-end"))
    p.add_argument("--path-steps", type=_int,
                   help=f"steps along the --path-end path (default {PATH_STEPS})")


# name: (handler, help line, the function that adds its options), in the
# order `--help` lists them
_SUBCOMMANDS = {
    "classify": (cmd_classify, "Nielsen-Thurston class of a 3-braid", _braid_options),
    "entropy": (cmd_entropy, "topological entropy of a 3-braid", _braid_options),
    "module": (cmd_module, "conformal module of a 3-braid class", _braid_options),
    "nf": (cmd_nf, "Garside left normal form", _braid_n_options),
    "linking": (cmd_linking, "linking numbers of a pure braid", _braid_n_options),
    "eq": (cmd_eq, "equality of two braid words", _eq_options),
    "conj": (cmd_conj, "conjugacy of two 3-braid words", _pair_options),
    "scan-commutators": (cmd_scan_commutators,
                         "pairs with nontrivial zero-entropy commutator", _scan_options),
    "disc-index": (cmd_disc_index, "winding index of a family discriminant",
                   _disc_index_options),
    "thm1": (cmd_thm1, "prime-degree reducibility verdict", _thm1_options),
    "penner": (cmd_penner, "entropy and module bounds", _penner_options),
    "oka3": (cmd_oka3, "E0 screen of a torus-with-hole B3 monodromy", _oka3_options),
    "go-surface": (cmd_go_surface, "Gromov-Oka verdict of an F2 monodromy", _hom_options),
    "eprime": (cmd_eprime, "the E' test set of a surface", _eprime_options),
    "lattice-branch": (cmd_lattice_branch, "branch locus of a lattice",
                       _lattice_branch_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names
    one, or of none when it is `--version`, where argparse prints and
    exits before it reads a subparser.  One subparser builds in about
    2.2 ms of a fresh process, all 15 in 5.1 ms (Python 3.11, 2-core VM);
    the metavar keeps the usage line that lists them all."""
    parser = argparse.ArgumentParser(
        prog="braidoka",
        description="braid classification, Gromov-Oka decisions, and lattice branch loci",
    )
    parser.add_argument("--version", action="version", version=__version__)
    if command == "--version":
        return parser
    if command in _SUBCOMMANDS:
        # without a metavar a missing or unknown subcommand is reported as
        # `argument command:`, so those cases build every subparser
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_SUBCOMMANDS) + "}")
        names = (command,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _SUBCOMMANDS
    for name in names:
        run, help_, add_options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        add_options(p)
        p.add_argument("--out", help="also write the printed output to this file")
    return parser


def _json_line(obj: dict) -> str:
    """obj as one line of strict JSON, after the key `schema`."""
    return json.dumps({"schema": SCHEMA_VERSION, **obj}, allow_nan=False)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
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
