"""Batch command-line front end.

Each subcommand's handler `cmd_*` only computes: it returns
`(payload, positive)`, where the payload is a dict, or the CSV text under
`--csv`.  `main` is the one place that prints: a dict goes out as one JSON
object whose first key is `schema` (strict JSON: a NaN or infinite number
is an input error), CSV text as it is.  `--out` writes the same text that
is printed to a file as well.  Exit codes: 0 for a positive or neutral
result, 2 for a negative mathematical verdict (inequality, non-conjugacy,
violation, non-GO, inconclusive), 1 for usage or input errors, which are
reported on stderr as one JSON object.  A reader that closes stdout early
changes neither the exit code nor stderr.

The handlers read the package's modules by attribute (`three.classify3`),
so a call loads only the modules its handler runs, and building the
parser loads none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, braid, errors, families, lattice, oka, sl2z, three

SCHEMA_VERSION = "1"
PATH_STEPS = 16  # lattice-branch --path-end without --path-steps

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
        a, b = braid.BraidWord(n, a.letters), braid.BraidWord(n, b.letters)
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


def _parse_complex(text: str) -> complex:
    re_, im = text.split(",")
    return complex(float(re_), float(im))


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(f"{c:.12g}" for c in row) for row in rows)])


def _e_cells(bl) -> list[float]:
    return [c for e in bl.e for c in (e.real, e.imag)]


def cmd_lattice_branch(args):
    alpha = _parse_complex(args.alpha)
    tau = _parse_complex(args.tau)
    radius = lattice.DEFAULT_RADIUS if args.radius is None else args.radius
    if args.path_end is None:
        if args.path_steps is not None:
            raise ValueError("--path-steps needs --path-end")
        bl = lattice.branch_locus(lattice.LatticeSpec(alpha, tau), radius)
        if args.csv:
            return _csv("e1_re,e1_im,e2_re,e2_im,e3_re,e3_im", [_e_cells(bl)]), True
        return {"alpha": [alpha.real, alpha.imag], "tau": [tau.real, tau.imag],
                **bl.as_dict()}, True
    end = _parse_complex(args.path_end)
    steps = PATH_STEPS if args.path_steps is None else args.path_steps
    if steps < 1:
        raise ValueError("--path-steps must be >= 1")
    rows = []
    for k in range(steps + 1):
        t = k / steps
        tau_t = tau + (end - tau) * t
        rows.append((t, tau_t, lattice.branch_locus(lattice.LatticeSpec(alpha, tau_t), radius)))
    if args.csv:
        return _csv("t,tau_re,tau_im,e1_re,e1_im,e2_re,e2_im,e3_re,e3_im",
                    [[t, tt.real, tt.imag, *_e_cells(bl)] for t, tt, bl in rows]), True
    return {"trace": [{"t": t, "tau": [tt.real, tt.imag], **bl.as_dict()}
                      for t, tt, bl in rows]}, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidoka",
        description="braid classification, Gromov-Oka decisions, and lattice branch loci",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        return p

    for name, run, help_ in (
        ("classify", cmd_classify, "Nielsen-Thurston class of a 3-braid"),
        ("entropy", cmd_entropy, "topological entropy of a 3-braid"),
        ("module", cmd_module, "conformal module of a 3-braid class"),
        ("nf", cmd_nf, "Garside left normal form"),
        ("linking", cmd_linking, "linking numbers of a pure braid"),
    ):
        p = add(name, run, help_)
        p.add_argument("--braid", required=True, help="word like '1 -2 1'")
        if name in ("nf", "linking"):  # the others work in B_3 only
            p.add_argument("--n", type=int, default=3, help="strand count")

    for name, run, help_ in (
        ("eq", cmd_eq, "equality of two braid words"),
        ("conj", cmd_conj, "conjugacy of two 3-braid words"),
    ):
        p = add(name, run, help_)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        if name == "eq":
            p.add_argument("--n", type=int)

    p = add("scan-commutators", cmd_scan_commutators,
            "pairs with nontrivial zero-entropy commutator")
    p.add_argument("--maxlen", type=int, required=True)

    p = add("disc-index", cmd_disc_index, "winding index of a family discriminant")
    p.add_argument("--family", required=True, help="LaurentFamily JSON file")
    p.add_argument("--samples", type=int, default=256)

    p = add("thm1", cmd_thm1, "prime-degree reducibility verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modulus", type=float, required=True)
    p.add_argument("--index", type=int, required=True)

    p = add("penner", cmd_penner, "entropy and module bounds")
    p.add_argument("--genus", type=int)
    p.add_argument("--marked", type=int)
    p.add_argument("--braid-n", type=int)

    p = add("oka3", cmd_oka3, "E0 screen of a torus-with-hole B3 monodromy")
    p.add_argument("--hom", required=True, help="SurfaceHom JSON file")
    variant = p.add_mutually_exclusive_group()
    variant.add_argument("--mirrored", action="store_true",
                         help="use the mirrored E0 variant")
    variant.add_argument("--both-variants", action="store_true",
                         help="report both E0 variants and whether they agree")

    p = add("go-surface", cmd_go_surface, "Gromov-Oka verdict of an F2 monodromy")
    p.add_argument("--hom", required=True, help="SurfaceHom JSON file")

    p = add("eprime", cmd_eprime, "the E' test set of a surface")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--holes", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = add("lattice-branch", cmd_lattice_branch, "branch locus of a lattice")
    p.add_argument("--alpha", default="1,0", help="complex as re,im")
    p.add_argument("--tau", required=True, help="complex as re,im")
    # no default: the handler reads lattice.DEFAULT_RADIUS, which the parser
    # does not import
    p.add_argument("--radius", type=int,
                   help="most lattice rows summed on each side (default 60)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--path-end", help="trace tau linearly to this re,im value")
    p.add_argument("--path-steps", type=int,
                   help=f"steps along the --path-end path (default {PATH_STEPS})")

    for p in sub.choices.values():
        p.add_argument("--out", help="also write the printed output to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        payload, positive = args.run(args)
        text = (payload if isinstance(payload, str)
                else json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2, allow_nan=False))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout early (`| head`): the verdict stands,
            # and stdout goes to devnull so the flush at exit stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (errors.BraidokaError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"schema": SCHEMA_VERSION, "error": str(exc),
                          "errorType": type(exc).__name__}), file=sys.stderr)
        return USAGE_ERROR
    return OK if positive else NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
