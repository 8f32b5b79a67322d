"""Batch command-line front end.

Every subcommand prints one JSON object.  Exit codes: 0 for a positive or
neutral result, 2 for a negative mathematical verdict (inequality,
violation, non-GO, inconclusive), 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, lattice
from .braid import BraidWord, linking_numbers, normal_form, braid_eq, exponent_sum
from .errors import BraidokaError
from .families import (
    INCONCLUSIVE,
    LaurentFamily,
    discriminant_index,
    nbraid_entropy_lower,
    nbraid_module_upper,
    penner_bound,
    thm1_verdict,
)
from .oka import SurfaceHom, SurfaceSignature, eprime_generate, go_surface_decide, oka3_decide, oka3_decide_both
from .sl2z import theta
from .three import (
    classify3,
    conformal_module3,
    conj3,
    entropy3,
    zero_entropy_commutator_scan,
)

SCHEMA_VERSION = "1"

OK = 0
USAGE_ERROR = 1
NEGATIVE = 2


def _emit(payload: dict, out: str | None) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _braid_arg(args) -> BraidWord:
    return BraidWord.parse(args.braid, args.n)


def cmd_classify(args) -> int:
    b = _braid_arg(args)
    cls = classify3(b)
    payload = cls.as_dict()
    payload["theta"] = theta(b).to_json()
    _emit(payload, args.out)
    return OK


def cmd_entropy(args) -> int:
    _emit({"entropy": entropy3(_braid_arg(args))}, args.out)
    return OK


def cmd_module(args) -> int:
    m = conformal_module3(_braid_arg(args))
    _emit({"module": None if math.isinf(m) else m, "infinite": math.isinf(m)}, args.out)
    return OK


def cmd_eq(args) -> int:
    b1 = BraidWord.parse(args.a, args.n)
    b2 = BraidWord.parse(args.b, args.n)
    equal = braid_eq(b1, b2)
    _emit({"equal": equal}, args.out)
    return OK if equal else NEGATIVE


def cmd_nf(args) -> int:
    b = _braid_arg(args)
    nf = normal_form(b)
    _emit(
        {
            "strands": nf.strands,
            "power": nf.power,
            "factors": [list(f.images) for f in nf.factors],
            "canonicalLength": nf.canonical_length(),
            "exponentSum": exponent_sum(b),
        },
        args.out,
    )
    return OK


def cmd_linking(args) -> int:
    lk = linking_numbers(_braid_arg(args))
    payload = {"strands": lk.strands,
               "pairs": {f"{i},{j}": v for i, j, v in lk.values}}
    if lk.strands == 3:
        payload["tuple"] = list(lk.tuple3())
    _emit(payload, args.out)
    return OK


def cmd_conj(args) -> int:
    b1 = BraidWord.parse(args.a, args.n)
    b2 = BraidWord.parse(args.b, args.n)
    if (args.n or max(b1.strands, b2.strands)) != 3:
        raise BraidokaError("conjugacy testing is implemented for B_3 only")
    res = conj3(b1, b2)
    _emit({"conjugate": res}, args.out)
    return OK if res else NEGATIVE


def cmd_scan_commutators(args) -> int:
    rep = zero_entropy_commutator_scan(args.maxlen)
    _emit(rep.as_dict(), args.out)
    return OK


def cmd_disc_index(args) -> int:
    with open(args.family) as fh:
        fam = LaurentFamily.from_json(json.load(fh))
    rep = discriminant_index(fam, samples=args.samples)
    _emit(rep.as_dict(), args.out)
    return OK


def cmd_thm1(args) -> int:
    verdict = thm1_verdict(args.n, args.modulus, args.index)
    _emit({"verdict": verdict, "n": args.n, "modulus": args.modulus,
           "index": args.index}, args.out)
    return OK if verdict != INCONCLUSIVE else NEGATIVE


def cmd_penner(args) -> int:
    payload: dict = {}
    if args.genus is not None and args.marked is not None:
        payload["penner"] = penner_bound(args.genus, args.marked)
    if args.braid_n is not None:
        payload["entropyLower"] = nbraid_entropy_lower(args.braid_n)
        payload["moduleUpper"] = nbraid_module_upper(args.braid_n)
    if not payload:
        raise BraidokaError("give --genus and --marked, or --braid-n")
    _emit(payload, args.out)
    return OK


def cmd_oka3(args) -> int:
    with open(args.hom) as fh:
        hom = SurfaceHom.from_json(json.load(fh))
    if args.both_variants:
        payload = oka3_decide_both(hom)
        _emit(payload, args.out)
        return OK if payload["standard"]["verdict"] == "classified" else NEGATIVE
    payload = oka3_decide(hom, mirrored=args.mirrored).as_dict()
    _emit(payload, args.out)
    return OK if payload["verdict"] == "classified" else NEGATIVE


def cmd_go_surface(args) -> int:
    with open(args.hom) as fh:
        hom = SurfaceHom.from_json(json.load(fh))
    res = go_surface_decide(hom)
    payload = res.as_dict()
    _emit(payload, args.out)
    return OK if payload["goProperty"] else NEGATIVE


def cmd_eprime(args) -> int:
    ep = eprime_generate(SurfaceSignature(args.genus, args.holes))
    payload = ep.as_dict()
    if not args.list:
        payload.pop("elements")
    _emit(payload, args.out)
    return OK


def _parse_complex(text: str) -> complex:
    re_, im = text.split(",")
    return complex(float(re_), float(im))


def cmd_lattice_branch(args) -> int:
    alpha = _parse_complex(args.alpha)
    tau = _parse_complex(args.tau)
    if args.path_end is not None:
        end = _parse_complex(args.path_end)
        steps = args.path_steps
        if steps < 1:
            raise ValueError("--path-steps must be >= 1")
        rows = []
        for k in range(steps + 1):
            t = k / steps
            tau_t = tau + (end - tau) * t
            bl = lattice.branch_locus(lattice.LatticeSpec(alpha, tau_t), args.radius)
            rows.append((t, tau_t, bl))
        if args.csv:
            print("t,tau_re,tau_im,e1_re,e1_im,e2_re,e2_im,e3_re,e3_im")
            for t, tau_t, bl in rows:
                cells = [t, tau_t.real, tau_t.imag]
                for e in bl.e:
                    cells += [e.real, e.imag]
                print(",".join(f"{c:.12g}" for c in cells))
            return OK
        _emit(
            {"trace": [{"t": t, "tau": [tt.real, tt.imag], **bl.as_dict()}
                        for t, tt, bl in rows]},
            args.out,
        )
        return OK
    bl = lattice.branch_locus(lattice.LatticeSpec(alpha, tau), args.radius)
    if args.csv:
        print("e1_re,e1_im,e2_re,e2_im,e3_re,e3_im")
        print(",".join(f"{c:.12g}" for e in bl.e for c in (e.real, e.imag)))
        return OK
    _emit({"alpha": [alpha.real, alpha.imag], "tau": [tau.real, tau.imag],
           **bl.as_dict()}, args.out)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidoka",
        description="braid classification, Gromov-Oka decisions, and lattice branch loci",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="also write the JSON payload to this file")

    def braidp(p):
        p.add_argument("--braid", required=True, help="word like '1 -2 1'")
        p.add_argument("--n", type=int, default=3, help="strand count")
        common(p)

    braidp(sub.add_parser("classify", help="Nielsen-Thurston class of a 3-braid"))
    braidp(sub.add_parser("entropy", help="topological entropy of a 3-braid"))
    braidp(sub.add_parser("module", help="conformal module of a 3-braid class"))
    braidp(sub.add_parser("nf", help="Garside left normal form"))
    braidp(sub.add_parser("linking", help="linking numbers of a pure braid"))

    p = sub.add_parser("eq", help="equality of two braid words")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, default=None)
    common(p)

    p = sub.add_parser("conj", help="conjugacy of two 3-braid words")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, default=3)
    common(p)

    p = sub.add_parser("scan-commutators",
                       help="pairs with nontrivial zero-entropy commutator")
    p.add_argument("--maxlen", type=int, required=True)
    common(p)

    p = sub.add_parser("disc-index", help="winding index of a family discriminant")
    p.add_argument("--family", required=True, help="LaurentFamily JSON file")
    p.add_argument("--samples", type=int, default=256)
    common(p)

    p = sub.add_parser("thm1", help="prime-degree reducibility verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modulus", type=float, required=True)
    p.add_argument("--index", type=int, required=True)
    common(p)

    p = sub.add_parser("penner", help="entropy and module bounds")
    p.add_argument("--genus", type=int)
    p.add_argument("--marked", type=int)
    p.add_argument("--braid-n", type=int)
    common(p)

    p = sub.add_parser("oka3", help="E0 screen of a torus-with-hole B3 monodromy")
    p.add_argument("--hom", required=True, help="SurfaceHom JSON file")
    p.add_argument("--mirrored", action="store_true",
                   help="use the mirrored E0 variant")
    p.add_argument("--both-variants", action="store_true",
                   help="report both E0 variants and whether they agree")
    common(p)

    p = sub.add_parser("go-surface", help="Gromov-Oka verdict of an F2 monodromy")
    p.add_argument("--hom", required=True, help="SurfaceHom JSON file")
    common(p)

    p = sub.add_parser("eprime", help="the E' test set of a surface")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--holes", type=int, required=True)
    p.add_argument("--list", action="store_true")
    common(p)

    p = sub.add_parser("lattice-branch", help="branch locus of a lattice")
    p.add_argument("--alpha", default="1,0", help="complex as re,im")
    p.add_argument("--tau", required=True, help="complex as re,im")
    p.add_argument("--radius", type=int, default=lattice.DEFAULT_RADIUS)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--path-end", help="trace tau linearly to this re,im value")
    p.add_argument("--path-steps", type=int, default=16)
    common(p)

    return parser


_HANDLERS = {
    "classify": cmd_classify,
    "entropy": cmd_entropy,
    "module": cmd_module,
    "eq": cmd_eq,
    "nf": cmd_nf,
    "linking": cmd_linking,
    "conj": cmd_conj,
    "scan-commutators": cmd_scan_commutators,
    "disc-index": cmd_disc_index,
    "thm1": cmd_thm1,
    "penner": cmd_penner,
    "oka3": cmd_oka3,
    "go-surface": cmd_go_surface,
    "eprime": cmd_eprime,
    "lattice-branch": cmd_lattice_branch,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (BraidokaError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"schema": SCHEMA_VERSION, "error": str(exc),
                          "errorType": type(exc).__name__}), file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
