import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braidoka
from braidoka import __version__, cli, lattice, oka, three
from braidoka.braid import BraidWord
from braidoka.cli import build_parser, main

from nf_reference import reference_normal_form


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_classify(capsys):
    code, payload = run(capsys, "classify", "--braid", "1 -2")
    assert code == 0
    assert payload["kind"] == "pseudoAnosov"
    assert payload["trace"] == 3
    assert abs(payload["entropy"] - math.log((3 + math.sqrt(5)) / 2)) < 1e-12
    assert abs(payload["module"] - math.pi / (2 * payload["entropy"])) < 1e-12
    assert payload["schema"] == "1"


def test_classify_reducible(capsys):
    code, payload = run(capsys, "classify", "--braid", "1 1 1")
    assert code == 0
    assert (payload["kind"], payload["k"], payload["ell"]) == ("reducible", 3, 0)
    assert payload["theta"] == [[1, 3], [0, 1]]
    code, payload = run(capsys, "classify", "--braid", "1 1 1 1 2 1 1 2 1 1 2")
    assert code == 0
    assert (payload["kind"], payload["k"], payload["ell"]) == ("reducible", -1, 2)


def test_classify_trace_beyond_float_range(capsys):
    code, payload = run(capsys, "classify", "--braid", " ".join(["1 -2"] * 400))
    assert code == 0
    assert payload["kind"] == "pseudoAnosov" and payload["trace"] > 10**154
    assert abs(payload["entropy"] - 800 * math.log((1 + math.sqrt(5)) / 2)) < 1e-9


def test_entropy_and_module(capsys):
    code, payload = run(capsys, "entropy", "--braid", "-2 -2 -2 -2 -2 -2 1 2 1 1 2 1")
    assert code == 0 and payload["entropy"] == 0.0
    code, payload = run(capsys, "module", "--braid", "1 2")
    assert code == 0 and payload["infinite"] and payload["module"] is None


def test_eq_exit_codes(capsys):
    code, payload = run(capsys, "eq", "--n", "3", "--a", "1 2 1", "--b", "2 1 2")
    assert code == 0 and payload["equal"]
    code, payload = run(capsys, "eq", "--n", "3", "--a", "1", "--b", "2")
    assert code == 2 and not payload["equal"]


def test_nf(capsys):
    code, payload = run(capsys, "nf", "--braid", "1 2 1", "--n", "3")
    assert code == 0
    assert payload["power"] == 1 and payload["factors"] == []


def test_nf_moves_delta_inverse_markers_through_tau(capsys):
    # four negative runs: the factors meet the Delta^-1 markers an odd and
    # an even number of times, each for a positive and a negative run
    code, payload = run(capsys, "nf", "--braid", "1^-3 2 4 -3 1", "--n", "5")
    ref = reference_normal_form(BraidWord.parse("1^-3 2 4 -3 1", 5))
    assert code == 0 and payload["power"] == ref.power == -3
    assert payload["factors"] == [list(f.images) for f in ref.factors]
    assert payload["canonicalLength"] == 4 and payload["exponentSum"] == -1


def test_linking(capsys):
    code, payload = run(capsys, "linking", "--braid", "1 1", "--n", "3")
    assert code == 0 and payload["tuple"] == [0, 0, 1]
    code, _ = run(capsys, "linking", "--braid", "1", "--n", "3")
    assert code == 1  # not pure: input error


def test_conj(capsys):
    code, payload = run(capsys, "conj", "--a", "1", "--b", "2")
    assert code == 0 and payload["conjugate"]
    code, payload = run(capsys, "conj", "--a", "1 1", "--b", "2")
    assert code == 2


# one pair per theta class, as the CI's installed-script step runs them:
# central, elliptic, parabolic, sigma_1^13 against sigma_1 Delta^4 (equal
# trace and exponent sum, shears 13 and 1), and two hyperbolic words of
# trace 15 and exponent sum 0 whose R/L words do not rotate into each other
@pytest.mark.parametrize("a, b, code", [
    ("1 2 1 1 2 1", "2 1 2 2 1 2", 0),
    ("1 2", "2 1", 0),
    ("1^3", "2^3", 0),
    ("1^13", "1 1 2 1 1 2 1 1 2 1 1 2 1", 2),
    ("1 1 -2 -2 1 -2", "1 1 -2 1 -2 -2", 2),
])
def test_conj_exit_code_per_class(capsys, a, b, code):
    got, payload = run(capsys, "conj", "--a", a, "--b", b)
    assert got == code and payload["conjugate"] == (code == 0)


def test_run_syntax_costs_the_bit_length(capsys):
    t0 = time.perf_counter()
    code, payload = run(capsys, "conj", "--a", "1^1000000000 2", "--b", "2 1^1000000000")
    assert code == 0 and payload["conjugate"]
    big = 10**99 + 7  # 100 digits
    code, payload = run(capsys, "classify", "--braid", f"1^{big} -2")
    assert code == 0 and payload["kind"] == "pseudoAnosov"
    assert payload["trace"] == big + 2 and payload["theta"] == [[big + 1, big], [1, 1]]
    assert payload["exponentSum"] == big - 1
    assert time.perf_counter() - t0 < 0.5


@pytest.fixture
def digit_limit():
    """Set the interpreter's int-to-str digit limit for one test, then
    restore it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


# theta(1^K -2^K) for a 3,000-digit K has entries of about 6,000 digits
_K = "7" * 3000


@pytest.mark.parametrize("braid, error, fragment", [
    (f"1^{_K} -2^{_K}", "ResourceLimit", "the output holds an integer of more digits than the limit of 4300"),
    ("1^" + "7" * 4400 + " -2", "ValueError", "a braid exponent has 4400 digits, more than the limit of 4300"),
], ids=["output", "input"])
def test_integers_beyond_the_digit_limit_are_input_errors(braid, error, fragment, digit_limit, capsys):
    # both once ended in int's own ValueError, which names neither the
    # output nor the token; the limit itself stays
    digit_limit(4300)
    code = main(["classify", "--braid", braid])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 1 and captured.out == ""
    assert err["errorType"] == error and fragment in err["error"]


def test_no_digit_limit_prints_every_integer(digit_limit, capsys):
    digit_limit(0)
    code, payload = run(capsys, "classify", "--braid", f"1^{_K} -2^{_K}")
    assert code == 0 and payload["exponentSum"] == 0
    assert len(str(payload["trace"])) > 4300


def test_nf_refuses_a_run_beyond_the_letter_cap(capsys):
    code = main(["nf", "--braid", "1^1000000000", "--n", "4"])
    err = json.loads(capsys.readouterr().err)
    assert code == 1 and err["errorType"] == "ResourceLimit" and "MAX_LETTERS" in err["error"]


@pytest.mark.parametrize("argv", [
    ["linking", "--braid", "1 1", "--n", "1001"],
    ["nf", "--braid", "1 2 -1", "--n", "1000000"],
    ["eq", "--a", "1", "--b", "1", "--n", "1000000000"],
], ids=["linking", "nf", "eq"])
def test_strand_count_beyond_the_cap_is_refused_at_once(argv, capsys):
    # linking printed n(n-1)/2 pairs (5.1 s and 567 MB at 2,000 strands)
    # and eq built a list of 2n entries; the cap is checked when the word
    # is built, before any of that
    t0 = time.perf_counter()
    code = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert code == 1 and err["errorType"] == "ResourceLimit" and "MAX_STRANDS" in err["error"]
    assert time.perf_counter() - t0 < 0.5


def test_strand_count_at_the_cap_is_accepted(capsys):
    code, payload = run(capsys, "nf", "--braid", "1 2 -1", "--n", "1000")
    assert code == 0 and payload["strands"] == 1000


def test_scan_commutators(capsys):
    code, payload = run(capsys, "scan-commutators", "--maxlen", "2")
    assert code == 0
    assert payload["pairCount"] > 0
    assert any(p["b1"] == [-2, 1] and p["b2"] == [2, -1] for p in payload["pairs"])


def test_disc_index(tmp_path, capsys):
    fam = {"degree": 3, "coeffs": {"0": {"2": [-1.0, 0.0]}}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, payload = run(capsys, "disc-index", "--family", str(path), "--samples", "256")
    assert code == 0 and payload["index"] == 4


def test_disc_index_of_an_all_zero_family_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"degree": 3, "coeffs": {}}))
    assert main(["disc-index", "--family", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["errorType"] == "SeparabilityFailure"


def test_thm1(capsys):
    code, payload = run(capsys, "thm1", "--n", "3", "--modulus", "30", "--index", "6")
    assert code == 0 and payload["verdict"] == "reducible"
    code, payload = run(capsys, "thm1", "--n", "3", "--modulus", "30", "--index", "2")
    assert code == 2 and payload["verdict"] == "inconclusive"


def test_penner(capsys):
    code, payload = run(capsys, "penner", "--genus", "0", "--marked", "4", "--braid-n", "3")
    assert code == 0
    assert payload["penner"] == math.log(2) / 4
    assert abs(payload["moduleUpper"] - 6 * math.pi / math.log(2)) < 1e-9


# both exited 0 with a bound, as 3g - 3 + m > 0 was the only test
@pytest.mark.parametrize("genus, marked", [("-1", "10"), ("5", "-1")])
def test_penner_rejects_a_negative_genus_or_count(genus, marked, capsys):
    assert main(["penner", "--genus", genus, "--marked", marked]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["errorType"] == "SignatureOutOfRange"
    assert f"got ({genus}, {marked})" in error["error"]


def test_oka3(tmp_path, capsys):
    hom = {"genus": 1, "holes": 1, "target": "B3",
           "images": {"e1": "-2 1", "e2": "2 -1"}}
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(hom))
    code, payload = run(capsys, "oka3", "--hom", str(path))
    assert code == 2 and payload["verdict"] == "violation" and payload["witness"] == "e1"

    hom["images"] = {"e1": "1 2", "e2": "1 2 1 2"}
    path.write_text(json.dumps(hom))
    code, payload = run(capsys, "oka3", "--hom", str(path), "--both-variants")
    assert code == 0 and payload["agree"]


def test_go_surface(tmp_path, capsys):
    hom = {"genus": 0, "holes": 3, "target": "F2",
           "images": {"e1": "a1", "e2": "a2"}}
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(hom))
    code, payload = run(capsys, "go-surface", "--hom", str(path))
    assert code == 0 and payload["verdict"] == "sphereHolomorphic"

    hom["images"] = {"e1": "a1", "e2": "a2^-1"}
    path.write_text(json.dumps(hom))
    code, payload = run(capsys, "go-surface", "--hom", str(path))
    assert code == 2


def test_go_surface_reads_the_identity_as_1(tmp_path, capsys):
    # "1" is how the root of an identity image is written, and an image
    # reads it back; the images are the powers of a1, so the verdict is
    # reducible
    path = tmp_path / "hom.json"
    path.write_text(json.dumps({"genus": 0, "holes": 3, "target": "F2",
                                "images": {"e1": "1", "e2": "a1"}}))
    code, payload = run(capsys, "go-surface", "--hom", str(path))
    assert code == 0 and payload["verdict"] == "reducible" and payload["peripheral"] == "a1"


def test_go_surface_rejects_extra_generators(tmp_path, capsys):
    hom = {"genus": 1, "holes": 1, "target": "F2", "images": {"e1": "a3", "e2": "a3^2"}}
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(hom))
    assert main(["go-surface", "--hom", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["errorType"] == "ValueError" and "a3" in err["error"]


def test_disc_index_degree_above_the_cap(tmp_path, capsys):
    # a 60-byte family of degree 5,000: refused before any 5,000 x 5,000
    # determinant; only the float range stopped such a family, and a
    # degree-400 call took 7.1 s to fail on it
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"degree": 5000, "coeffs": {"0": {"0": [1.0, 0.0]}}}))
    t0 = time.perf_counter()
    assert main(["disc-index", "--family", str(path)]) == 1
    assert time.perf_counter() - t0 < 0.5
    captured = capsys.readouterr()
    error = strict_json(captured.err)
    assert captured.out == "" and error["errorType"] == "ResourceLimit"
    assert "MAX_DEGREE = 64" in error["error"]


def test_disc_index_span_above_the_sample_cap(tmp_path, capsys):
    # a 60-byte family whose discriminant spans 300,000 powers of z needs a
    # first pass above MAX_SAMPLES: refused before any sample, where it
    # raised NonConvergence ("no convergence within 1048576 samples")
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"degree": 2, "coeffs": {"0": {"0": [1, 0], "300000": [1, 0]}}}))
    assert main(["disc-index", "--family", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and strict_json(captured.err) == {
        "schema": "1", "errorType": "ResourceLimit",
        "error": "the discriminant's exponent span 300000 needs a first pass of 2097152 "
                 "samples, above MAX_SAMPLES = 1048576"}


def test_go_surface_huge_exponents(tmp_path, capsys):
    # spelling out the letters took 7.9 s at 10^6 and ran out of memory at 10^9
    hom = {"genus": 1, "holes": 1, "target": "F2",
           "images": {"e1": "a1^1000000000", "e2": "a1^-2000000000"}}
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(hom))
    t0 = time.perf_counter()
    code, payload = run(capsys, "go-surface", "--hom", str(path))
    assert time.perf_counter() - t0 < 0.5
    assert code == 0 and payload["verdict"] == "reducible" and payload["root"] == "a1"


def test_eprime(capsys):
    code, payload = run(capsys, "eprime", "--genus", "1", "--holes", "1", "--list")
    assert code == 0 and payload["count"] == 3 and len(payload["elements"]) == 3
    code, payload = run(capsys, "eprime", "--genus", "0", "--holes", "3")
    assert payload["count"] == 7 and "elements" not in payload


def test_lattice_branch_json_and_csv(capsys):
    code, payload = run(capsys, "lattice-branch", "--tau", "0,1", "--radius", "40")
    assert code == 0
    es = [complex(re, im) for re, im in payload["e"]]
    assert abs(sum(es)) < 1e-4

    code, out = run(capsys, "lattice-branch", "--tau", "0,1", "--radius", "40", "--csv")
    assert code == 0
    assert out.splitlines()[0].startswith("e1_re")


def test_lattice_branch_path_json(capsys):
    code, payload = run(capsys, "lattice-branch", "--tau", "0,1", "--path-end", "0,2",
                        "--path-steps", "2")
    assert code == 0
    assert [row["t"] for row in payload["trace"]] == [0.0, 0.5, 1.0]
    for row in payload["trace"]:
        tau = complex(*row["tau"])
        assert tau == complex(0, 1 + row["t"])
        assert row["e"] == lattice.branch_locus(lattice.LatticeSpec(1, tau)).as_dict()["e"]


def test_lattice_branch_path_csv(capsys):
    code, out = run(
        capsys, "lattice-branch", "--tau", "0,1", "--path-end", "0,2",
        "--path-steps", "3", "--radius", "40", "--csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 5


def test_lattice_branch_path_steps_rejected(capsys):
    for steps in ("0", "-1"):
        code = main(["lattice-branch", "--tau", "0,1", "--path-end", "0,2",
                     "--path-steps", steps])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err)["errorType"] == "ValueError"


@pytest.mark.parametrize("option, text", [
    ("--tau", "abc"), ("--tau", "0,x"), ("--alpha", "1,2,3"), ("--path-end", "2"),
])
def test_lattice_branch_names_a_malformed_complex(option, text, capsys):
    # a repeated --tau overrides the valid one; the option table reads the
    # value, so a malformed one is a usage error that names its option
    assert main(["lattice-branch", "--tau", "0,1", f"{option}={text}"]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert captured.out == "" and error["errorType"] == "UsageError"
    assert error["error"] == (
        f"argument {option}: the value must be a complex number as re,im, got {text!r}")


@pytest.mark.parametrize("option", ["--tau", "--alpha", "--path-end"])
def test_negative_complex_reads_in_either_form(option, capsys):
    # the token after an option is its value unless it starts with "--", so
    # "-0.3,1" is read in the space form as in the = form (argparse took it
    # for an option and refused the space form)
    base = ["lattice-branch", "--tau", "0,1"]
    code, payload = run(capsys, *base, option, "-0.3,1")
    assert (code, payload) == run(capsys, *base, f"{option}=-0.3,1")
    assert code == 0
    if option == "--path-end":
        assert payload["trace"][-1]["tau"] == [-0.3, 1.0]
    else:
        assert payload[option[2:]] == [-0.3, 1.0]


def test_lattice_branch_path_steps_capped(monkeypatch, capsys):
    # the cap is checked before the first branch locus is computed
    def refuse(*args):
        raise AssertionError("branch_locus ran")

    monkeypatch.setattr(lattice, "branch_locus", refuse)
    steps = cli._PATH_STEPS_MAX + 1
    code = main(["lattice-branch", "--tau", "0,1", "--path-end", "0,2",
                 "--path-steps", str(steps)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)
    assert error["errorType"] == "ValueError" and "--path-steps" in error["error"]


def test_scan_commutators_negative_maxlen(capsys):
    code = main(["scan-commutators", "--maxlen", "-2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["errorType"] == "ValueError"


def test_out_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, payload = run(capsys, "classify", "--braid", "1 2", "--out", str(out))
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved == payload and saved["kind"] == "periodic"


def test_out_file_under_csv(tmp_path, capsys):
    # --out writes exactly the printed text, CSV included
    for path in ([], ["--path-end", "0,2", "--path-steps", "2"]):
        out = tmp_path / "branch.csv"
        code = main(["lattice-branch", "--tau", "0,1", "--radius", "40", "--csv", *path,
                     "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0 and printed.startswith(("e1_re,", "t,"))
        assert out.read_text() == printed
        out.unlink()


FILES = {
    "family": {"degree": 3, "coeffs": {"0": {"2": [-1.0, 0.0]}}},
    "b3_classified": {"genus": 1, "holes": 1, "target": "B3",
                      "images": {"e1": "1 2", "e2": "1 2 1 2"}},
    "b3_violation": {"genus": 1, "holes": 1, "target": "B3",
                     "images": {"e1": "-2 1", "e2": "2 -1"}},
    "f2_holomorphic": {"genus": 0, "holes": 3, "target": "F2",
                       "images": {"e1": "a1", "e2": "a2"}},
    "f2_antiholomorphic": {"genus": 0, "holes": 3, "target": "F2",
                           "images": {"e1": "a1^-1", "e2": "a2^-1"}},
    "f2_not_go": {"genus": 0, "holes": 3, "target": "F2",
                  "images": {"e1": "a1", "e2": "a2^-1"}},
    # a holomorphic pattern on holes 1, 3 and 4, hole 2 trivial
    "f2_trivial_hole": {"genus": 0, "holes": 4, "target": "F2",
                        "images": {"e1": "a1", "e2": "", "e3": "a2"}},
    # four live boundary monodromies fail at an E' pair
    "f2_four_live": {"genus": 0, "holes": 5, "target": "F2",
                     "images": {"e1": "a1", "e2": "a2", "e3": "a1", "e4": "a2"}},
}

# (arguments, exit code) for every subcommand: a positive or neutral call,
# and one call for each negative verdict the subcommand can give
CASES = {
    "classify": [(["--braid", "1 -2"], 0)],
    "entropy": [(["--braid", "1 -2"], 0)],
    "module": [(["--braid", "1 2"], 0)],
    "eq": [(["--a", "1 2 1", "--b", "2 1 2"], 0), (["--n", "3", "--a", "1", "--b", "2"], 2)],
    "nf": [(["--braid", "1 2 -1", "--n", "4"], 0), (["--braid", "1^-3 2 4 -3 1", "--n", "5"], 0)],
    "linking": [(["--braid", "1 1", "--n", "3"], 0)],
    "conj": [(["--a", "1", "--b", "2"], 0), (["--a", "1 1", "--b", "2"], 2)],
    "scan-commutators": [(["--maxlen", "2"], 0), (["--maxlen", "7"], 0), (["--maxlen", "11"], 0)],
    "disc-index": [(["--family", "{family}", "--samples", "64"], 0)],
    "thm1": [(["--n", "3", "--modulus", "30", "--index", "6"], 0),
             (["--n", "3", "--modulus", "30", "--index", "2"], 2)],
    "penner": [(["--genus", "0", "--marked", "4", "--braid-n", "3"], 0)],
    "oka3": [(["--hom", "{b3_classified}"], 0),
             (["--hom", "{b3_violation}"], 2),
             (["--hom", "{b3_violation}", "--mirrored"], 2),
             (["--hom", "{b3_classified}", "--both-variants"], 0),
             (["--hom", "{b3_violation}", "--both-variants"], 2)],
    "go-surface": [(["--hom", "{f2_holomorphic}"], 0),
                   (["--hom", "{f2_trivial_hole}"], 0),
                   (["--hom", "{f2_not_go}"], 2),
                   (["--hom", "{f2_antiholomorphic}"], 2),
                   (["--hom", "{f2_four_live}"], 2)],
    "eprime": [(["--genus", "1", "--holes", "1", "--list"], 0)],
    "lattice-branch": [(["--tau", "0,1", "--radius", "20"], 0),
                       (["--tau", "0,1", "--radius", "20", "--csv"], 0),
                       (["--tau", "0,1", "--path-end", "0,2", "--path-steps", "2",
                         "--radius", "20", "--csv"], 0),
                       (["--alpha", "2,0.5", "--tau", "0.2,1.1", "--radius", "20"], 0)],
}


def test_cases_cover_every_subcommand(capsys):
    assert main(["--help"]) == 0
    listed = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out).group(1)
    assert sorted(listed.split(",")) == sorted(CASES)


def _rows(name):
    """The option rows of subcommand name in the table, without --out."""
    _run, _help, *rows = cli._SUBCOMMANDS[name]
    return rows


def test_cases_cover_every_option():
    # every option a subcommand ships is passed by one of its cases
    # (--out is covered by test_out_file)
    for name in cli._SUBCOMMANDS:
        passed = {a for args, _ in CASES[name] for a in args}
        for option, *_ in _rows(name):
            assert option in passed, (name, option)


def test_radius_help_says_the_output_does_not_depend_on_it(capsys):
    assert main(["lattice-branch", "--help"]) == 0
    assert "the output does not depend on it" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("extra", [[], ["--csv"], ["--path-end", "0.1,1.3", "--path-steps", "3"]])
def test_radius_does_not_change_the_output(extra, capsys):
    # a reduced lattice needs at most 9 rows, so no radius of at least 10
    # can change a result
    outs = set()
    for radius in ([], ["--radius", "10"], ["--radius", "60"], ["--radius", str(10**6)]):
        assert main(["lattice-branch", "--tau", "0.3,0.05", *radius, *extra]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


def test_radius_below_ten_is_an_input_error(capsys):
    for tau in ("0,1", "0.3,0.05"):
        assert main(["lattice-branch", "--tau", tau, "--radius", "9"]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)
        assert captured.out == "" and error["errorType"] == "ValueError"
        assert "--radius" in error["error"]


@pytest.mark.parametrize("tau", ["0,1e-150", "0,1e-170", "0,1e-300"])
def test_tiny_tau_is_pole_proximity(tau, capsys):
    # tau/2 lies within POLE_TOLERANCE of 0; below 1e-162 the division by
    # f**2 once came first and ended in a ZeroDivisionError traceback
    assert main(["lattice-branch", "--tau", tau]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["errorType"] == "PoleProximity"


@pytest.mark.parametrize("csv", [[], ["--csv"]], ids=["json", "csv"])
@pytest.mark.parametrize("alpha", ["1e-200,0", "1e-160,0", "1e160,0"])
def test_extreme_alpha_is_finite_or_an_input_error(alpha, csv, capsys):
    # alpha ** -2 ended in a ZeroDivisionError traceback at 1e-200, in an
    # OverflowError traceback at 1e-160, and printed nan six times at 1e160
    code = main(["lattice-branch", "--tau", "0,1", f"--alpha={alpha}", *csv])
    captured = capsys.readouterr()
    assert "nan" not in captured.out.lower() and "Traceback" not in captured.err
    if alpha == "1e160,0":
        assert code == 0 and captured.err == ""
        if csv:
            header, row = captured.out.splitlines()
            cells = [float(c) for c in row.split(",")]
        else:
            cells = [c for e in strict_json(captured.out)["e"] for c in e]
        assert all(map(math.isfinite, cells)) and max(map(abs, cells)) < 1e-300
    else:
        error = strict_json(captured.err)
        assert code == 1 and captured.out == "" and error["errorType"] == "ValueError"
        assert "too short" in error["error"]


@pytest.mark.parametrize("argv", [
    ["oka3", "--hom", "{b3_classified}", "--mirrored", "--both-variants"],
    ["penner", "--genus", "1", "--braid-n", "3"],
    ["lattice-branch", "--tau", "0,1", "--path-steps", "4"],
], ids=["oka3", "penner", "lattice-branch"])
def test_rejects_options_it_would_ignore(argv, tmp_path, capsys):
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(FILES["b3_classified"]))
    assert main([a.format(b3_classified=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["errorType"] == "UsageError"


def _write_files(tmp_path) -> dict[str, str]:
    """Each of FILES written to tmp_path: {name: path}."""
    files = {}
    for name, obj in FILES.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(obj))
    return files


@pytest.mark.parametrize("sub", list(CASES))
def test_subcommand_output_and_exit_code(sub, tmp_path, capsys):
    assert main([sub, "--help"]) == 0
    assert f"usage: braidoka {sub}" in capsys.readouterr().out
    files = _write_files(tmp_path)
    for args, expected in CASES[sub]:
        argv = [sub, *(a.format(**files) for a in args)]
        # a subparser without a handler would raise here
        assert main(argv) == expected, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        if "--csv" in argv:
            header, *rows = captured.out.splitlines()
            assert rows and all(len(r.split(",")) == header.count(",") + 1 for r in rows)
        else:
            payload = strict_json(captured.out)
            assert next(iter(payload)) == "schema", argv


# every way a command line can fail to read: an unknown or missing
# subcommand, an unknown option (abbreviations included), a stray value, a
# missing value, a flag given a value, a missing required option, a bad
# integer or float, and both oka3 variants at once
_USAGE_ERRORS = [(argv, "UsageError") for argv in (
    [], ["classfy"], ["--braid", "1"], ["classify", "--braid", "1", "--n", "3"],
    ["penner", "--braid", "3"], ["classify", "--braid", "1", "2"], ["classify", "--braid"],
    ["eq", "--a", "--b", "1"], ["lattice-branch", "--tau", "0,1", "--csv=1"], ["classify"],
    ["eq", "--a", "1"], ["nf", "--braid", "1", "--n", "1_0"],
    ["thm1", "--n", "3", "--modulus", "3O", "--index", "6"],
    ["oka3", "--hom", "{b3_classified}", "--mirrored", "--both-variants"],
)]


def test_every_payload_and_error_is_one_line(tmp_path, capsys):
    # one JSON form: every CASES payload on one line, as each error is,
    # whatever its size (the scan at maxlen 11 prints about 5.9 MB)
    files = _write_files(tmp_path)
    for sub, cases in CASES.items():
        for args, _ in cases:
            argv = [sub, *(a.format(**files) for a in args)]
            main(argv)
            out = capsys.readouterr().out
            if "--csv" not in argv:
                assert out.count("\n") == 1 and out.endswith("\n"), argv
                assert json.dumps(strict_json(out)) == out[:-1], argv
    for argv, error in [*_USAGE_ERRORS, (["linking", "--braid", "1"], "NotPure"),
                        (["scan-commutators", "--maxlen=-1"], "ValueError"),
                        (["thm1", "--n", "3", "--modulus", "nan", "--index", "3"], "ValueError")]:
        assert main([a.format(**files) for a in argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert json.dumps(strict_json(captured.err)) == captured.err[:-1], argv
        assert strict_json(captured.err)["errorType"] == error, argv


@pytest.mark.parametrize("argv, name", [
    (["thm1", "--n", "3", "--modulus", "nan", "--index", "3"], "modulus"),
    (["thm1", "--n", "3", "--modulus", "inf", "--index", "3"], "modulus"),
    (["thm1", "--n", "3", "--modulus=-inf", "--index", "3"], "modulus"),
    (["lattice-branch", "--tau", "nan,1.2"], "tau"),
    (["lattice-branch", "--tau", "0,inf", "--csv"], "tau"),
    (["lattice-branch", "--alpha", "inf,0", "--tau", "0,1"], "alpha"),
    (["lattice-branch", "--tau", "0,1", "--path-end", "nan,1", "--radius", "20"], "tau"),
    # integers past the float range once raised OverflowError
    (["penner", "--braid-n", str(10**400)], "--braid-n:"),
    (["penner", "--genus", str(10**400), "--marked", "1"], "--genus/--marked:"),
    (["thm1", "--n", str(10**400 + 1), "--modulus", "1e20", "--index", "0"], "--n:"),
])
def test_non_finite_input_is_an_input_error(argv, name, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = strict_json(captured.err)
    assert error["errorType"] == "ValueError" and name in error["error"]


_FAMILY = {"degree": 3, "coeffs": {"0": {"2": [-1.0, 0.0]}}}
_HOM = {"genus": 1, "holes": 1, "target": "B3", "images": {"e1": "1 2", "e2": "1 2 1 2"}}


# (subcommand, input file text or None for no file, extra arguments):
# malformed input files and out-of-range options that once ended in a Python
# traceback, in an error the input never caused, or in an answer to input
# that int() read too loosely
@pytest.mark.parametrize("sub, text, extra", [
    ("disc-index", json.dumps({"degree": 3}), []),
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2": [-1.0]}}}), []),
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2": "ab"}}}), []),
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2": [-1.0, 0.0, 7]}}}), []),
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2": [math.nan, 0.0]}}}), []),
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2": [math.inf, 0.0]}}}), []),
    ("disc-index", json.dumps({**_FAMILY, "degree": math.inf}), []),
    ("disc-index", json.dumps(_FAMILY), ["--samples", "2000000"]),
    ("oka3", json.dumps({k: v for k, v in _HOM.items() if k != "images"}), []),
    ("oka3", json.dumps([1, 2]), []),
    ("oka3", json.dumps({**_HOM, "images": {"e1": [1], "e2": "1 2"}}), []),
    ("oka3", json.dumps({**_HOM, "genus": 1.5}), []),
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2": [-1.0, 0.0], "02": [5.0, 0.0]}}}), []),
    ("oka3", json.dumps({**_HOM, "images": {**_HOM["images"], "a1": "2"}}), []),
    ("go-surface", json.dumps({**_HOM, "target": "F2", "images": {"e1": "a1", "eae2": "a2"}}), []),
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2_0": [-1.0, 0.0]}}}), []),
    ("oka3", json.dumps({**_HOM, "genus": True}), []),
    ("go-surface", json.dumps({**_HOM, "target": "F2", "images": {"e1": "a\u0661", "e2": "a2"}}), []),
    ("eq", None, ["--a", "1_0", "--b", "10"]),
    ("penner", None, ["--braid-n", str(10**400)]),
    ("penner", None, ["--genus", str(10**400), "--marked", "1"]),
    ("thm1", None, ["--n", str(10**400 + 1), "--modulus", "1e20", "--index", "0"]),
    ("disc-index", json.dumps({"degree": 2, "coeffs": {"0": {"0": [1e308, 1e308]}}}), []),
    ("lattice-branch", None, ["--tau=1e-310,1e-310"]),
    # nested deeper than any supported Python's recursion limit, which
    # json.load once met with a RecursionError traceback
    ("disc-index", "[" * 100_000 + "]" * 100_000, []),
    ("go-surface", "[" * 100_000 + "]" * 100_000, []),
    # JSON true passed for the number 1 in a coefficient
    ("disc-index", json.dumps({"degree": 3, "coeffs": {"0": {"2": [True, False]}}}), []),
], ids=["no-coeffs", "short-coefficient", "text-coefficient", "long-coefficient",
        "nan-coefficient", "infinite-coefficient", "infinite-degree", "samples-above-cap",
        "no-images", "bare-list", "list-image", "fractional-genus",
        "two-keys-one-power", "a-image-key", "stacked-image-key",
        "underscore-power-key", "bool-genus", "non-ascii-digit", "underscore-letter",
        "huge-braid-n", "huge-genus", "huge-n", "overflowing-discriminant", "subnormal-tau",
        "deep-family", "deep-hom", "bool-coefficient"])
def test_malformed_input_is_one_json_error_line(sub, text, extra, tmp_path):
    # run as a process: an uncaught exception also exits 1, with a traceback
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
        extra = ["--family" if sub == "disc-index" else "--hom", str(path), *extra]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "braidoka.cli", sub, *extra],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert strict_json(line)["errorType"] == "ValueError"


def test_closed_stdout_keeps_the_verdict_and_stderr_quiet():
    # a reader that stops after 10 of about 561 kB, as `| head -c 10` does;
    # the write then fails with EPIPE, which was reported as an input error.
    # The output must outgrow the pipe buffer (64 kB on Linux), so that the
    # write is still open when the reader closes
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidoka.cli", "scan-commutators", "--maxlen", "6"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{"schema":'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_output_is_strict_json(value, monkeypatch, capsys):
    # a non-finite number in any payload is an input error, never NaN or
    # Infinity on stdout
    monkeypatch.setattr(three, "entropy3", lambda b: value)
    assert main(["entropy", "--braid", "1 -2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert strict_json(captured.err)["errorType"] == "ValueError"


def test_eq_infers_one_strand_count(capsys):
    # without --n both words live in the least B_n that holds them both
    code, payload = run(capsys, "eq", "--a", "1 2 1", "--b", "2 1 2 3 -3")
    assert code == 0 and payload["equal"]
    code, payload = run(capsys, "eq", "--a", "1", "--b", "1 2 3 4")
    assert code == 2 and not payload["equal"]
    code, payload = run(capsys, "eq", "--n", "6", "--a", "1 2 1", "--b", "2 1 2 3 -3")
    assert code == 0 and payload["equal"]


def test_usage_error(capsys):
    code = main(["classify"])  # missing --braid
    assert code == 1
    assert "the following arguments are required: --braid" in capsys.readouterr().err
    code = main(["eq", "--n", "3", "--a", "1", "--b", "1 2 3 4"])  # letter beyond B_3
    assert code == 1
    capsys.readouterr()
    for argv in (["classify", "--braid", "1 -2"], ["entropy", "--braid", "1 -2"],
                 ["module", "--braid", "1 2"], ["conj", "--a", "1", "--b", "2"]):
        assert main([*argv, "--n", "3"]) == 1  # B_3 only: no --n
        error = strict_json(capsys.readouterr().err)
        assert error == {"schema": "1", "error": "unrecognized arguments: --n 3",
                         "errorType": "UsageError"}


# one row per integer option: int would read "1_0" as 10, " 2" as 2 and
# other scripts' digits (\u0663 is an Arabic-Indic 3, \uff14 a
# fullwidth 4), which braid words and JSON fields refuse (`_value.read_int`)
_BAD_INT_OPTIONS = [
    (["nf", "--braid", "1 2", "--n", "1_0"], "--n"),
    (["linking", "--braid", "1 1", "--n", " 3"], "--n"),
    (["eq", "--a", "1", "--b", "1", "--n", "\u0663"], "--n"),
    (["scan-commutators", "--maxlen", "\u0663"], "--maxlen"),
    (["disc-index", "--family", "family.json", "--samples", "6_4"], "--samples"),
    (["thm1", "--n", "\uff13", "--modulus", "30", "--index", "6"], "--n"),
    (["thm1", "--n", "3", "--modulus", "30", "--index", "6 "], "--index"),
    (["penner", "--genus", "0_0", "--marked", "4"], "--genus"),
    (["penner", "--genus", "0", "--marked", "\uff14"], "--marked"),
    (["penner", "--braid-n", "+ 3"], "--braid-n"),
    (["eprime", "--genus", "1", "--holes", " 2"], "--holes"),
    (["eprime", "--genus", "1_0", "--holes", "1"], "--genus"),
    (["lattice-branch", "--tau", "0,1", "--radius", "2_0"], "--radius"),
    (["lattice-branch", "--tau", "0,1", "--path-end", "0,2", "--path-steps", "\u0662"],
     "--path-steps"),
]


@pytest.mark.parametrize("argv, option", _BAD_INT_OPTIONS,
                         ids=[f"{a[0]}{o}" for a, o in _BAD_INT_OPTIONS])
def test_integer_options_read_the_package_integer_rule(argv, option, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    text = argv[argv.index(option) + 1]
    error = strict_json(captured.err)
    assert error["errorType"] == "UsageError"
    assert error["error"] == f"argument {option}: the value must be an integer, got {text!r}"


# a float or complex option reads the integer rule's characters too:
# Python's float took "3_0" as 30.0, " 30 " as 30.0 and other scripts' digits
_BAD_NUMBER_OPTIONS = [
    (["thm1", "--n", "3", "--modulus", "3_0", "--index", "6"], "--modulus", "a number"),
    (["thm1", "--n", "3", "--modulus", " 30 ", "--index", "6"], "--modulus", "a number"),
    (["thm1", "--n", "3", "--modulus", "\u0663", "--index", "6"], "--modulus", "a number"),
    (["lattice-branch", "--tau", "0,1_0"], "--tau", "a complex number as re,im"),
    (["lattice-branch", "--tau", "0,1", "--alpha", " 1,0"], "--alpha", "a complex number as re,im"),
    (["lattice-branch", "--tau", "0,1", "--path-end", "0,\uff12"], "--path-end",
     "a complex number as re,im"),
]


@pytest.mark.parametrize("argv, option, what", _BAD_NUMBER_OPTIONS,
                         ids=[f"{a[0]}{o}-{a[a.index(o) + 1]!r}" for a, o, _ in _BAD_NUMBER_OPTIONS])
def test_number_options_read_the_integer_rule_characters(argv, option, what, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = strict_json(captured.err)
    assert error == {"schema": "1", "errorType": "UsageError",
                     "error": f"argument {option}: the value must be {what}, got "
                              f"{argv[argv.index(option) + 1]!r}"}


def test_every_integer_option_has_a_bad_text_row():
    # every typed option, integer, float or complex, has a bad text row
    typed = {(name, row[0]) for name in cli._SUBCOMMANDS for row in _rows(name)
             if row[1] not in (str, bool)}
    assert {row[1] for name in cli._SUBCOMMANDS for row in _rows(name)} == {
        str, bool, cli._float, cli._complex, cli._int}
    assert typed == {(a[0], o) for a, o in _BAD_INT_OPTIONS} | {
        (a[0], o) for a, o, _ in _BAD_NUMBER_OPTIONS}


def test_a_named_subcommand_builds_its_parser_alone(tmp_path, monkeypatch):
    # a call reads the rows of the subcommand it names alone, and
    # build_parser, whatever it is given, returns that same reader
    files = _write_files(tmp_path)
    for command in (None, "classify", "--help", "classfy"):
        assert build_parser(command).parse_args is cli.parse_args
    for name, cases in CASES.items():
        monkeypatch.setattr(cli, "_SUBCOMMANDS", {name: cli._SUBCOMMANDS[name]})
        for args, _ in cases:
            parsed = build_parser().parse_args([name, *(a.format(**files) for a in args)])
            assert parsed.run is cli._SUBCOMMANDS[name][0] and parsed.out is None
            assert set(vars(parsed)) == {"run", "out", *(r[0][2:].replace("-", "_")
                                                         for r in _rows(name))}
        monkeypatch.undo()


def test_version_builds_no_subparser(monkeypatch, capsys):
    # --version reads no row of the table
    monkeypatch.setattr(cli, "_SUBCOMMANDS", {})
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{__version__}\n"


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["classfy"], "argument command: invalid choice: 'classfy'"),
], ids=["missing", "unknown"])
def test_a_missing_or_unknown_subcommand_is_reported_as_command(argv, error, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and strict_json(captured.err)["error"].startswith(error)


def test_reader_rules(capsys):
    # the last of a repeated option wins; a value may start with "-"; the
    # = form takes the rest of the token, "=" and spaces included
    assert run(capsys, "nf", "--n", "5", "--braid=1 2", "--n", "4")[1]["strands"] == 4
    assert run(capsys, "eq", "--a", "-2 1", "--b=-2 1")[1]["equal"]
    assert run(capsys, "classify", "--braid", "1 -2", "--out=" + os.devnull)[0] == 0
    # help lists every option of the table, from any position
    assert main(["lattice-branch", "--tau", "0,1", "-h"]) == 0
    out = capsys.readouterr().out
    assert all(row[0] in out for row in [*_rows("lattice-branch"), cli._OUT])


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["braidoka", "classify", "--braid", "1 2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "periodic"


def test_import_leaves_numpy_unloaded(tmp_path):
    # numpy costs about 0.2 s per CLI call, and nothing in the package needs
    # it: importing, a winding index and a disc-index call all leave it out
    src = Path(__file__).resolve().parents[1] / "src"
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"degree": 3, "coeffs": {"0": {"2": [-1.0, 0.0]}}}))
    code = (
        "import contextlib, io, sys, braidoka, braidoka.cli\n"
        "from braidoka.families import LaurentFamily, discriminant_index\n"
        "assert discriminant_index(LaurentFamily.power_family(3, 2), 64).index == 4\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert braidoka.cli.main(['disc-index', '--family', {str(family)!r}]) == 0\n"
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_dataclasses_and_fractions_unloaded():
    # dataclasses (with inspect, ast, dis and tokenize) cost about 25 ms per
    # CLI call and fractions (with decimal) about 3 ms; the package needs
    # neither at run time
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, braidoka.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_a_call_leaves_argparse_gettext_and_locale_unloaded(tmp_path):
    # argparse, with gettext, cost a call about 1.8 ms of import, and its
    # first message lookup imported locale (0.9 ms); the reader needs none
    src = Path(__file__).resolve().parents[1] / "src"
    files = _write_files(tmp_path)
    argvs = [[sub, *(a.format(**files) for a in CASES[sub][0][0])] for sub in CASES]
    code = (
        "import contextlib, io, json, sys\n"
        "from braidoka import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps([["--version"], ["--help"], *argvs])],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    codes = [0, 0, *(CASES[sub][0][1] for sub in CASES)]
    assert out.stdout.strip() == f"{codes} []"


def test_loading_every_module_leaves_dataclasses_and_fractions_unloaded():
    # `import braidoka.cli` loads no module of the package any more, so the
    # check above reads every one of them here
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, types, braidoka\n"
        "from braidoka import *\n"
        "braidoka._prime._is_prime  # no public name reads _prime\n"
        "mods = [braidoka.__dict__[m] for m in braidoka._MODULES]\n"
        "assert all(type(m) is types.ModuleType for m in mods)\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# One argv of each shape the benchmark's cli workload runs, with every
# module of the package that the call loads.  A module compiles on first
# use, so a subcommand pays only for the code it runs, and a module-level
# import that drags in a module the call does not run fails here.
_CORE = {"_value", "errors"}
_B3 = _CORE | {"_word", "_theta", "sl2z", "three"}  # B_3 by theta: no braid
_LOADS = [
    (["--version"], set()),
    (["classify", "--braid=1 -2"], _B3),
    (["entropy", "--braid=1 -2"], _B3),
    (["module", "--braid=1 2"], _B3),
    (["eq", "--n", "3", "--a=1 2 1", "--b=2 1 2"], _CORE | {"_word", "braid", "_theta"}),
    (["nf", "--braid=1 -2 3", "--n", "4"], _CORE | {"_word", "braid", "perms"}),
    (["linking", "--braid=1 1 2 2", "--n", "4"], _CORE | {"_word", "braid"}),
    (["conj", "--a=1 -2", "--b=-2 1"], _B3),
    (["scan-commutators", "--maxlen", "2"], _B3),
    (["disc-index", "--family", "{family}", "--samples", "64"], _CORE | {"families"}),
    (["thm1", "--n", "3", "--modulus", "30.0", "--index", "3"], _CORE | {"families", "_prime"}),
    (["penner", "--genus", "1", "--marked", "2", "--braid-n", "4"], _CORE | {"families"}),
    (["oka3", "--hom", "{hom}", "--both-variants"], _CORE | {"oka", "words", "_word", "_theta"}),
    (["go-surface", "--hom", "{fhom}"], _CORE | {"oka", "words", "_theta"}),
    (["eprime", "--genus", "1", "--holes", "1", "--list"], _CORE | {"oka", "words", "_theta"}),
    (["lattice-branch", "--tau=0.1,1.2", "--alpha=1,0", "--radius", "60", "--csv"],
     _CORE | {"lattice"}),
    # last, so that its id stands apart: the verdict reads the cheap
    # conditions first, and an index that n does not divide decides no
    # primality
    (["thm1", "--n", "3", "--modulus", "30.0", "--index", "2"], _CORE | {"families"}),
]


@pytest.mark.parametrize("argv, loads", _LOADS,
                         ids=[a[0] for a, _ in _LOADS[:-1]] + ["thm1-undecided"])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, loads, tmp_path):
    # a registered module that has not loaded yet is still a lazy module
    src = Path(__file__).resolve().parents[1] / "src"
    files = {"family": _FAMILY, "hom": _HOM,
             "fhom": {**_HOM, "target": "F2", "images": {"e1": "a1", "e2": "a2"}}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [a.format(**{n: str(tmp_path / f"{n}.json") for n in files}) for a in argv]
    code = (
        "import contextlib, importlib.util, io, json, sys\n"
        "from braidoka import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, [n for n, m in sys.modules.items() if n.startswith('braidoka.')\n"
        "                         and type(m) is not importlib.util._LazyModule]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    exit_code, names = json.loads(out.stdout)
    loaded = {n.removeprefix("braidoka.") for n in names} - {"cli"}
    assert exit_code in (0, 2)
    assert loaded == loads, sorted(loaded)


def test_oka_theta_is_read_from_sl2z_after_an_oka3_call(tmp_path):
    # oka does not import sl2z; its module __getattr__ serves the name that
    # perfbench's namespace test reads, and only that read loads sl2z
    src = Path(__file__).resolve().parents[1] / "src"
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps(_HOM))
    code = (
        "import contextlib, importlib.util, io, sys\n"
        "from braidoka import cli, oka\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['oka3', '--hom', sys.argv[1]])\n"
        "before = type(sys.modules['braidoka.sl2z']) is importlib.util._LazyModule\n"
        "theta = oka.theta\n"
        "from braidoka import sl2z\n"
        "print(before, theta is sl2z.theta, 'theta' in vars(oka))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(hom)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["True", "True", "False"]
    with pytest.raises(AttributeError, match="no attribute 'thetta'"):
        oka.thetta  # noqa: B018


def test_every_module_but_cli_is_registered_lazily():
    src = Path(__file__).resolve().parents[1] / "src" / "braidoka"
    modules = {p.stem for p in src.glob("*.py")} - {"__init__", "cli"}
    assert modules == set(braidoka._MODULES)


@pytest.mark.parametrize("argv", [["--version"], ["classify", "--braid", "1 -2"]])
def test_running_the_cli_module_raises_no_runpy_warning(argv):
    # runpy warns when `braidoka.cli` is in sys.modules before it runs,
    # which a lazy registration of cli in the package would cause
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "braidoka.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
