import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidoka.cli import main


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


def test_go_surface_rejects_extra_generators(tmp_path, capsys):
    hom = {"genus": 1, "holes": 1, "target": "F2", "images": {"e1": "a3", "e2": "a3^2"}}
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(hom))
    assert main(["go-surface", "--hom", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["errorType"] == "ValueError" and "a3" in err["error"]


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
}

# (arguments, exit code) for every subcommand: a positive or neutral call,
# and one call for each negative verdict the subcommand can give
CASES = {
    "classify": [(["--braid", "1 -2"], 0)],
    "entropy": [(["--braid", "1 -2"], 0)],
    "module": [(["--braid", "1 2"], 0)],
    "eq": [(["--a", "1 2 1", "--b", "2 1 2"], 0), (["--n", "3", "--a", "1", "--b", "2"], 2)],
    "nf": [(["--braid", "1 2 -1", "--n", "4"], 0)],
    "linking": [(["--braid", "1 1", "--n", "3"], 0)],
    "conj": [(["--a", "1", "--b", "2"], 0), (["--a", "1 1", "--b", "2"], 2)],
    "scan-commutators": [(["--maxlen", "2"], 0)],
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
                   (["--hom", "{f2_not_go}"], 2),
                   (["--hom", "{f2_antiholomorphic}"], 2)],
    "eprime": [(["--genus", "1", "--holes", "1", "--list"], 0)],
    "lattice-branch": [(["--tau", "0,1", "--radius", "20"], 0),
                       (["--tau", "0,1", "--radius", "20", "--csv"], 0),
                       (["--tau", "0,1", "--path-end", "0,2", "--path-steps", "2",
                         "--radius", "20", "--csv"], 0)],
}


def test_cases_cover_every_subcommand(capsys):
    assert main(["--help"]) == 0
    listed = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out).group(1)
    assert sorted(listed.split(",")) == sorted(CASES)


@pytest.mark.parametrize("sub", list(CASES))
def test_subcommand_output_and_exit_code(sub, tmp_path, capsys):
    assert main([sub, "--help"]) == 0
    assert f"usage: braidoka {sub}" in capsys.readouterr().out
    files = {}
    for name, obj in FILES.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(obj))
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
            payload = json.loads(captured.out)
            assert next(iter(payload)) == "schema", argv


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
    code = main(["eq", "--n", "3", "--a", "1", "--b", "1 2 3 4"])  # letter beyond B_3
    assert code == 1


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
