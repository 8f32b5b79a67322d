"""Census of the package surface: every public name has a user.

The public names are the top-level functions, classes and constants of
`src/braidoka/*.py` whose names do not start with an underscore, and the
public methods of those classes.  A name is used when code refers to it
(not a docstring or comment):

* in a `src/braidoka` module other than `__init__`, outside the name's own
  definition, so `__init__`'s re-export alone and a method that only
  calls itself do not count;
* in `tests/test_acceptance.py`, the paper's acceptance criteria;
* in `perfbench/*.py`, as an identifier or as a string that is exactly
  the name (the tracer names the functions it wraps by string).

Top-level names are matched as identifiers.  A method `C.m` is used only
through an attribute read `.m`: a read through a class (`C.m`,
`mod.C.m`) counts for C alone, and a read through anything else counts
for every class that defines `m`, as the census cannot know an
instance's type.  A bare name, an import alias or a string does not
count for a method.  Every other name needs an entry in `KEEP` with the
reason it stays, a method as "Class.method".  An entry whose name is
gone, or is now used by the package or an acceptance criterion, fails
too.  A perfbench mention does not make an entry stale, so a name kept
only for the tracer can say so.

The package surface is the table `_NAMES` of `braidoka/__init__.py`, one
row of public names per module; the package resolves each name on first
read, and its `__all__` and `__dir__` derive from the table, so there is
no second list to keep in step.
"""

import ast
import importlib
import shutil
from pathlib import Path

import pytest

import braidoka

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "braidoka"

KEEP = {
    "A": "constant: theta(sigma_1), the first generator of the image of B_3",
    "B": "constant: theta(sigma_2), the second generator of the image of B_3",
    "R": "constant: the letter R of the R/L words that rl_factorization returns",
    "L": "constant: the letter L of those words (perfbench's `import braidoka as L` "
         "would count as a use, so the reason is stated here)",
    "LatticeSpec.from_generators": "constructor: the lattice of two generators, normalized",
    "Permutation.transposition": "constructor: the adjacent transposition (i, i+1) of S_n",
    "LinkingNumbers.unordered": "accessor: the linking numbers as a sorted tuple",
    "CommutatorScanReport.contains": "accessor of the scan report, until the "
                                     "one-row-per-image-pair report replaces its "
                                     "pair list (ROADMAP item 7)",
    "free_conjugate": "feature README lists: conjugacy of free words",
    "e0_set": "feature README lists: the five-element screen's test words, "
              "as a fresh list; oka3_decide reads its witness from the same "
              "words, precomputed",
    "abelian_transitive_generator": "feature README lists: the paper's "
                                    "abelian-transitive lemma for prime n",
    "lemma5_generators": "feature README lists: the paper's generator change "
                         "for abelian transitive images in S_3",
    "peripheral_word": "kept on purpose since 0018764: the representative word "
                       "of each peripheral class",
    "rl_factorization": "named by a perfbench span until the package counts its "
                        "own work (ROADMAP item 5)",
}

# the classes whose __post_init__ perfbench/tracing.py wraps to count
# constructions; every other record validates inside its __init__
TRACED_CONSTRUCTORS = {"BraidWord", "Permutation", "SL2Matrix", "FreeWord"}


def _public(name):
    return not name.startswith("_")


def _method_reads(attr, classes):
    """The "Class.method" keys an attribute read may reach: a read through
    a class (`C.m`, `mod.C.m`) reaches C's method alone, any other read the
    method m of every class that defines one."""
    owner = attr.value
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    if name in classes:
        return {f"{name}.{attr.attr}"}
    return {f"{c}.{attr.attr}" for c, methods in classes.items() if attr.attr in methods}


def _refs(node, classes):
    """What code under node uses: the identifiers it reads or imports, and
    the methods its attribute reads may reach."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
            if isinstance(sub.ctx, ast.Load):
                out |= _method_reads(sub, classes)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _units(tree):
    """(names a unit defines, the code it holds) for each top-level
    statement, with each statement of a class body a unit of its own."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield {node.name}, node.bases
            for sub in node.body:
                own = {f"{node.name}.{sub.name}"} if isinstance(sub, ast.FunctionDef) else set()
                yield {node.name} | own, [sub]
        elif isinstance(node, ast.FunctionDef):
            yield {node.name}, [node]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield {t.id for t in targets if isinstance(t, ast.Name)}, [node.value] if node.value else []
        else:
            yield set(), [node]


def _trees(src):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _classes(trees):
    """{name: its public methods} for every class of the package; a private
    class has none on the surface."""
    return {node.name: {s.name for s in node.body if isinstance(s, ast.FunctionDef)
                        and _public(s.name)} if _public(node.name) else set()
            for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}


def _surface(trees, classes):
    """The public top-level functions, classes and constants, and the
    public methods of the public classes as "Class.method"."""
    out = {f"{c}.{m}" for c, methods in classes.items() for m in methods}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in out if _public(n)}


def _package_refs(trees, classes):
    out = set()
    for module, tree in trees.items():
        if module != "__init__":
            for defined, code in _units(tree):
                out |= set().union(*(_refs(c, classes) for c in code)) - defined
    return out


def _perfbench_refs(root, classes):
    out = set()
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= _refs(tree, classes) | {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                                       and isinstance(n.value, str) and n.value.isidentifier()}
    return out


def census(root=ROOT):
    """(public names with no user and no KEEP entry, stale KEEP entries)."""
    trees = _trees(root / "src" / "braidoka")
    classes = _classes(trees)
    surface = _surface(trees, classes)
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    used = _package_refs(trees, classes) | _refs(acceptance, classes)
    unused = sorted(surface - used - _perfbench_refs(root, classes) - set(KEEP))
    stale = sorted(n for n in KEEP if n not in surface or n in used)
    return unused, stale


def test_every_public_name_has_a_user():
    unused, stale = census()
    assert unused == [], f"public names with no user; use, move or delete them, or add to KEEP: {unused}"
    assert stale == [], f"KEEP entries whose name is gone or now used: {stale}"


def test_census_sees_a_name_without_user(tmp_path):
    # a copy of the tree with one unused function, one stale entry and one
    # unused method whose name another class's method is read by
    # (`braid.BraidWord.parse` in cli)
    shutil.copytree(SRC, tmp_path / "src" / "braidoka")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "test_acceptance.py", tmp_path / "tests")
    pkg = tmp_path / "src" / "braidoka"
    words = pkg / "words.py"
    words.write_text(words.read_text() + "\n\ndef spare_word(w):\n    return spare_word(w)\n")
    lattice = pkg / "lattice.py"
    text = lattice.read_text().replace("from_generators", "from_pair")
    spare = "    @staticmethod\n    def parse(text):\n        return text\n\n"
    lattice.write_text(text.replace("    @staticmethod\n    def from_pair", spare + "    @staticmethod\n    def from_pair"))
    assert census(tmp_path) == (["LatticeSpec.from_pair", "LatticeSpec.parse", "spare_word"],
                                ["LatticeSpec.from_generators"])


def test_post_init_only_on_traced_constructors():
    hooked = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(s, ast.FunctionDef) and s.name == "__post_init__" for s in node.body):
                hooked.add(node.name)
    assert hooked == TRACED_CONSTRUCTORS


def test_every_table_name_resolves_to_its_module():
    for module, names in braidoka._NAMES.items():
        home = importlib.import_module(f"braidoka.{module}")
        for name in names:
            assert getattr(braidoka, name) is getattr(home, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'classify4'"):
        braidoka.classify4  # noqa: B018
    assert not hasattr(braidoka, "POLE_TOLERANCE")  # public in lattice, not in the table


def test_dir_and_star_import_list_every_name():
    names = {n for names in braidoka._NAMES.values() for n in names}
    assert names <= set(dir(braidoka))
    assert {"braid", "three", "__version__"} <= set(dir(braidoka))
    scope: dict = {}
    exec("from braidoka import *", scope)
    assert names | {"braid", "three", "errors"} <= set(scope)
    assert all(scope[n] is getattr(braidoka, n) for n in names)
