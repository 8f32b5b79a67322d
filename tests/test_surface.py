"""Census of the package surface: every public name has a user.

The public names are the top-level functions, classes and constants of
`src/braidoka/*.py` whose names do not start with an underscore, and the
public attributes of those classes: each method, each class-level
assignment (a property or a constant) and each annotated field.  A name
is used when code refers to it (not a docstring or comment):

* in a `src/braidoka` module other than `__init__`, outside the name's own
  definition, so `__init__`'s re-export alone and a method or property
  that only calls itself do not count;
* in `tests/test_acceptance.py`, the paper's acceptance criteria;
* in `perfbench/*.py`, as an identifier or as a string that is exactly
  the name (the tracer names the functions it wraps by string).

Top-level names are matched as identifiers.  An attribute `C.m` is used
only through an attribute read `.m`: a read through a class (`C.m`,
`mod.C.m`) counts for C alone, and a read through anything else counts
for every class that defines `m`, as the census cannot know an
instance's type.  A bare name, an import alias or a string does not
count for an attribute, so a field that only `Value`'s generic equality
and repr read is unused.  Every other name needs an entry in `KEEP` with
the reason it stays, an attribute as "Class.attribute".  An entry whose
name is gone, or is now used by the package or an acceptance criterion,
fails too.  A perfbench mention does not make an entry stale, so a name
kept only for the tracer can say so.

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


def _attribute_reads(attr, classes):
    """The "Class.attribute" keys an attribute read may reach: a read
    through a class (`C.m`, `mod.C.m`) reaches C's attribute alone, any
    other read the attribute m of every class that defines one."""
    owner = attr.value
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    if name in classes:
        return {f"{name}.{attr.attr}"}
    return {f"{c}.{attr.attr}" for c, members in classes.items() if attr.attr in members}


def _refs(node, classes):
    """What code under node uses: the identifiers it reads or imports, and
    the class attributes its attribute reads may reach."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
            if isinstance(sub.ctx, ast.Load):
                out |= _attribute_reads(sub, classes)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _defines(node):
    """The names a function, class or (annotated) assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _units(tree):
    """(names a unit defines, the code it holds) for each top-level
    statement, with each statement of a class body a unit of its own."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield {node.name}, node.bases
            for sub in node.body:
                yield {node.name} | {f"{node.name}.{n}" for n in _defines(sub)}, [sub]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield _defines(node), [node.value] if node.value else []
        else:
            yield _defines(node), [node]


def _trees(src):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _classes(trees):
    """{name: its public attributes} for every class of the package: the
    methods, the class-level assignments (a property or a constant) and
    the annotated fields of its body; a private class has none on the
    surface."""
    return {node.name: {n for s in node.body for n in _defines(s) if _public(n)}
            if _public(node.name) else set()
            for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}


def _surface(trees, classes):
    """The public top-level functions, classes and constants, and the
    public attributes of the public classes as "Class.attribute"."""
    out = {f"{c}.{m}" for c, members in classes.items() for m in members}
    for tree in trees.values():
        for node in tree.body:
            out |= _defines(node)
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
    # a copy of the tree with one unused function, one stale entry, one
    # unused method whose name another class's method is read by
    # (`braid.BraidWord.parse` in cli) and one unused class-level property
    # that reads only itself
    shutil.copytree(SRC, tmp_path / "src" / "braidoka")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "test_acceptance.py", tmp_path / "tests")
    pkg = tmp_path / "src" / "braidoka"
    words = pkg / "words.py"
    words.write_text(words.read_text() + "\n\ndef spare_word(w):\n    return spare_word(w)\n")
    lattice = pkg / "lattice.py"
    text = lattice.read_text().replace("from_generators", "from_pair")
    spare = ("    spare = property(lambda self: self.spare)\n\n"
             "    @staticmethod\n    def parse(text):\n        return text\n\n")
    lattice.write_text(text.replace("    @staticmethod\n    def from_pair", spare + "    @staticmethod\n    def from_pair"))
    assert census(tmp_path) == (["LatticeSpec.from_pair", "LatticeSpec.parse", "LatticeSpec.spare",
                                 "spare_word"],
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
