"""braidoka: exact braid-group computations, 3-braid Nielsen-Thurston
classification, entropy and conformal module, Gromov-Oka decision
procedures, and numerical Weierstrass branch loci.

Importing the package loads none of its modules.  Each one is registered
in `sys.modules` as a lazy module (`importlib.util.LazyLoader`) and is
compiled and run when an attribute of it is first read, so a `braidoka`
subcommand loads only the modules it runs.  The public names resolve
through `_NAMES`, the package surface, one row per module.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_NAMES = {
    "_backend": ("BACKEND",),
    "_word": ("BraidWord", "exponent_sum"),
    "braid": ("GarsideNormalForm", "LinkingNumbers", "braid_eq", "delta", "linking_numbers",
              "normal_form", "permutation"),
    "families": ("IndexReport", "LaurentFamily", "discriminant_from_coeffs",
                 "discriminant_index", "nbraid_entropy_lower", "nbraid_module_upper",
                 "penner_bound", "thm1_verdict"),
    "lattice": ("BranchLocus", "LatticeSpec", "branch_locus", "e_values", "ode_residual",
                "wp", "wp_prime"),
    "oka": ("EPrimeSet", "SurfaceHom", "SurfaceSignature", "e0_set", "eprime_generate",
            "go_surface_decide", "oka3_decide"),
    "perms": ("Permutation", "abelian_transitive_generator", "lemma5_generators"),
    "sl2z": ("SL2Matrix", "parabolic_normal_form", "sl2z_conjugate", "theta"),
    "three": ("ThreeBraidClass", "classify3", "centralizer_check", "conformal_module3",
              "conj3", "entropy3", "zero_entropy_commutator_scan"),
    "words": ("FreeWord", "free_conjugate", "is_conjugate_into_peripheral", "primitive_root"),
}

_HOME = {name: module for module, names in _NAMES.items() for name in names}

# every submodule but cli, which `python -m braidoka.cli` must find unregistered
_MODULES = ("errors", "_value", "_theta", "_purekernels", *_NAMES)

__all__ = [*_HOME, *(m for m in _MODULES if not m.startswith("_"))]


def _register(module: str) -> None:
    name = f"{__name__}.{module}"
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[name] = lazy
    loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _MODULES:
    _register(_module)
del _module


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
