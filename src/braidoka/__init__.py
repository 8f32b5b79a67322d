"""braidoka: exact braid-group computations, 3-braid Nielsen-Thurston
classification, entropy and conformal module, Gromov-Oka decision
procedures, and numerical Weierstrass branch loci."""

from ._backend import BACKEND
from .braid import (
    BraidWord,
    GarsideNormalForm,
    LinkingNumbers,
    braid_eq,
    delta,
    exponent_sum,
    linking_numbers,
    normal_form,
    permutation,
)
from .families import (
    IndexReport,
    LaurentFamily,
    discriminant_from_coeffs,
    discriminant_index,
    nbraid_entropy_lower,
    nbraid_module_upper,
    penner_bound,
    thm1_verdict,
)
from .lattice import BranchLocus, LatticeSpec, branch_locus, e_values, ode_residual, wp, wp_prime
from .oka import (
    EPrimeSet,
    SurfaceHom,
    SurfaceSignature,
    e0_set,
    eprime_generate,
    go_surface_decide,
    oka3_decide,
)
from .perms import Permutation, abelian_transitive_generator, lemma5_generators
from .sl2z import SL2Matrix, parabolic_normal_form, sl2z_conjugate, theta
from .three import (
    ThreeBraidClass,
    classify3,
    centralizer_check,
    conformal_module3,
    conj3,
    entropy3,
    zero_entropy_commutator_scan,
)
from .words import (
    FreeWord,
    free_conjugate,
    is_conjugate_into_peripheral,
    primitive_root,
)

__version__ = "0.1.0"
