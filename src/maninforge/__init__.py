"""Exact-rational toolkit for split quadratic twisted Lie algebras: iterated
doubles and their snake identifications, Yang-Baxter residuals and graded
brackets, stabilizer subalgebra conditions, and the flag-chain correspondence
maps — everything verified over the rationals with zero tolerance."""
from .core import (
    Permutation,
    Rational,
    SparseTensor,
    Subspace,
    subspace_equal,
    tensor_skew_sym_split,
)
from .homlie import (
    HomLieAlgebra,
    check_hom_jacobi,
    check_homomorphism,
    check_involutive,
    check_quadratic,
    check_twist_morphism,
    direct_sum,
)
from .manin import (
    DualBasisPair,
    ManinTriple,
    check_manin_isomorphism,
    check_manin_triple,
    double_from_bialgebra,
    dual_basis,
    hyperbolic_triple,
    lambda_st,
    r_from_splitting,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from .polyuble import (
    nuble,
    snake_permutation,
    uble_of_uble,
    verify_snake_iso,
)
from .rmatrix import (
    RMatrixReport,
    additivity_check,
    check_hom_ad_invariant,
    check_quasi_triangular,
    cyb,
    hcyb,
    hcyb_pairing_check,
    hom_schouten,
)
from .stabilizer import stabilizer_report
from .flagleaf import (
    DoubleLeafIndex,
    GroupElement,
    LeafIndex,
    WeylElement,
    leaf_index_map,
    leaf_index_inverse,
    psi_map,
    psi_stages,
    twisted_coset_equal,
    w0_matrix,
    weyl_longest,
)

__version__ = "0.1.0"
