"""Exact local geometry of Schubert and Richardson varieties in GL_n/B.

The package computes, over the rationals and without any floating point,
the local invariants (Krull dimension, tangent-space dimension,
smoothness, Hilbert-Samuel multiplicity, H-polynomial) of Schubert,
opposite Schubert, and Richardson varieties at points of affine charts on
the complete flag variety, together with the sweeping maps that factor a
chart into a product of cells and a harness that machine-checks the
resulting product laws for those invariants on desk-scale ranges.
"""

from .memo import clear_memos
from .poly import (
    Context,
    DEGLEX,
    DEGREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
)
from .groebner import (
    GroebnerBasis,
    HilbertData,
    IdealGens,
    buchberger,
    contains_one,
    hilbert_numerator,
    ideal_equal,
    krull_dimension,
    local_hilbert_oracle,
    normal_form,
    tangent_cone,
)
from .permutations import (
    KLPolynomial,
    Permutation,
    bruhat_interval,
    bruhat_leq,
    contains_pattern,
    coset_reps,
    kl_polynomial,
    length,
    opposite_rank,
    schubert_rank,
)
from .charts import (
    Chart,
    ChartMatrix,
    generic_matrix,
    identify_cells,
    opposite_ideal_in_chart,
    richardson_ideal_in_chart,
    sample_richardson_point,
    schubert_ideal_in_chart,
)
from .sweep import (
    claim_structure_check,
    eta1,
    eta2,
    eta_on_point,
    recover,
    sweep_images,
)
from .invariants import (
    LocalInvariants,
    local_invariants_at,
    localize,
    opposite_invariants,
    parabolic_invariants,
    richardson_invariants,
    richardson_invariants_at_point,
    schubert_invariants,
    tangent_dim_at,
)
from .verify import (
    VerificationReport,
    product_iso_report,
    schubert_smoothness_table,
    verify_factorization,
    verify_kl_vs_h,
    verify_theorem_at_points,
)

__version__ = "0.1.0"

__all__ = [
    "clear_memos",
    "Context", "MonomialOrder", "Polynomial",
    "LEX", "DEGLEX", "DEGREVLEX",
    "IdealGens", "GroebnerBasis", "HilbertData",
    "buchberger", "normal_form", "ideal_equal", "contains_one",
    "krull_dimension", "hilbert_numerator", "tangent_cone",
    "local_hilbert_oracle",
    "Permutation", "KLPolynomial", "length", "schubert_rank",
    "opposite_rank", "bruhat_leq", "bruhat_interval", "coset_reps",
    "contains_pattern", "kl_polynomial",
    "Chart", "ChartMatrix", "generic_matrix", "schubert_ideal_in_chart",
    "opposite_ideal_in_chart", "richardson_ideal_in_chart",
    "identify_cells", "sample_richardson_point",
    "eta1", "eta2", "sweep_images", "claim_structure_check", "recover",
    "eta_on_point",
    "LocalInvariants", "localize", "tangent_dim_at", "local_invariants_at",
    "schubert_invariants", "opposite_invariants", "richardson_invariants",
    "richardson_invariants_at_point", "parabolic_invariants",
    "VerificationReport", "product_iso_report", "verify_factorization",
    "verify_theorem_at_points", "verify_kl_vs_h", "schubert_smoothness_table",
]
