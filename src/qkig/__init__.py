"""Exact computation in the quantum K-theory ring of IG(2, 2n).

The package exposes the Schubert-basis index combinatorics, the ring
elements with their closed-form multiplication operators, the Euler
characteristic reconstruction pipeline, the curve-neighborhood calculus,
and an exact-arithmetic geometry oracle used to validate everything.
"""

from .pairs import (
    InvalidPairError,
    basis_list,
    bruhat_leq,
    codim_schubert,
    delta,
    dim_schubert,
    dim_space,
    divisor_pair,
    dual_pair,
    fano_index,
    is_valid_pair,
    richardson_dim,
    richardson_nonempty,
    seidel_pair,
    unit_pair,
)
from .ring import (
    NormalizedTerm,
    RingElement,
    UnsupportedFamilyError,
    apply_word,
    chevalley_q_part_geometric,
    classical_chevalley,
    normalize_extended,
    product_C1,
    product_C2,
    quantum_chevalley,
    richardson_special_expand,
    seidel,
    sign_check,
    special_product,
)
from .neighborhoods import (
    Classification,
    Descriptor,
    classify,
    condition_C1,
    condition_C2,
    condition_L1,
    deg2_birational_case,
    dim_moduli,
    gamma_broken,
    gamma_pair,
    gamma_point_pair,
    q_support_product,
    seidel_neighborhood,
)
from .chi import (
    chi_chevalley,
    chi_xuv,
    ideal_to_schubert,
    reconstruct_classical_chevalley,
    reconstruct_xuv,
)
from .oracle import (
    GeometryError,
    Plane2,
    SamplingError,
    bruhat_oracle,
    chain2_through,
    dim_intersect,
    dim_sum,
    gamma3_witness,
    gamma4_witness,
    line_witness,
    membership_suite,
    random_isotropic_plane,
    random_point_in_cell,
    richardson_witness,
)

__version__ = "0.1.0"
