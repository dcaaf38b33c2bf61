"""Exact computation in the quantum K-theory ring of IG(2, 2n).

The package exposes the Schubert-basis index combinatorics, the ring
elements with their closed-form multiplication operators, the Euler
characteristic reconstruction pipeline, the curve-neighborhood calculus,
and an exact-arithmetic geometry oracle used to validate everything.

Each exported name is imported from its submodule on first use, so a
caller loads only what it touches: ``import qkig.ring`` does not load the
geometry oracle.
"""

_EXPORTS = {
    "pairs": """InvalidPairError basis_list bruhat_leq dim_schubert dim_space
        divisor_pair dual_pair fano_index is_valid_pair richardson_dim
        richardson_nonempty seidel_pair unit_pair""",
    "ring": """NormalizedTerm RingElement UnsupportedFamilyError apply_word
        chevalley_q_part_geometric classical_chevalley normalize_extended
        product_C1 product_C2 quantum_chevalley richardson_special_expand
        seidel sign_check special_product""",
    "neighborhoods": """Classification Descriptor classify condition_C1
        condition_C2 condition_L1 deg2_birational_case dim_moduli
        gamma_broken gamma_pair gamma_point_pair q_support_product
        seidel_neighborhood""",
    "chi": """chi_chevalley chi_xuv ideal_to_schubert
        reconstruct_classical_chevalley reconstruct_xuv""",
    "oracle": """GeometryError Plane2 SamplingError bruhat_oracle
        chain2_through dim_intersect dim_sum line_witness membership_suite
        random_isotropic_plane random_point_in_cell richardson_witness""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
_SUBMODULES = ("chi", "cli", "linalg", "neighborhoods", "oracle", "pairs",
               "ring", "verify")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule behind ``name`` on first use (PEP 562)."""
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # binds the submodule in this namespace; unlike importlib.import_module,
    # the builtin also shows the load under -X importtime
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
