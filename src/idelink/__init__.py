"""Exact idelic class field theory for rational homology 3-spheres.

A closed oriented 3-manifold given by integral surgery on a framed link, with
finite first homology, behaves like the ring of integers of a number field:
marked knots play the role of primes, boundary tori of local fields, and
finite abelian covers of extensions. This package computes that dictionary
with exact integer and rational arithmetic, no floats anywhere:

- first homology, rational linking numbers, preferred longitudes;
- ideles (finitely supported peripheral classes), the principal lattice,
  the idele class group, and the divisor map delta;
- the global intersection pairing and its reciprocity law on principal
  ideles, norm residue symbols for finite abelian covers, the product
  formula, decomposition data (e, f, g), Kummer covers, Hilbert symbols;
- a deterministic fuzz harness that rechecks every one of those theorems
  on random presentations and shrinks any counterexample it finds.

Conventions are fixed in the individual module docstrings; the JSON input
schema is documented in ``presentation`` and the README.
"""

from .abelian import FgAbelianGroup, GroupElement, element_order, subgroup_invariant_factors
from .covers import (
    CoverSpec,
    DecompositionData,
    KummerCover,
    decomposition_data,
    global_symbol,
    hilbert_symbol,
    kummer_cover,
    local_symbol,
    make_cover,
)
from .errors import (
    AsymmetricMatrix,
    BadDimensions,
    BadInput,
    BadModulus,
    CoverIllDefined,
    DivisorNotPrincipal,
    DuplicateName,
    IdelinkError,
    KnotOutsideLink,
    MismatchedKnot,
    NotAdmissible,
    NotQHS3,
    SelfLinking,
    SupportOutsideLink,
    UnknownKnot,
)
from .fuzz import FuzzConfig, Report, fuzz_suite
from .ideles import (
    ClassGroupData,
    Divisor,
    Idele,
    delta_from_divisor,
    embed_local,
    global_pairing,
    idele_class_group,
    idele_coords,
    is_principal,
    principal_lattice_basis,
    rho_tilde,
)
from .linalg import (
    IntMatrix,
    SmithForm,
    determinant,
    hstack,
    integer_kernel,
    leading_block_inverse,
    preimage_lattice,
    smith_normal_form,
    solve_integer,
    solve_mod_subgroup,
    solve_rational,
)
from .local import (
    ComplementHomology,
    LongitudeData,
    PeripheralClass,
    complement_homology,
    local_intersection,
    preferred_longitude,
    valuation,
)
from .presentation import (
    AdmissibilityCertificate,
    Manifold,
    SurgeryPresentation,
    load_and_validate,
    presentation_from_dict,
    presentation_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityCertificate",
    "AsymmetricMatrix",
    "BadDimensions",
    "BadInput",
    "BadModulus",
    "ClassGroupData",
    "ComplementHomology",
    "CoverIllDefined",
    "CoverSpec",
    "DecompositionData",
    "Divisor",
    "DivisorNotPrincipal",
    "DuplicateName",
    "FgAbelianGroup",
    "FuzzConfig",
    "GroupElement",
    "Idele",
    "IdelinkError",
    "IntMatrix",
    "KnotOutsideLink",
    "KummerCover",
    "LongitudeData",
    "Manifold",
    "MismatchedKnot",
    "NotAdmissible",
    "NotQHS3",
    "PeripheralClass",
    "Report",
    "SelfLinking",
    "SmithForm",
    "SupportOutsideLink",
    "SurgeryPresentation",
    "UnknownKnot",
    "complement_homology",
    "decomposition_data",
    "delta_from_divisor",
    "determinant",
    "element_order",
    "embed_local",
    "fuzz_suite",
    "global_pairing",
    "global_symbol",
    "hilbert_symbol",
    "hstack",
    "idele_class_group",
    "idele_coords",
    "integer_kernel",
    "is_principal",
    "kummer_cover",
    "leading_block_inverse",
    "load_and_validate",
    "local_intersection",
    "local_symbol",
    "make_cover",
    "preferred_longitude",
    "preimage_lattice",
    "presentation_from_dict",
    "presentation_to_dict",
    "principal_lattice_basis",
    "rho_tilde",
    "smith_normal_form",
    "solve_integer",
    "solve_mod_subgroup",
    "solve_rational",
    "subgroup_invariant_factors",
    "valuation",
]
