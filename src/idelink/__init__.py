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

Every name in ``__all__`` is resolved from its home module on first use and
then cached here, so ``import idelink`` loads no submodule, and a command-line
call loads only the layers its subcommand needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module of every exported name
_EXPORTS = {
    "abelian": ("FgAbelianGroup", "GroupElement", "element_order", "subgroup_invariant_factors"),
    "covers": (
        "CoverSpec",
        "DecompositionData",
        "KummerCover",
        "decomposition_data",
        "global_symbol",
        "hilbert_symbol",
        "kummer_cover",
        "local_symbol",
        "make_cover",
    ),
    "errors": (
        "AsymmetricMatrix",
        "BadDimensions",
        "BadInput",
        "BadModulus",
        "CoverIllDefined",
        "DivisorNotPrincipal",
        "DuplicateName",
        "IdelinkError",
        "KnotOutsideLink",
        "MismatchedKnot",
        "NotAdmissible",
        "NotQHS3",
        "SelfLinking",
        "SupportOutsideLink",
        "TooLarge",
        "UnknownKnot",
    ),
    "fuzz": ("FuzzConfig", "Report", "fuzz_suite"),
    "ideles": (
        "ClassGroupData",
        "Divisor",
        "Idele",
        "delta_from_divisor",
        "embed_local",
        "global_pairing",
        "idele_class_group",
        "idele_coords",
        "is_principal",
        "principal_lattice_basis",
        "rho_tilde",
    ),
    "linalg": (
        "FractionFreeLU",
        "IntMatrix",
        "SmithForm",
        "determinant",
        "hstack",
        "integer_kernel",
        "preimage_lattice",
        "smith_normal_form",
        "solve_integer",
        "solve_mod_subgroup",
        "solve_rational",
    ),
    "local": (
        "ComplementHomology",
        "LongitudeData",
        "PeripheralClass",
        "complement_homology",
        "local_intersection",
        "preferred_longitude",
        "valuation",
    ),
    "presentation": (
        "AdmissibilityCertificate",
        "KnotSolution",
        "Manifold",
        "SurgeryPresentation",
        "load_and_validate",
        "presentation_from_dict",
        "presentation_to_dict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
