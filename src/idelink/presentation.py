"""Surgery presentations of rational homology spheres carrying a marked link.

The manifold M is integer surgery on a framed link in the 3-sphere: the
symmetric surgery matrix holds framings on the diagonal and linking numbers
off it. Alongside the surgery link, a finite family of disjoint knots is
declared by its linking data; all later constructions (complements, ideles,
covers) work relative to sublinks of that family.

Conventions fixed here and used by every downstream module:

* H1(M) is generated by the meridians of the surgery components; relation j
  is the j-th row of the surgery matrix.
* The class of a knot K in H1(M) is sum_j lk(K, L_j) * m_j.
* The surgery-corrected linking number of disjoint knots J, K is
  lk(J, K) - ell_J Lambda^{-1} ell_K^T, an exact rational number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbelianGroup, GroupElement, element_order, subgroup_invariant_factors
from .errors import (
    AsymmetricMatrix,
    BadDimensions,
    BadInput,
    DuplicateName,
    NotQHS3,
    SelfLinking,
    UnknownKnot,
    json_int,
    json_names,
)
from .linalg import IntMatrix, smith_normal_form, solve_each_mod_subgroup, solve_rational

__all__ = [
    "SurgeryPresentation",
    "Manifold",
    "AdmissibilityCertificate",
    "load_and_validate",
    "presentation_from_dict",
    "presentation_to_dict",
]


@dataclass(frozen=True)
class SurgeryPresentation:
    """Raw input data: a framed surgery link plus a marked link of knots."""

    surgery_names: tuple[str, ...]
    surgery_matrix: IntMatrix
    knot_names: tuple[str, ...]
    lk_with_surgery: IntMatrix  # one row per knot, one column per surgery component
    lk_mutual: IntMatrix  # symmetric, zero diagonal

    @staticmethod
    def build(surgery_names, surgery_rows, knot_names, lk_with_surgery_rows, lk_mutual_rows):
        s, r = len(surgery_names), len(knot_names)

        def matrix(rows, nrows, ncols, what):
            # entries before shape, so a row like "55" is refused as a non-integer
            rows = [[json_int(v, f"{what} entry") for v in row] for row in rows]
            if len(rows) != nrows or any(len(row) != ncols for row in rows):
                raise BadDimensions(f"{what} must be {nrows}x{ncols}")
            return IntMatrix(nrows, ncols, tuple(v for row in rows for v in row))

        return SurgeryPresentation(
            surgery_names=tuple(surgery_names),
            surgery_matrix=matrix(surgery_rows, s, s, "surgery matrix"),
            knot_names=tuple(knot_names),
            lk_with_surgery=matrix(lk_with_surgery_rows, r, s, "lk_with_surgery"),
            lk_mutual=matrix(lk_mutual_rows, r, r, "lk_mutual"),
        )


def presentation_from_dict(data) -> SurgeryPresentation:
    """Parse the JSON input schema into a SurgeryPresentation.

    Expected shape::

        {"surgery": {"components": [...], "matrix": [[...]]},
         "link": {"components": [...], "lk_with_surgery": [[...]], "lk_mutual": [[...]]}}

    Unknown top-level keys are ignored so annotated instances (for example a
    fuzz failure report) stay loadable.
    """
    if not isinstance(data, dict):
        raise BadInput("input must be a JSON object")
    try:
        surgery = data["surgery"]
        link = data["link"]
        names = json_names(surgery["components"], "surgery components")
        knots = json_names(link["components"], "link components")
        return SurgeryPresentation.build(names, surgery["matrix"], knots, link["lk_with_surgery"], link["lk_mutual"])
    except (KeyError, TypeError) as exc:
        # a missing key, or a matrix or row that is not a list
        raise BadInput(f"malformed presentation: {exc}") from exc
    except ValueError as exc:
        raise BadDimensions(str(exc)) from exc


def presentation_to_dict(p: SurgeryPresentation) -> dict:
    return {
        "surgery": {
            "components": list(p.surgery_names),
            "matrix": p.surgery_matrix.to_rows(),
        },
        "link": {
            "components": list(p.knot_names),
            "lk_with_surgery": p.lk_with_surgery.to_rows(),
            "lk_mutual": p.lk_mutual.to_rows(),
        },
    }


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Witness for whether the knot classes generate H1(M).

    When admissible, ``expressions`` writes one generator of each nontrivial
    invariant factor of H1(M) as an integer combination of knot classes.
    Otherwise ``subgroup_factors`` gives the invariant factors of the proper
    subgroup the knot classes do generate.
    """

    admissible: bool
    expressions: tuple[dict, ...] | None
    subgroup_factors: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.admissible


class Manifold:
    """A validated rational homology sphere with its marked link.

    Use :func:`load_and_validate` to construct one; the constructor assumes
    the presentation already passed every check.
    """

    def __init__(self, presentation: SurgeryPresentation):
        self.presentation = presentation
        self.surgery_names = presentation.surgery_names
        self.knot_names = presentation.knot_names
        self._knot_index = {k: i for i, k in enumerate(self.knot_names)}
        # relation j of H1(M) is row j of the surgery matrix, which is symmetric
        self.h1 = FgAbelianGroup(len(self.surgery_names), presentation.surgery_matrix)

    @property
    def surgery_matrix(self) -> IntMatrix:
        return self.presentation.surgery_matrix

    def knot_index(self, name: str) -> int:
        try:
            return self._knot_index[name]
        except KeyError:
            raise UnknownKnot(f"knot {name!r} was never declared") from None

    def sublink(self, names=None) -> tuple[str, ...]:
        """Canonicalize a sublink selection into declared order."""
        if names is None:
            return self.knot_names
        chosen = set()
        for n in names:
            self.knot_index(n)
            if n in chosen:
                raise DuplicateName(f"knot {n!r} listed twice in sublink")
            chosen.add(n)
        return tuple(k for k in self.knot_names if k in chosen)

    def knot_class(self, name: str) -> GroupElement:
        """The class of the knot in H1(M), in surgery-meridian coordinates."""
        i = self.knot_index(name)
        return self.h1.element(self.presentation.lk_with_surgery.row(i))

    def knot_order(self, name: str) -> int:
        order = element_order(self.knot_class(name))
        if order is None:
            raise ArithmeticError(f"class of {name!r} has infinite order in a finite H1(M)")
        return order

    def linking_number(self, a: str, b: str) -> Fraction:
        """Exact rational linking number of two distinct marked knots in M."""
        from fractions import Fraction

        if a == b:
            raise SelfLinking(f"linking number of {a!r} with itself is not defined")
        i, j = self.knot_index(a), self.knot_index(b)
        mutual = Fraction(self.presentation.lk_mutual[i, j])
        ell_a = self.presentation.lk_with_surgery.row(i)
        ell_b = self.presentation.lk_with_surgery.row(j)
        solved = solve_rational(self.surgery_matrix, ell_b)
        if solved is None:
            raise ArithmeticError("no rational solution against a nonsingular surgery matrix")
        return mutual - sum((Fraction(x) * y for x, y in zip(ell_a, solved)), Fraction(0))

    def is_admissible(self) -> AdmissibilityCertificate:
        """Do the marked knot classes generate H1(M)? Returns a certificate."""
        return self.admissibility_of(self.knot_names)

    def generates_h1(self, link) -> bool:
        """Certificate-free version of admissibility for a sublink's classes."""
        classes = [self.knot_class(k).coords for k in self.sublink(link)]
        return self.h1.quotient(classes).is_trivial()

    def admissibility_of(self, link) -> AdmissibilityCertificate:
        """Certificate for the subgroup of H1(M) generated by a sublink's classes."""
        link = self.sublink(link)
        s = len(self.surgery_names)
        class_vectors = [list(self.presentation.lk_with_surgery.row(self.knot_index(k))) for k in link]
        if not self.generates_h1(link):
            return AdmissibilityCertificate(
                admissible=False,
                expressions=None,
                subgroup_factors=subgroup_invariant_factors(self.h1, class_vectors),
            )
        rel = self.h1.relations
        snf = smith_normal_form(rel)
        # column i of U^-1 generates the i-th invariant factor, and U @ rel @ V = D
        # makes it rel @ (column i of V) / d_i, so U is never inverted
        gens = []
        for i, d in enumerate(snf.diagonal):
            if d != 1:
                scaled = rel.mul_vector(snf.v.column(i))
                if any(x % d for x in scaled):
                    raise ArithmeticError("Smith transforms do not diagonalize the relations")
                gens.append([x // d for x in scaled])
        expressions = []
        if gens:
            gen_matrix = IntMatrix.from_columns(class_vectors, rows=s)
            solved = solve_each_mod_subgroup(gen_matrix, rel, gens)
            if solved is None:
                raise ArithmeticError("knot classes generate H1(M) yet miss an invariant-factor generator")
            expressions = [{k: c for k, c in zip(link, coeffs) if c} for coeffs in solved]
        return AdmissibilityCertificate(
            admissible=True, expressions=tuple(expressions), subgroup_factors=None
        )


def load_and_validate(p: SurgeryPresentation) -> Manifold:
    """Check the presentation invariants and wrap it into a Manifold.

    Raises AsymmetricMatrix, BadDimensions, DuplicateName or NotQHS3.
    """
    s, r = len(p.surgery_names), len(p.knot_names)
    if p.surgery_matrix.rows != s or p.surgery_matrix.cols != s:
        raise BadDimensions(f"surgery matrix must be {s}x{s}")
    if p.lk_with_surgery.rows != r or p.lk_with_surgery.cols != s:
        raise BadDimensions(f"lk_with_surgery must be {r}x{s}")
    if p.lk_mutual.rows != r or p.lk_mutual.cols != r:
        raise BadDimensions(f"lk_mutual must be {r}x{r}")
    if not p.surgery_matrix.is_symmetric():
        raise AsymmetricMatrix("surgery matrix must be symmetric")
    if not p.lk_mutual.is_symmetric():
        raise AsymmetricMatrix("lk_mutual must be symmetric")
    if any(p.lk_mutual[i, i] != 0 for i in range(r)):
        raise AsymmetricMatrix("lk_mutual must have zero diagonal")
    seen = set()
    for name in list(p.surgery_names) + list(p.knot_names):
        if name in seen:
            raise DuplicateName(f"name {name!r} used twice")
        seen.add(name)
    manifold = Manifold(p)
    # |det Lambda| is the modulus of H1(M), so it is computed once, here
    if manifold.h1.modulus is None:
        raise NotQHS3("surgery matrix is singular")
    return manifold
