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

Lambda is eliminated once per manifold: ``load_and_validate`` takes the
fraction-free LU that ``h1.block_lu`` keeps, and every later solve replays
it. |det Lambda| has one spelling, ``h1.modulus``, which every reader
takes. Per-knot data is computed once. ``Manifold.knot_solution`` solves
Lambda t = D * ell_K^T on that LU, D = ``h1.modulus``, and keeps t_K with
the order D / gcd(D, t_K) of [K] per knot name. ``knot_order``, the
principal divisors Y that the admissibility certificate reads, the
preferred longitude (``local``), the divisor map and the principal lattice
(``ideles``) all read it, so a knot costs one solve per manifold. An
unknown name raises on every call; nothing is cached for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .abelian import FgAbelianGroup, GroupElement
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
from .linalg import IntMatrix, kernel_mod, smith_diagonal_mod, smith_normal_form, solve_rational

__all__ = [
    "SurgeryPresentation",
    "Manifold",
    "AdmissibilityCertificate",
    "KnotSolution",
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
            label = f"{what} entry"
            rows = [[v if v.__class__ is int else json_int(v, label) for v in row] for row in rows]
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
    """Witness for whether the knot classes generate H1(M), read off the principal divisors Y.

    When admissible, ``expressions`` writes one generator of each nontrivial
    invariant factor of H1(M) as an integer combination of knot classes,
    reduced against Y, and the certificate is truthy. Otherwise it is falsy,
    ``expressions`` is None and ``subgroup_factors`` gives the invariant
    factors of the proper subgroup G = Z^l / Y the knot classes generate.
    """

    expressions: tuple[dict, ...] | None
    subgroup_factors: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.expressions is not None


@dataclass(frozen=True)
class KnotSolution:
    """The solve of one knot against the manifold's LU of Lambda.

    ``t`` solves Lambda t = D * ell_K^T with D = |det Lambda| =
    ``h1.modulus``, and ``order`` is D / gcd(D, t), the order of the knot's
    class in H1(M).
    """

    t: tuple[int, ...]
    order: int


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
        self.h1 = FgAbelianGroup(presentation.surgery_matrix)
        self._knot_solutions: dict[str, KnotSolution] = {}

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

    def knot_solution(self, name: str) -> KnotSolution:
        """t_K and the order of [K], computed on the first call for the knot and kept.

        t_K is ``h1.block_lu.solve(ell_K)``, so Lambda t_K = D * ell_K^T with
        D = |det Lambda| = ``h1.modulus``, and [K] = t_K / D in
        Lambda^-1 Z^s / Z^s. Raises UnknownKnot on every call for an
        undeclared name.
        """
        solved = self._knot_solutions.get(name)
        if solved is None:
            ell = self.presentation.lk_with_surgery.row(self.knot_index(name))
            t, d = self.h1.block_lu.solve(ell), self.h1.modulus
            solved = self._knot_solutions[name] = KnotSolution(t, d // gcd(d, *t))
        return solved

    def knot_order(self, name: str) -> int:
        """Order of the knot's class in H1(M), read off ``knot_solution``."""
        return self.knot_solution(name).order

    def linking_number(self, a: str, b: str) -> Fraction:
        """Exact rational linking number of two distinct marked knots in M."""
        from fractions import Fraction

        i, j = self.knot_index(a), self.knot_index(b)
        if i == j:
            raise SelfLinking(f"linking number of {a!r} with itself is not defined")
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

    def knot_quotient(self, link) -> FgAbelianGroup:
        """H1(M) modulo the subgroup G that a sublink's knot classes generate.

        Its cached ``hermite_basis`` W is the Hermite basis of span(ell_K) +
        Lambda Z^s, the lattice whose quotient by Lambda Z^s is G, reduced from
        H1's cached Hermite basis plus the knot rows. ``generates_h1`` and a
        stage's ``cokernel`` read it; the certificate reads G off Y instead.
        """
        return self.h1.quotient(self.knot_class(k).coords for k in self.sublink(link))

    def generates_h1(self, link) -> bool:
        """Certificate-free version of admissibility for a sublink's classes."""
        return self.knot_quotient(link).is_trivial()

    def principal_divisors(self, link) -> list[list[int]]:
        """Hermite basis of the principal divisors Y on a sublink of l knots.

        Y = {c in Z^l : sum_K c_K ell_K in Lambda Z^s} holds exactly the
        divisors ``ideles.delta_from_divisor`` accepts. As Lambda t_K =
        |det Lambda| ell_K, Y = {c : sum_K c_K t_K = 0 mod |det Lambda|}, a
        congruence kernel: l rows, row j's pivot in column j.
        """
        return kernel_mod([self.knot_solution(k).t for k in self.sublink(link)], self.h1.modulus)

    def admissibility_of(self, link) -> AdmissibilityCertificate:
        """Certificate for the subgroup G = Z^l / Y of H1(M) a sublink's classes generate.

        |G| is the product of the pivots of the principal divisors Y, and G
        is H1(M) exactly when |G| = |det Lambda|. Otherwise G's invariant
        factors are Y's Smith diagonal mod |G|. When admissible, U R V = D
        is the Smith form of R = Y^T; column i of U^-1 generates the i-th
        invariant factor, and U^-1 D = R V makes it R (column i of V) / d_i,
        in knot coordinates, so U is never inverted. Reduced against Y's
        rows, it is canonical.
        """
        link = self.sublink(link)
        y = self.principal_divisors(link)
        order = prod(row[j] for j, row in enumerate(y))
        if order != self.h1.modulus:
            factors = smith_diagonal_mod(y, len(link), order)
            return AdmissibilityCertificate(None, tuple(x for x in factors if x != 1))
        rel = IntMatrix.from_columns(y, rows=len(link))
        snf = smith_normal_form(rel)
        expressions = []
        for i, d in enumerate(snf.diagonal):
            if d != 1:
                scaled = rel.mul_vector(snf.v.column(i))
                if any(x % d for x in scaled):
                    raise ArithmeticError("Smith transforms do not diagonalize the principal divisors")
                gen = [x // d for x in scaled]
                for j, row in enumerate(y):
                    q = gen[j] // row[j]
                    if q:
                        gen = [x - q * v for x, v in zip(gen, row)]
                expressions.append({k: c for k, c in zip(link, gen) if c})
        return AdmissibilityCertificate(tuple(expressions), None)


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
    # |det Lambda| is the modulus of H1(M): the LU of Lambda that every solve reads is taken here
    if manifold.h1.modulus is None:
        raise NotQHS3("surgery matrix is singular")
    return manifold
