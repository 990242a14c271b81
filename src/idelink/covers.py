"""Finite abelian covers of link complements and their symbol calculus.

A cover is a homomorphism from H1(M - L) to a finite abelian group given by
its values on the generators (surgery meridians, then link meridians); it is
well defined exactly when every presentation relation maps to zero. The
global symbol of an idele is the image of its reassembled class; the local
symbol at a knot is the image of a single peripheral class. Decomposition
data at a knot mirrors ramification theory: e is the order of the meridian
image, e*f the order of the image of the whole boundary torus, g the index
of that image in the target.

A Kummer cover of modulus n attached to a principal divisor is the unique
(at admissible stages) homomorphism to Z/n whose symbol computes the global
pairing against the divisor's principal idele.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abelian import FgAbelianGroup
from .errors import (
    BadDimensions,
    BadInput,
    BadModulus,
    CoverIllDefined,
    KnotOutsideLink,
    NotAdmissible,
)
from .linalg import IntMatrix, hstack
from .local import ComplementHomology, PeripheralClass, complement_homology, local_intersection
from .ideles import Divisor, Idele, delta_solution, idele_coords

__all__ = [
    "FiniteAbelianGroup",
    "CoverSpec",
    "DecompositionData",
    "KummerCover",
    "make_cover",
    "global_symbol",
    "local_symbol",
    "decomposition_data",
    "kummer_cover",
    "hilbert_symbol",
]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z/n_i with n_i >= 1; elements are residue tuples."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(n < 1 for n in self.orders):
            raise BadInput("cyclic orders must be positive")

    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def reduce(self, vec) -> tuple[int, ...]:
        if len(vec) != len(self.orders):
            raise BadDimensions("element length disagrees with the number of cyclic factors")
        return tuple(int(v) % n for v, n in zip(vec, self.orders))

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def element_order(self, a) -> int:
        a = self.reduce(a)
        n = 1
        for x, d in zip(a, self.orders):
            step = d // gcd(d, x)
            n = n * step // gcd(n, step)
        return n

    def subgroup_order(self, generators) -> int:
        """Order of the subgroup generated by the given elements."""
        gens = [list(self.reduce(g)) for g in generators]
        t = len(self.orders)
        diag = IntMatrix.from_rows(
            [[self.orders[i] if i == j else 0 for j in range(t)] for i in range(t)]
        ) if t else IntMatrix(0, 0, ())
        if gens:
            rel = hstack(diag, IntMatrix.from_columns(gens, rows=t))
        else:
            rel = diag
        quotient = FgAbelianGroup(t, rel).order()
        if quotient is None:
            raise ArithmeticError("a quotient of a finite group came out infinite")
        return self.order() // quotient

    def is_surjective(self, generators) -> bool:
        return self.subgroup_order(generators) == self.order()


class CoverSpec:
    """A finite abelian cover of the complement of a sublink.

    ``values[j]`` is the image of the j-th generator of H1(M - L) in the
    target group; generator order is surgery components first, then the
    sublink's knots, both in declared order.
    """

    def __init__(self, complement: ComplementHomology, target: FiniteAbelianGroup, values):
        self.complement = complement
        self.target = target
        self.values = tuple(target.reduce(v) for v in values)
        if len(self.values) != complement.group.generator_count:
            raise BadDimensions(
                f"{complement.group.generator_count} generator values required, "
                f"got {len(self.values)}"
            )

    @property
    def link(self) -> tuple[str, ...]:
        return self.complement.link

    @property
    def manifold(self):
        return self.complement.manifold

    def apply(self, coords) -> tuple[int, ...]:
        """Image of a coordinate vector; constant on relation cosets by validation."""
        out = [0] * len(self.target.orders)
        for c, val in zip(coords, self.values):
            if c:
                for i, v in enumerate(val):
                    out[i] += c * v
        return self.target.reduce(out)

    def meridian_image(self, knot: str) -> tuple[int, ...]:
        return self.apply(self.complement.meridian_coords(knot))

    def longitude_image(self, knot: str) -> tuple[int, ...]:
        return self.apply(self.complement.longitude_coords(knot))

    def is_surjective(self) -> bool:
        return self.target.is_surjective(list(self.values))

    def to_dict(self) -> dict:
        return {
            "branch_link": list(self.link),
            "target": list(self.target.orders),
            "phi": [list(v) for v in self.values],
        }

    @staticmethod
    def from_dict(manifold, data) -> "CoverSpec":
        if not isinstance(data, dict):
            raise BadInput("cover must be a JSON object")
        try:
            link = [str(k) for k in data["branch_link"]]
            orders = [int(n) for n in data["target"]]
            values = [[int(x) for x in row] for row in data["phi"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadInput(f"malformed cover: {exc}") from exc
        comp = complement_homology(manifold, link)
        return make_cover(comp, FiniteAbelianGroup(tuple(orders)), values)


def make_cover(comp: ComplementHomology, target: FiniteAbelianGroup, values) -> CoverSpec:
    """Validate generator values into a well-defined cover.

    Raises CoverIllDefined when some presentation relation has nonzero image.
    """
    cover = CoverSpec(comp, target, values)
    rel = comp.relations
    for j in range(rel.cols):
        image = cover.apply(rel.column(j))
        if image != target.identity():
            raise CoverIllDefined(
                f"relation {j} maps to {list(image)}, not zero, in the target"
            )
    return cover


def global_symbol(a: Idele, cover: CoverSpec) -> tuple[int, ...]:
    """Image of the reassembled idele under the cover homomorphism."""
    return cover.apply(idele_coords(cover.complement, a))


def local_symbol(a: PeripheralClass, cover: CoverSpec) -> tuple[int, ...]:
    """Image of one peripheral class under the cover homomorphism."""
    if a.knot not in cover.link:
        raise KnotOutsideLink(f"knot {a.knot!r} is outside the cover's sublink")
    return cover.apply(cover.complement.peripheral_coords(a))


@dataclass(frozen=True)
class DecompositionData:
    """Splitting pattern of a knot in a finite abelian cover.

    ramification_index is the order of the meridian image, residue_degree
    the covering degree of each boundary component over the knot divided by
    the ramification, component_count the index of the boundary-torus image
    in the target (the number of components over the knot when the cover is
    connected).
    """

    ramification_index: int
    residue_degree: int
    component_count: int


def decomposition_data(cover: CoverSpec, knot: str) -> DecompositionData:
    if knot not in cover.link:
        raise KnotOutsideLink(f"knot {knot!r} is outside the cover's sublink")
    mu = cover.meridian_image(knot)
    l0 = cover.longitude_image(knot)
    e = cover.target.element_order(mu)
    boundary_image = cover.target.subgroup_order([mu, l0])
    return DecompositionData(
        ramification_index=e,
        residue_degree=boundary_image // e,
        component_count=cover.target.order() // boundary_image,
    )


@dataclass(frozen=True)
class KummerCover:
    """A Kummer cover with its branch locus and defining principal idele."""

    cover: CoverSpec
    branch_locus: tuple[str, ...]
    boundary_idele: Idele


def kummer_cover(comp: ComplementHomology, divisor: Divisor, modulus: int) -> KummerCover:
    """The Z/modulus cover whose symbol is the pairing against the divisor's idele.

    Requires the stage to be admissible (the sublink's knot classes generate
    H1(M)); then the defining property determines the cover uniquely: the
    values are -t_j on surgery meridians and the divisor coefficients on
    link meridians, where t is the 2-chain solution for the divisor.
    """
    if modulus < 2:
        raise BadModulus(f"modulus must be at least 2, got {modulus}")
    man = comp.manifold
    if not man.generates_h1(comp.link):
        raise NotAdmissible(
            "the sublink's knot classes do not generate H1(M); "
            "the pairing does not factor through a cover of this stage"
        )
    t, boundary = delta_solution(comp, divisor)
    target = FiniteAbelianGroup((modulus,))
    values = [(-tj % modulus,) for tj in t]
    values += [(divisor.coefficient(k) % modulus,) for k in comp.link]
    cover = make_cover(comp, target, values)
    branch = tuple(k for k in comp.link if divisor.coefficient(k) % modulus != 0)
    return KummerCover(cover=cover, branch_locus=branch, boundary_idele=boundary)


def hilbert_symbol(a: Idele, b: Idele, knot: str, modulus: int) -> int:
    """Local intersection of two idele components at one knot, mod modulus."""
    if modulus < 2:
        raise BadModulus(f"modulus must be at least 2, got {modulus}")
    return local_intersection(a.component(knot), b.component(knot)) % modulus
