"""Finite abelian covers of link complements and their symbol calculus.

A cover is a homomorphism from H1(M - L) to a finite abelian group given by
its values on the generators (surgery meridians, then link meridians); it is
well defined exactly when every presentation relation maps to zero. The
target is given by its cyclic orders (n_1, ..., n_t): the cover keeps them
and reduces values to residues mod n_i, and every group question goes to
``target``, the FgAbelianGroup Z^t / diag(n_1, ..., n_t). The local
symbol at a knot is the image of a single peripheral class. The global
symbol of an idele is the image of its reassembled class, which is the sum
of its local symbols: x * phi(mu_K) + y * phi(lambda_K) summed over the
idele's parts (x, y) at K, with mu_K and lambda_K the meridian and reference
longitude. Decomposition data at a knot mirrors ramification theory: e is
the order of the meridian image, e*f the order of the image of the whole
boundary torus, g the index of that image in the target.

A cover computes its per-knot data once: ``CoverSpec.knot_images`` keeps
the two images of each knot on first use, and ``decomposition_data`` keeps
each knot's (e, f, g). Both caches hold at most one entry per knot of the
sublink; a knot outside it raises on every call. ``local_symbol`` maps the
peripheral class's full coordinates through ``CoverSpec.apply``, not the
cached images, so the product formula compares two routes.

A Kummer cover of modulus n attached to a principal divisor is the unique
(at admissible stages) homomorphism to Z/n whose symbol computes the global
pairing against the divisor's principal idele. A stage is admissible when
its cached ``cokernel`` H1(M)/G is trivial, so the Kummer covers of one
stage share one quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbelianGroup, element_order
from .errors import (
    BadDimensions,
    BadInput,
    BadModulus,
    CoverIllDefined,
    NotAdmissible,
    json_int,
    json_names,
)
from .linalg import IntMatrix
from .local import ComplementHomology, PeripheralClass, complement_homology, local_intersection
from .ideles import Divisor, Idele, delta_solution

__all__ = [
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


class CoverSpec:
    """A finite abelian cover of the complement of a sublink.

    The target is the product of the cyclic groups Z/n for n in ``orders``
    (each n >= 1). ``values[j]`` is the image of the j-th generator of
    H1(M - L) as residues, one per cyclic factor; generator order is
    surgery components first, then the sublink's knots, both in declared
    order.
    """

    def __init__(self, complement: ComplementHomology, orders, values):
        self.orders = tuple(json_int(n, "cyclic order") for n in orders)
        if any(n < 1 for n in self.orders):
            raise BadInput("cyclic orders must be positive")
        t = len(self.orders)
        diagonal = [[n if i == j else 0 for j in range(t)] for i, n in enumerate(self.orders)]
        self.target = FgAbelianGroup(IntMatrix.from_rows(diagonal))
        self.complement = complement
        self.values = tuple(self.reduce(v) for v in values)
        if len(self.values) != complement.generator_count:
            raise BadDimensions(
                f"{complement.generator_count} generator values required, "
                f"got {len(self.values)}"
            )
        self._knot_images: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._decompositions: dict[str, DecompositionData] = {}

    @property
    def link(self) -> tuple[str, ...]:
        return self.complement.link

    def reduce(self, vec) -> tuple[int, ...]:
        """Residues of a target coordinate vector, one per cyclic factor."""
        if len(vec) != len(self.orders):
            raise BadDimensions("element length disagrees with the number of cyclic factors")
        return tuple(json_int(v, "cover value") % n for v, n in zip(vec, self.orders))

    def apply(self, coords) -> tuple[int, ...]:
        """Image of a coordinate vector; constant on relation cosets by validation."""
        out = [0] * len(self.orders)
        for c, val in zip(coords, self.values):
            if c:
                for i, v in enumerate(val):
                    out[i] += c * v
        return self.reduce(out)

    def knot_images(self, knot: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Images of the knot's meridian and reference longitude, computed on first use and kept.

        Raises on every call, through the stage's ``require``, for an
        undeclared knot or one outside the sublink.
        """
        images = self._knot_images.get(knot)
        if images is None:
            comp = self.complement
            images = (self.apply(comp.meridian_coords(knot)), self.apply(comp.longitude_coords(knot)))
            self._knot_images[knot] = images
        return images

    def meridian_image(self, knot: str) -> tuple[int, ...]:
        return self.knot_images(knot)[0]

    def longitude_image(self, knot: str) -> tuple[int, ...]:
        return self.knot_images(knot)[1]

    def is_surjective(self) -> bool:
        return self.target.quotient(self.values).is_trivial()

    def to_dict(self) -> dict:
        return {
            "branch_link": list(self.link),
            "target": list(self.orders),
            "phi": [list(v) for v in self.values],
        }

    @staticmethod
    def from_dict(manifold, data) -> "CoverSpec":
        if not isinstance(data, dict):
            raise BadInput("cover must be a JSON object")
        try:
            link = json_names(data["branch_link"], "branch_link")
            orders = [json_int(n, "cyclic order") for n in data["target"]]
            values = [[json_int(x, "cover value") for x in row] for row in data["phi"]]
        except (KeyError, TypeError) as exc:
            raise BadInput(f"malformed cover: {exc}") from exc
        comp = complement_homology(manifold, link)
        return make_cover(comp, orders, values)


def make_cover(comp: ComplementHomology, orders, values) -> CoverSpec:
    """Validate generator values into a well-defined cover of the given cyclic orders.

    Raises CoverIllDefined when some presentation relation has nonzero image.
    """
    cover = CoverSpec(comp, orders, values)
    rel = comp.relations
    for j in range(rel.cols):
        image = cover.apply(rel.column(j))
        if any(image):
            raise CoverIllDefined(
                f"relation {j} maps to {list(image)}, not zero, in the target"
            )
    return cover


def global_symbol(a: Idele, cover: CoverSpec) -> tuple[int, ...]:
    """Image of the reassembled idele under the cover homomorphism.

    The sum over the idele's parts (x, y) at K of x * phi(mu_K) + y * phi(lambda_K),
    read off the cover's cached knot images. Raises, through the stage's
    ``require_support``, when the idele has a part at an undeclared knot or
    outside the cover's sublink.
    """
    cover.complement.require_support(a.support)
    total = [0] * len(cover.orders)
    for k, x, y in a.parts:
        mu, l0 = cover.knot_images(k)
        total = [v + x * m + y * g for v, m, g in zip(total, mu, l0)]
    return cover.reduce(total)


def local_symbol(a: PeripheralClass, cover: CoverSpec) -> tuple[int, ...]:
    """Image of one peripheral class under the cover homomorphism."""
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
    """(e, f, g) of the knot in the cover, computed on first use and kept by the cover."""
    data = cover._decompositions.get(knot)
    if data is None:
        mu, l0 = cover.knot_images(knot)
        target = cover.target
        e = element_order(target.element(mu))
        g = target.quotient([mu, l0]).order()
        data = DecompositionData(
            ramification_index=e,
            residue_degree=target.order() // g // e,
            component_count=g,
        )
        cover._decompositions[knot] = data
    return data


@dataclass(frozen=True)
class KummerCover:
    """A Kummer cover with its branch locus and defining principal idele."""

    cover: CoverSpec
    branch_locus: tuple[str, ...]
    boundary_idele: Idele


def kummer_cover(comp: ComplementHomology, divisor: Divisor, modulus: int) -> KummerCover:
    """The Z/modulus cover whose symbol is the pairing against the divisor's idele.

    Requires the stage to be admissible (the sublink's knot classes generate
    H1(M): the stage's ``cokernel`` is trivial); then the defining property
    determines the cover uniquely: the values are -t_j on surgery meridians and the divisor coefficients on
    link meridians, where t is the 2-chain solution for the divisor.
    """
    modulus = json_int(modulus, "modulus")
    if modulus < 2:
        raise BadModulus(f"modulus must be at least 2, got {modulus}")
    if not comp.cokernel.is_trivial():
        raise NotAdmissible(
            "the sublink's knot classes do not generate H1(M); "
            "the pairing does not factor through a cover of this stage"
        )
    t, boundary = delta_solution(comp, divisor)
    values = [(-tj % modulus,) for tj in t]
    values += [(divisor.coefficient(k) % modulus,) for k in comp.link]
    cover = make_cover(comp, (modulus,), values)
    branch = tuple(k for k in comp.link if divisor.coefficient(k) % modulus != 0)
    return KummerCover(cover=cover, branch_locus=branch, boundary_idele=boundary)


def hilbert_symbol(a: Idele, b: Idele, knot: str, modulus: int) -> int:
    """Local intersection of two idele components at one knot, mod modulus."""
    modulus = json_int(modulus, "modulus")
    if modulus < 2:
        raise BadModulus(f"modulus must be at least 2, got {modulus}")
    return local_intersection(a.component(knot), b.component(knot)) % modulus
