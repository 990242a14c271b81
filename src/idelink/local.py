"""Peripheral classes on boundary tori and homology of link complements.

For a marked knot K the boundary torus carries the basis (meridian,
reference longitude): the reference longitude is the 0-framed pushoff taken
in the surgery diagram's ambient 3-sphere. A peripheral class is an integer
combination x * meridian + y * longitude; the valuation of that class is y,
and the intersection pairing of two classes is the determinant
x1*y2 - x2*y1, so pairing(meridian, longitude) = +1.

The complement of a sublink L inside M has first homology generated by the
surgery meridians followed by the meridians of the knots in L; relation j
comes from the j-th surgery component. The peripheral table maps, for each
K in L,

* meridian of K to its own generator,
* reference longitude of K to
  sum_j lk(K, L_j) m_j + sum_{K' in L, K' != K} lk(K, K') mu_{K'}.

The relations and the table come from whole presentation rows. Lambda is
symmetric, so its rows lead the relation matrix, and the ``lk_with_surgery``
rows of the knots in L follow. The reference longitude of K is K's row there
followed by K's ``lk_mutual`` row restricted to L, whose zero diagonal
supplies the K' = K entry.
``load_and_validate`` checks the symmetry and the zero diagonal.
``ComplementHomology`` is the stage: it is the group H1(M - L) itself, it
owns this table, and it keeps H1(M)/G, the cokernel of the reassembly map,
so the class group and the Kummer covers of a stage share one.

The preferred longitude of K is the exact generator of the kernel of
H1(boundary torus) -> H1(M - K), sign-normalized to positive longitude
coefficient; its longitude coefficient equals the order of [K] in H1(M).
It has a closed form on the manifold's fraction-free LU of the surgery
matrix Lambda: with ell_K the row of linking numbers of K with the surgery
link, D = |det Lambda| = ``h1.modulus`` and t solving Lambda t = D ell_K^T,

    o_K = D / gcd(D, t),    lambda_K = (o_K * ell_K . t / D, o_K),

that is o_K times the rational kernel class (ell_K Lambda^-1 ell_K^T, 1),
o_K being the least multiple that makes it integral. t and o_K are the
manifold's one solve per knot, ``Manifold.knot_solution``, computed on first
use and kept: ``Manifold.knot_order``, ``preferred_longitude``, the
divisor map ``ideles.delta_solution`` and the principal lattice all read
it, so a knot costs one solve per manifold, and no one-knot complement or
integer kernel is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abelian import FgAbelianGroup, GroupElement
from .errors import KnotOutsideLink, MismatchedKnot, SupportOutsideLink, json_int
from .linalg import FractionFreeLU, IntMatrix
from .presentation import Manifold

__all__ = [
    "PeripheralClass",
    "LongitudeData",
    "ComplementHomology",
    "complement_homology",
    "preferred_longitude",
    "valuation",
    "local_intersection",
]


@dataclass(frozen=True)
class PeripheralClass:
    """x * meridian + y * longitude on the boundary torus of one knot.

    A float, bool or string coefficient raises ``BadInput``.
    """

    knot: str
    meridian: int
    longitude: int

    def __post_init__(self) -> None:
        if self.meridian.__class__ is not int:
            json_int(self.meridian, "meridian coefficient")
        if self.longitude.__class__ is not int:
            json_int(self.longitude, "longitude coefficient")

    def __add__(self, other: "PeripheralClass") -> "PeripheralClass":
        if other.knot != self.knot:
            raise MismatchedKnot(f"cannot add classes at {self.knot!r} and {other.knot!r}")
        return PeripheralClass(self.knot, self.meridian + other.meridian, self.longitude + other.longitude)

    def __sub__(self, other: "PeripheralClass") -> "PeripheralClass":
        return self + (-other)

    def __neg__(self) -> "PeripheralClass":
        return PeripheralClass(self.knot, -self.meridian, -self.longitude)

    def __rmul__(self, k: int) -> "PeripheralClass":
        return PeripheralClass(self.knot, k * self.meridian, k * self.longitude)

    def is_zero(self) -> bool:
        return self.meridian == 0 and self.longitude == 0


def valuation(a: PeripheralClass) -> int:
    """Longitude coefficient; the kernel of this map is the meridian span."""
    return a.longitude


def local_intersection(a: PeripheralClass, b: PeripheralClass) -> int:
    """Intersection pairing on one boundary torus: det of the coefficient pair."""
    if a.knot != b.knot:
        raise MismatchedKnot(f"classes live on {a.knot!r} and {b.knot!r}")
    return a.meridian * b.longitude - b.meridian * a.longitude


@dataclass(frozen=True)
class LongitudeData:
    """Preferred longitude of a knot, with its lattice position.

    ``index`` is the index of the lattice spanned by (meridian, lambda)
    inside the full peripheral lattice; it equals the longitude coefficient
    of lambda and the order of the knot class in H1(M). ``is_basis`` says
    whether (meridian, lambda) is an honest basis, that is index == 1.
    """

    lambda_class: PeripheralClass
    index: int
    is_basis: bool


class ComplementHomology(FgAbelianGroup):
    """H1 of the complement of a sublink, with its peripheral table: the stage.

    The one owner of a stage's data. It reads whole rows, as the module
    docstring says, relying on Lambda's symmetry and the zero diagonal of
    ``lk_mutual``, which ``load_and_validate`` checks. Its relations lead
    with Lambda, so it reads H1(M)'s LU of Lambda, and an element test
    checks the knot rows below it.
    """

    def __init__(self, manifold: Manifold, link: tuple[str, ...]):
        self.manifold = manifold
        self.link = link
        pres = manifold.presentation
        s = len(manifold.surgery_names)
        knot_rows = [manifold.knot_index(k) for k in link]
        ell = [pres.lk_with_surgery.row(i) for i in knot_rows]
        # column j is relation j: sum_i Lambda(j,i) m_i + sum_a lk(K_a, L_j) mu_a = 0
        relations = IntMatrix(s + len(link), s, pres.surgery_matrix.entries + tuple(x for row in ell for x in row))
        super().__init__(relations)
        self._mu_pos = {k: s + a for a, k in enumerate(link)}
        mutual = [pres.lk_mutual.row(i) for i in knot_rows]
        self._l0 = {k: row + tuple(m[b] for b in knot_rows) for k, row, m in zip(link, ell, mutual)}

    @property
    def block_lu(self) -> FractionFreeLU | None:
        return self.manifold.h1.block_lu

    @cached_property
    def cokernel(self) -> FgAbelianGroup:
        """H1(M)/G from ``Manifold.knot_quotient``, built on first use; trivial when admissible."""
        return self.manifold.knot_quotient(self.link)

    def require(self, knot: str) -> int:
        """The meridian's generator index; UnknownKnot if undeclared, KnotOutsideLink if outside the stage."""
        p = self._mu_pos.get(knot)
        if p is None:
            self.manifold.knot_index(knot)
            raise KnotOutsideLink(f"knot {knot!r} lies outside the sublink {list(self.link)}")
        return p

    def require_support(self, *supports) -> None:
        """``require`` for each knot of each support, raising SupportOutsideLink for one outside the stage."""
        for k in (k for support in supports for k in support):
            if k not in self._mu_pos:
                self.manifold.knot_index(k)
                raise SupportOutsideLink(f"component at {k!r} lies outside the sublink {list(self.link)}")

    def meridian_coords(self, knot: str) -> tuple[int, ...]:
        p = self.require(knot)
        return tuple(1 if i == p else 0 for i in range(self.generator_count))

    def longitude_coords(self, knot: str) -> tuple[int, ...]:
        self.require(knot)
        return self._l0[knot]

    def peripheral_coords(self, a: PeripheralClass) -> tuple[int, ...]:
        """Coordinates of x * meridian + y * longitude in the complement."""
        p = self.require(a.knot)
        coords = [a.longitude * t for t in self._l0[a.knot]]
        coords[p] += a.meridian
        return tuple(coords)

    def class_of(self, a: PeripheralClass) -> GroupElement:
        return self.element(self.peripheral_coords(a))


def complement_homology(manifold: Manifold, link=None) -> ComplementHomology:
    """H1(M - L) for a sublink L of the marked knots (default: all of them)."""
    return ComplementHomology(manifold, manifold.sublink(link))


def preferred_longitude(manifold: Manifold, knot: str) -> LongitudeData:
    """Exact generator of ker(H1(boundary torus) -> H1(M - K)).

    The kernel has rank one because the ambient manifold is a rational
    homology sphere; the generator is normalized to positive longitude
    coefficient and read off the closed form in the module docstring. It can
    fail to be primitive in the full peripheral lattice when the knot class
    has torsion order > 1; it always generates the kernel exactly.
    """
    solved = manifold.knot_solution(knot)
    ell = manifold.presentation.lk_with_surgery.row(manifold.knot_index(knot))
    y = solved.order
    x, rem = divmod(y * sum(a * b for a, b in zip(ell, solved.t)), manifold.h1.modulus)
    if rem:
        raise ArithmeticError(f"meridian coefficient of the longitude of {knot!r} is not an integer")
    return LongitudeData(lambda_class=PeripheralClass(knot, x, y), index=y, is_basis=(y == 1))
