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

The preferred longitude of K is the exact generator of the kernel of
H1(boundary torus) -> H1(M - K), sign-normalized to positive longitude
coefficient; its longitude coefficient equals the order of [K] in H1(M).
It has a closed form on the cached fraction-free inverse (N, den) of the
surgery matrix Lambda (Lambda N = den * I): with ell_K the row of linking
numbers of K with the surgery link and t = N ell_K^T,

    o_K = den / gcd(den, t),    lambda_K = (o_K * ell_K . t / den, o_K),

that is o_K times the rational kernel class (ell_K Lambda^-1 ell_K^T, 1),
o_K being the least multiple that makes it integral. So every knot shares
one inverse with ``Manifold.knot_order``, and no one-knot complement or
integer kernel is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abelian import FgAbelianGroup, GroupElement
from .errors import KnotOutsideLink, MismatchedKnot
from .linalg import IntMatrix
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
    """x * meridian + y * longitude on the boundary torus of one knot."""

    knot: str
    meridian: int
    longitude: int

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


class _ComplementGroup(FgAbelianGroup):
    """H1(M - L): its relations lead with Lambda, so it reads H1(M)'s inverse on first use."""

    def __init__(self, h1: FgAbelianGroup, relations: IntMatrix, labels):
        super().__init__(relations.rows, relations, labels=labels)
        self._h1 = h1

    @property
    def block_inverse(self) -> tuple[IntMatrix, int] | None:
        return self._h1.block_inverse


class ComplementHomology:
    """H1 of the complement of a sublink, with its peripheral table."""

    def __init__(self, manifold: Manifold, link: tuple[str, ...]):
        self.manifold = manifold
        self.link = link
        pres = manifold.presentation
        s = len(manifold.surgery_names)
        l = len(link)
        knot_rows = [manifold.knot_index(k) for k in link]
        # relation j: sum_i Lambda(j,i) m_i + sum_a lk(K_a, L_j) mu_a = 0
        rel_cols = []
        for j in range(s):
            col = [pres.surgery_matrix[j, i] for i in range(s)]
            col += [pres.lk_with_surgery[a, j] for a in knot_rows]
            rel_cols.append(col)
        relations = IntMatrix.from_columns(rel_cols, rows=s + l)
        labels = tuple(manifold.surgery_names) + tuple(link)
        self.group = _ComplementGroup(manifold.h1, relations, labels)
        self._mu_pos = {k: s + a for a, k in enumerate(link)}
        self._l0: dict[str, tuple[int, ...]] = {}
        for a, k in enumerate(link):
            i = knot_rows[a]
            coords = [pres.lk_with_surgery[i, j] for j in range(s)]
            coords += [
                0 if link[b] == k else pres.lk_mutual[i, knot_rows[b]] for b in range(l)
            ]
            self._l0[k] = tuple(coords)

    @property
    def relations(self) -> IntMatrix:
        return self.group.relations

    def _require(self, knot: str) -> None:
        if knot not in self._mu_pos:
            raise KnotOutsideLink(f"knot {knot!r} is not part of this complement's link")

    def meridian_coords(self, knot: str) -> tuple[int, ...]:
        self._require(knot)
        n = self.group.generator_count
        p = self._mu_pos[knot]
        return tuple(1 if i == p else 0 for i in range(n))

    def longitude_coords(self, knot: str) -> tuple[int, ...]:
        self._require(knot)
        return self._l0[knot]

    def peripheral_coords(self, a: PeripheralClass) -> tuple[int, ...]:
        """Coordinates of x * meridian + y * longitude in the complement."""
        self._require(a.knot)
        mu = self.meridian_coords(a.knot)
        l0 = self._l0[a.knot]
        return tuple(a.meridian * m + a.longitude * t for m, t in zip(mu, l0))

    def class_of(self, a: PeripheralClass) -> GroupElement:
        return self.group.element(self.peripheral_coords(a))

    def peripheral_matrix(self) -> IntMatrix:
        """Columns (meridian_K, longitude_K) for K running through the link."""
        cols = []
        for k in self.link:
            cols.append(list(self.meridian_coords(k)))
            cols.append(list(self._l0[k]))
        return IntMatrix.from_columns(cols, rows=self.group.generator_count)


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
    ell = manifold.presentation.lk_with_surgery.row(manifold.knot_index(knot))
    n, den = manifold.h1.block_inverse
    t = n.mul_vector(ell)
    y = den // gcd(den, *t)
    x, rem = divmod(y * sum(a * b for a, b in zip(ell, t)), den)
    if rem:
        raise ArithmeticError(f"meridian coefficient of the longitude of {knot!r} is not an integer")
    return LongitudeData(lambda_class=PeripheralClass(knot, x, y), index=y, is_basis=(y == 1))
