"""Ideles on a marked link and the principal-idele machinery.

An idele assigns a peripheral class to finitely many marked knots. The
reassembly map rho sends an idele supported on a sublink L into H1(M - L)
through the peripheral table; its kernel is the lattice of principal ideles.
A divisor (integer coefficients on knots) whose class vanishes in H1(M) has
a unique principal idele with those longitude coefficients: the meridian
corrections are forced because the surgery matrix is nonsingular. Every
principal idele arises this way, so the kernel-equals-boundary-image
equality is checked in both directions by the tests rather than assumed.

The global pairing of two ideles is the sum over knots of the local
intersection numbers; reciprocity (vanishing on principal pairs) is
verified exactly by the test-suite and the fuzz harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import GroupElement, subgroup_invariant_factors
from .errors import BadInput, DivisorNotPrincipal, SupportOutsideLink, json_int
from .linalg import preimage_lattice
from .local import ComplementHomology, PeripheralClass, local_intersection

__all__ = [
    "Idele",
    "Divisor",
    "ClassGroupData",
    "embed_local",
    "require_support",
    "idele_coords",
    "rho_tilde",
    "is_principal",
    "delta_solution",
    "delta_from_divisor",
    "principal_lattice_basis",
    "idele_class_group",
    "global_pairing",
]


@dataclass(frozen=True)
class Idele:
    """Finitely supported family of peripheral classes, one per knot.

    Stored as (knot, meridian, longitude) triples sorted by knot name with
    zero components dropped, so equal ideles compare and hash equal.
    """

    parts: tuple[tuple[str, int, int], ...]

    @staticmethod
    def of(components) -> "Idele":
        """Build from {knot: (meridian, longitude)} or an iterable of such pairs."""
        items = components.items() if isinstance(components, dict) else list(components)
        acc: dict[str, tuple[int, int]] = {}
        for name, pair in items:
            what = f"idele component at {name!r}"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise BadInput(f"{what} must be a pair [meridian, longitude]")
            x, y = json_int(pair[0], what), json_int(pair[1], what)
            px, py = acc.get(name, (0, 0))
            acc[name] = (px + x, py + y)
        parts = tuple(
            (name, x, y) for name, (x, y) in sorted(acc.items()) if x != 0 or y != 0
        )
        return Idele(parts)

    @staticmethod
    def zero() -> "Idele":
        return Idele(())

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(k for k, _, _ in self.parts)

    def component(self, knot: str) -> PeripheralClass:
        for k, x, y in self.parts:
            if k == knot:
                return PeripheralClass(k, x, y)
        return PeripheralClass(knot, 0, 0)

    def __add__(self, other: "Idele") -> "Idele":
        acc = {k: (x, y) for k, x, y in self.parts}
        for k, x, y in other.parts:
            px, py = acc.get(k, (0, 0))
            acc[k] = (px + x, py + y)
        return Idele.of(acc)

    def __sub__(self, other: "Idele") -> "Idele":
        return self + (-1) * other

    def __neg__(self) -> "Idele":
        return (-1) * self

    def __rmul__(self, k: int) -> "Idele":
        return Idele.of({name: (k * x, k * y) for name, x, y in self.parts})

    def to_dict(self) -> dict:
        return {k: [x, y] for k, x, y in self.parts}

    @staticmethod
    def from_dict(data) -> "Idele":
        if not isinstance(data, dict):
            raise BadInput("idele must be a JSON object mapping knots to [meridian, longitude]")
        return Idele.of({str(k): v for k, v in data.items()})


def embed_local(a: PeripheralClass) -> Idele:
    """The idele concentrated at one knot."""
    return Idele.of({a.knot: (a.meridian, a.longitude)})


@dataclass(frozen=True)
class Divisor:
    """Integer coefficients on finitely many marked knots."""

    parts: tuple[tuple[str, int], ...]

    @staticmethod
    def of(components) -> "Divisor":
        items = components.items() if isinstance(components, dict) else list(components)
        acc: dict[str, int] = {}
        for name, c in items:
            acc[name] = acc.get(name, 0) + json_int(c, f"divisor coefficient at {name!r}")
        return Divisor(tuple((k, c) for k, c in sorted(acc.items()) if c != 0))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.parts)

    def coefficient(self, knot: str) -> int:
        for k, c in self.parts:
            if k == knot:
                return c
        return 0

    def to_dict(self) -> dict:
        return dict(self.parts)

    @staticmethod
    def from_dict(data) -> "Divisor":
        if not isinstance(data, dict):
            raise BadInput("divisor must be a JSON object mapping knots to integers")
        return Divisor.of({str(k): v for k, v in data.items()})


@dataclass(frozen=True)
class ClassGroupData:
    """Invariant factors of the idele class lattice and of coker(rho) at a stage."""

    link: tuple[str, ...]
    class_invariants: tuple[int, ...]
    coker_invariants: tuple[int, ...]


def require_support(link, *supports) -> None:
    """Raise SupportOutsideLink unless every knot of every support lies in the sublink."""
    allowed = set(link)
    for support in supports:
        for k in support:
            if k not in allowed:
                raise SupportOutsideLink(f"component at {k!r} lies outside the sublink {list(link)}")


def idele_coords(comp: ComplementHomology, a: Idele) -> tuple[int, ...]:
    """Coordinate vector of the reassembled idele in H1(M - L), pre-quotient."""
    require_support(comp.link, a.support)
    parts = [comp.peripheral_coords(PeripheralClass(k, x, y)) for k, x, y in a.parts]
    return tuple(map(sum, zip((0,) * comp.group.generator_count, *parts)))


def rho_tilde(comp: ComplementHomology, a: Idele) -> GroupElement:
    """Reassemble an idele supported on L into H1(M - L)."""
    return comp.group.element(idele_coords(comp, a))


def is_principal(comp: ComplementHomology, a: Idele) -> bool:
    """Whether the idele reassembles to zero in H1(M - L)."""
    return rho_tilde(comp, a).is_zero()


def delta_solution(comp: ComplementHomology, divisor: Divisor) -> tuple[list[int], Idele]:
    """Solve for the principal idele with the divisor's longitude coefficients.

    Returns (t, idele). With ell_K the surgery half of K's reference
    longitude (``comp.longitude_coords``), t solves
    surgery_matrix @ t = sum_K d_K ell_K, read off the cached inverse of
    H1(M)'s relations (Lambda @ n = den * I, so t = n @ rhs / den). The
    meridian coefficient at K is K's whole reference longitude read against
    (t, -d): ell_K . t - sum_{K' != K} lk(K, K') d_{K'}. Raises
    DivisorNotPrincipal when the divisor class is nonzero in H1(M), that is
    when that quotient is not integral.
    """
    require_support(comp.link, divisor.support)
    n, den = comp.manifold.h1.block_inverse
    d = [divisor.coefficient(k) for k in comp.link]
    longitudes = [comp.longitude_coords(k) for k in comp.link]
    rhs = [0] * n.cols
    for c, row in zip(d, longitudes):
        rhs = [r + c * x for r, x in zip(rhs, row)]
    scaled = n.mul_vector(rhs)
    if any(x % den for x in scaled):
        raise DivisorNotPrincipal(
            "the divisor's class in H1(M) is nonzero, so no 2-chain bounds it"
        )
    t = [x // den for x in scaled]
    against = t + [-c for c in d]
    parts = {k: (sum(x * v for x, v in zip(row, against)), c) for k, row, c in zip(comp.link, longitudes, d)}
    return t, Idele.of(parts)


def delta_from_divisor(comp: ComplementHomology, divisor: Divisor) -> Idele:
    """The unique principal idele whose longitude coefficients are the divisor."""
    _, idele = delta_solution(comp, divisor)
    return idele


def _idele_from_pairs(link, vec) -> Idele:
    return Idele.of({k: (vec[2 * i], vec[2 * i + 1]) for i, k in enumerate(link)})


def principal_lattice_basis(comp: ComplementHomology) -> list[Idele]:
    """Basis of the lattice of principal ideles supported on the sublink."""
    basis = preimage_lattice(comp.peripheral_matrix(), comp.relations)
    return [_idele_from_pairs(comp.link, row) for row in basis]


def idele_class_group(comp: ComplementHomology) -> ClassGroupData:
    """Invariant factors of ideles mod principal ideles, and of coker(rho).

    Principal ideles are the kernel of rho, so the class group is rho's
    image: the subgroup of H1(M - L) generated by the peripheral classes.
    coker(rho) is H1(M - L) modulo every meridian and reference longitude of
    L. Killing the meridians leaves H1(M), where each reference longitude
    becomes its knot's class, so the cokernel is H1(M) modulo the classes of
    L: the group ``Manifold.generates_h1`` asks about, with the modulus
    |det Lambda|.
    """
    peripheral = comp.peripheral_matrix()
    class_invariants = subgroup_invariant_factors(comp.group, map(peripheral.column, range(peripheral.cols)))
    man = comp.manifold
    coker = man.h1.quotient(man.knot_class(k).coords for k in comp.link)
    return ClassGroupData(
        link=comp.link,
        class_invariants=class_invariants,
        coker_invariants=coker.invariant_factors,
    )


def global_pairing(a: Idele, b: Idele) -> int:
    """Sum over knots of the local intersection pairings. Exact integer."""
    knots = sorted(set(a.support) | set(b.support))
    return sum(local_intersection(a.component(k), b.component(k)) for k in knots)
