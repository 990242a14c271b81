"""Ideles on a marked link and the principal-idele machinery.

An idele assigns a peripheral class to finitely many marked knots. The
reassembly map rho sends an idele supported on a sublink L into H1(M - L)
through the peripheral table; its kernel is the lattice of principal ideles.
A divisor (integer coefficients on knots) whose class vanishes in H1(M) has
a unique principal idele with those longitude coefficients: the meridian
corrections are forced because the surgery matrix is nonsingular. Every
principal idele arises this way, so the kernel-equals-boundary-image
equality is checked in both directions by the tests rather than assumed.

The idele class group of a stage L with l knots is the image of rho, and it
is Z^l + (G cap G^perp): G is the subgroup of H1(M) generated by the knot
classes of L, and perp is taken for the linking form (u, v) -> u Lambda^-1 v
mod 1. So the class group is computed in H1(M)'s s coordinates, from the
Hermite basis W of G~ = span(ell_K) + Lambda Z^s that the cokernel H1(M)/G
also reads. The stage keeps that cokernel, which folds the knot classes
into H1(M)'s cached Hermite basis: W is reduced once per stage, Lambda never.
Every torsion step runs modulo c = |H1(M)/G|, the product of W's pivots. On
an admissible stage c = 1 and the torsion is trivial with no elimination.
The principal ideles are the graph {(A y, y) : y in Y} over the principal
divisors Y, with A the rational linking matrix A_ab = ell_a . t_b /
|det Lambda| - lk(K_a, K_b); ``principal_lattice_basis`` eliminates the l
knot rows that define it, over |det Lambda|, and never eliminates Lambda.

The global pairing of two ideles is the sum over knots of the local
intersection numbers; reciprocity (vanishing on principal pairs) is
verified exactly by the test-suite and the fuzz harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul

from .abelian import GroupElement
from .errors import BadInput, DivisorNotPrincipal, json_int
from .linalg import IntMatrix, hermite_coordinates, kernel_basis, kernel_mod, smith_diagonal_mod
from .local import ComplementHomology, PeripheralClass, local_intersection

__all__ = [
    "Idele",
    "Divisor",
    "ClassGroupData",
    "embed_local",
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

    class_invariants: tuple[int, ...]
    coker_invariants: tuple[int, ...]


def idele_coords(comp: ComplementHomology, a: Idele) -> tuple[int, ...]:
    """Coordinate vector of the reassembled idele in H1(M - L), pre-quotient."""
    comp.require_support(a.support)
    parts = [comp.peripheral_coords(PeripheralClass(k, x, y)) for k, x, y in a.parts]
    return tuple(map(sum, zip((0,) * comp.generator_count, *parts)))


def rho_tilde(comp: ComplementHomology, a: Idele) -> GroupElement:
    """Reassemble an idele supported on L into H1(M - L)."""
    return comp.element(idele_coords(comp, a))


def is_principal(comp: ComplementHomology, a: Idele) -> bool:
    """Whether the idele reassembles to zero in H1(M - L)."""
    return rho_tilde(comp, a).is_zero()


def delta_solution(comp: ComplementHomology, divisor: Divisor) -> tuple[list[int], Idele]:
    """Solve for the principal idele with the divisor's longitude coefficients.

    Returns (t, idele). With ell_K the surgery half of K's reference
    longitude (``comp.longitude_coords``), t solves
    surgery_matrix @ t = sum_K d_K ell_K. Each knot's cached solve
    (``Manifold.knot_solution``) has Lambda t_K = den * ell_K with
    den = |det Lambda| = ``h1.modulus``, so t = sum_K d_K t_K / den and no
    solve is repeated. The meridian coefficient at K is K's whole
    reference longitude read against (t, -d):
    ell_K . t - sum_{K' != K} lk(K, K') d_{K'}. Raises
    DivisorNotPrincipal when the divisor class is nonzero in H1(M), that is
    when that quotient is not integral.
    """
    comp.require_support(divisor.support)
    man = comp.manifold
    den = man.h1.modulus
    scaled = [0] * len(man.surgery_names)
    for k, c in divisor.parts:
        scaled = [x + c * y for x, y in zip(scaled, man.knot_solution(k).t)]
    if any(x % den for x in scaled):
        raise DivisorNotPrincipal(
            "the divisor's class in H1(M) is nonzero, so no 2-chain bounds it"
        )
    t = [x // den for x in scaled]
    d = [divisor.coefficient(k) for k in comp.link]
    against = t + [-c for c in d]
    parts = {k: (sum(x * v for x, v in zip(comp.longitude_coords(k), against)), c) for k, c in zip(comp.link, d)}
    return t, Idele.of(parts)


def delta_from_divisor(comp: ComplementHomology, divisor: Divisor) -> Idele:
    """The unique principal idele whose longitude coefficients are the divisor."""
    _, idele = delta_solution(comp, divisor)
    return idele


def _idele_from_pairs(link, vec) -> Idele:
    return Idele.of({k: (vec[2 * i], vec[2 * i + 1]) for i, k in enumerate(link)})


def principal_lattice_basis(comp: ComplementHomology) -> list[Idele]:
    """Basis of the lattice of principal ideles supported on the sublink.

    It is ``preimage_lattice(P, comp.relations)`` for the peripheral table
    P, whose columns are each knot b's ``meridian_coords`` and
    ``longitude_coords``, which ``tests/oracles.py`` computes whole; here it
    is the graph {(A y, y) : y in Y} in interleaved columns x_b (knot b's
    meridian) and y_b (its longitude). With D = |det Lambda| and t_b the
    cached solve of knot b (Lambda t_b = D ell_b), knot row a reads
    D [a = b] under x_b and D lk(K_a, K_b) - ell_a . t_b under y_b, over the
    denominator D: the state an elimination of [P | relations] reaches after
    Lambda's block, up to the sign of det Lambda, which scales every row and
    den alike and so keeps each division exact. Its integer kernel is the
    graph over Y+ = {y : A y integral}, which holds Y with index the torsion
    of the class group. Row h_j of that graph lies over Y exactly when
    w_j = sum_b y_b(h_j) t_b vanishes mod D, so Y's graph is
    ``kernel_mod(w, D)`` times it: an upper triangular product, already in
    echelon form, whose entries above each pivot are then reduced.
    """
    man, link = comp.manifold, comp.link
    s, d = len(man.surgery_names), man.h1.modulus
    ts = [man.knot_solution(b).t for b in link]
    rows = []
    for a, k in enumerate(link):
        row = comp.longitude_coords(k)
        ell, lk = row[:s], row[s:]
        rows.append([v for b, t in enumerate(ts) for v in (d if a == b else 0, d * lk[b] - sum(map(mul, ell, t)))])
    graph = kernel_basis(rows, 2 * len(link), d)
    solves = list(zip(*ts))
    w = [[sum(map(mul, h[1::2], t)) % d for t in solves] for h in graph]
    if any(map(any, w)):
        columns = list(zip(*graph))
        graph = [[sum(map(mul, c[i:], col[i:])) for col in columns] for i, c in enumerate(kernel_mod(w, d))]
        leads = [next(j for j, v in enumerate(h) if v) for h in graph]
        for r in range(len(graph) - 2, -1, -1):
            for i in range(r + 1, len(graph)):
                q = graph[r][leads[i]] // graph[i][leads[i]]
                if q:
                    graph[r] = [x - q * y for x, y in zip(graph[r], graph[i])]
    return [_idele_from_pairs(link, v) for v in graph]


def _radical_invariants(lam: IntMatrix, w: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of T = G cap G^perp in H1(M) = Z^s / Lambda Z^s.

    ``w`` is the Hermite basis (rows) of G~ = span(ell_K) + Lambda Z^s, and
    c = prod diag W = |H1(M)/G|. U = Lambda W^-1 is integral, as Lambda's
    rows lie in G~, and G^perp = U Z^s / Lambda Z^s, which a -> U a
    identifies with Z^s / W Z^s. T is the kernel of a -> U a from Z^s / W Z^s
    to H1(M)/G = Z^s / W^T Z^s. Both have order c, so every step runs mod c.
    """
    s = len(w)
    c = prod(w[i][i] for i in range(s))
    if c == 1:
        return ()
    # c Z^s lies in W^T Z^s, so only U mod c matters
    u = [[x % c for x in hermite_coordinates(w, lam.row(i))] for i in range(s)]
    # U a lies in W^T Z^s iff V a = 0 mod c, with V = c W^-T U integral (c W^-1 is W's adjugate);
    # so P = {a : U a in W^T Z^s} is the kernel mod c of V's columns
    v_columns = [hermite_coordinates(w, [c * row[i] for row in u]) for i in range(s)]
    p = kernel_mod(v_columns, c)
    # T = P / W Z^s, presented by W's columns written in P's basis
    diagonal = smith_diagonal_mod([hermite_coordinates(p, col) for col in zip(*w)], s, c)
    return tuple(x for x in diagonal if x != 1)


def idele_class_group(comp: ComplementHomology) -> ClassGroupData:
    """Invariant factors of ideles mod principal ideles, and of coker(rho).

    Principal ideles are the kernel of rho, so the class group is rho's
    image: the subgroup of H1(M - L) generated by the peripheral classes.
    That image is Z^l + T with T = G cap G^perp, as the module docstring
    says, so its invariant factors are T's followed by l zeros.

    coker(rho) is H1(M - L) modulo every meridian and reference longitude of
    L. Killing the meridians leaves H1(M), where each reference longitude
    becomes its knot's class, so the cokernel is H1(M)/G: the stage's
    ``cokernel``, with the modulus |det Lambda|. Its cached Hermite basis is
    that of G~, which the torsion reads too. An admissible stage has G = H1(M), so c = |coker| = 1 and T = 0.
    """
    coker = comp.cokernel
    torsion = _radical_invariants(comp.manifold.surgery_matrix, coker.hermite_basis)
    return ClassGroupData(
        class_invariants=torsion + (0,) * len(comp.link),
        coker_invariants=coker.invariant_factors,
    )


def global_pairing(a: Idele, b: Idele) -> int:
    """Sum over knots of the local intersection pairings. Exact integer."""
    knots = sorted(set(a.support) | set(b.support))
    return sum(local_intersection(a.component(k), b.component(k)) for k in knots)
