"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^g modulo the column span of a relation matrix. Elements are
coordinate vectors. One type serves H1 of a manifold or of a link
complement and a cover's target, diag(n_1, ..., n_t); ``quotient``
appends generators to relations spanning the parent's relation lattice, so
index and surjectivity questions become the order and triviality of a quotient.

When the leading square block of the relations is nonsingular (H1 of a
rational homology sphere, every link complement, whose leading block is
the surgery matrix, and every cover target), element orders and equality
come from a fraction-free LU of that block (``linalg.FractionFreeLU``):
the order of x is the least common denominator of the rational solution
of relations @ t = x.
Other groups read the order of x off ``preimage_lattice``: the integers n
with n * x in the relation span.

Every group's invariant factors come from Hermite passes modulo a
maximal minor: the ``FractionFreeLU`` record of the relations gives their
rank r and a nonzero r x r minor D, a multiple of every nonzero invariant
factor, so the first r entries of the Smith diagonal of the relations
plus D * Z^g, reduced mod D, are those factors. The Hermite basis of that
lattice (``hermite_basis``) is cached, and ``invariant_factors`` hands its
columns to ``linalg.smith_diagonal_mod``, so the alternating Hermite
passes start with the column pass.

Order and triviality take no Smith pass. A finite group (r = g) has
``modulus`` D, which for a square presentation is its order; any other
finite group's order is the product of the ``hermite_basis`` pivots, and
a group is trivial exactly when its order is 1. So admissibility (H1(M)
modulo the knot classes is trivial), a cover's surjectivity and a knot's
splitting numbers read the Hermite basis, never the invariant factors.

When the leading block's LU has full rank, or the presentation is square,
the rank and minor are that LU's, so one elimination gives the order, every
element test and the modulus of the invariant factors. A group whose
relations lead with ones already eliminated inherits that work: a finite
group's ``quotient``, led by its cached Hermite basis, its order as minor;
a link complement (``local.ComplementHomology``, a subclass whose relations
lead with Lambda) H1(M)'s ``block_lu``: neither eliminates Lambda again.
All is computed on first use and cached, so a group built only to carry
its relations (as most complements are) pays for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import mul

from .errors import BadDimensions, json_int
from .linalg import (
    IntMatrix,
    FractionFreeLU,
    hermite_basis_mod,
    hstack,
    leading_block_lu,
    preimage_lattice,
    smith_diagonal_mod,
)

__all__ = [
    "FgAbelianGroup",
    "GroupElement",
    "element_order",
    "subgroup_invariant_factors",
]


class FgAbelianGroup:
    """Z^generator_count modulo the columns of ``relations``, whose row count is generator_count.

    invariant_factors lists the nontrivial torsion factors in divisibility
    order followed by one 0 per free factor; unit factors are dropped. It,
    ``modulus`` and ``block_lu`` are computed lazily, once per group.
    """

    def __init__(self, relations: IntMatrix):
        self.generator_count = relations.rows
        self.relations = relations

    @cached_property
    def block_lu(self) -> FractionFreeLU | None:
        """``leading_block_lu`` of the relations, computed on first use."""
        return leading_block_lu(self.relations)

    @cached_property
    def _rank_and_minor(self) -> tuple[int, int]:
        """Rank r of the relations and |a nonzero r x r minor| (1 when r = 0).

        A square presentation, or a tall one whose leading block is
        nonsingular (a link complement), reads them off ``block_lu``: the LU
        of all the relations would pivot on that block's rows, which come
        first, and find the same pair. Only a wide group, or a tall one with
        a singular leading block, eliminates all its relations.
        """
        lu = self.block_lu
        if lu is None or lu.rank < lu.size < self.generator_count:
            lu = FractionFreeLU(self.relations)
        return lu.rank, abs(lu.minor)

    @cached_property
    def modulus(self) -> int | None:
        """A maximal minor D of the relations when the group is finite, else None.

        The relations then span a lattice holding D * Z^generator_count.
        """
        rank, d = self._rank_and_minor
        return d if rank == self.generator_count else None

    @cached_property
    def hermite_basis(self) -> list[list[int]]:
        """Canonical Hermite row basis of the relation lattice plus D * Z^generator_count.

        D is the cached maximal minor, so for a finite group this is the
        relation lattice itself: an upper triangular basis whose pivots
        multiply to the group order. ``invariant_factors`` starts its Smith
        diagonal from it, so a caller that needs both reduces the relations once.
        """
        _, d = self._rank_and_minor
        rel = self.relations
        return hermite_basis_mod([rel.column(j) for j in range(rel.cols)], self.generator_count, d)

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        rank, d = self._rank_and_minor
        # B's columns have B's Smith form and span a lattice holding d * Z^g too;
        # a first pass on B's rows would return B unchanged
        nonzero = smith_diagonal_mod(list(zip(*self.hermite_basis)), self.generator_count, d)[:rank]
        return tuple(x for x in nonzero if x != 1) + (0,) * (self.generator_count - rank)

    def order(self) -> int | None:
        """Group order, or None when the group is infinite.

        A square presentation's order is its ``modulus``, |det|; any other
        finite group's is the product of the ``hermite_basis`` pivots.
        """
        d = self.modulus
        if d is None or self.relations.cols == self.generator_count:
            return d
        return prod(row[i] for i, row in enumerate(self.hermite_basis))

    def is_trivial(self) -> bool:
        return self.order() == 1

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.generator_count)

    def quotient(self, generators) -> "FgAbelianGroup":
        """This group modulo the subgroup generated by the given coordinate vectors.

        A finite group appends them to its cached ``hermite_basis`` W, whose
        det (the order) is a full-rank minor of the quotient. An infinite
        group's basis holds D * Z^g, so it appends them to its relations.
        """
        g = self.generator_count
        gens = IntMatrix.from_columns([self.element(v).coords for v in generators], rows=g)
        if self.modulus is None:
            return FgAbelianGroup(hstack(self.relations, gens))
        group = FgAbelianGroup(hstack(IntMatrix.from_columns(self.hermite_basis, rows=g), gens))
        group._rank_and_minor = (g, self.order())
        return group

    def __eq__(self, other) -> bool:
        if not isinstance(other, FgAbelianGroup):
            return NotImplemented
        return self.relations == other.relations

    def __repr__(self) -> str:
        return f"FgAbelianGroup(generators={self.generator_count}, invariant_factors={self.invariant_factors})"


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An element of an FgAbelianGroup, held as a generator-coordinate vector.

    A float, bool or string coordinate raises ``BadInput``, and a vector
    whose length is not the group's generator count ``BadDimensions``,
    however the element was built.
    """

    group: FgAbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        for x in self.coords:
            if x.__class__ is not int:
                json_int(x, "group element coordinate")
        if len(self.coords) != self.group.generator_count:
            raise BadDimensions(
                f"coordinate vector of length {len(self.coords)} in a group with "
                f"{self.group.generator_count} generators"
            )

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "GroupElement":
        k = json_int(k, "group element scalar")
        return GroupElement(self.group, tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return element_order(self) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group is not other.group and self.group != other.group:
            return NotImplemented
        return element_order(self - other) == 1

    __hash__ = None  # coset equality is not hash-compatible with coordinates

    def _check(self, other: "GroupElement") -> None:
        if self.group is not other.group and self.group != other.group:
            raise BadDimensions("elements of different groups")


def element_order(e: GroupElement) -> int | None:
    """Smallest n >= 1 with n*e = 0, or None when e has infinite order."""
    group = e.group
    lu = group.block_lu
    if lu is not None and lu.rank == lu.size:
        # relations @ (t / den) = e: the leading block fixes t, and e has
        # infinite order unless the rows below it agree; the order is then
        # the denominator of t / den
        rel, k, den = group.relations, lu.size, abs(lu.minor)
        t = lu.solve(e.coords[:k])
        for i in range(k, rel.rows):
            if sum(map(mul, rel.row(i), t)) != den * e.coords[i]:
                return None
        return den // gcd(den, *t)
    # the integers n with n * e in the relation span: [[order]], or [] for infinite order
    multiples = preimage_lattice(IntMatrix.from_columns([e.coords], rows=group.generator_count), group.relations)
    return multiples[0][0] if multiples else None


def subgroup_invariant_factors(group: FgAbelianGroup, vectors) -> tuple[int, ...]:
    """Invariant factors of the subgroup generated by the given coordinate vectors."""
    vectors = [group.element(v).coords for v in vectors]
    k = len(vectors)
    gen_matrix = IntMatrix.from_columns(vectors, rows=group.generator_count)
    basis = preimage_lattice(gen_matrix, group.relations)
    return FgAbelianGroup(IntMatrix.from_columns(basis, rows=k)).invariant_factors
