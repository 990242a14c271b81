"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^g modulo the column span of a relation matrix. Elements are
coordinate vectors. One type serves H1 of a manifold or of a link
complement and a cover's target, diag(n_1, ..., n_t); ``quotient``
appends generators to the relations, so index and surjectivity questions
become the order and triviality of a quotient.

When the leading square block of the relations is nonsingular (H1 of a
rational homology sphere, every link complement, whose leading block is
the surgery matrix, and every cover target), element orders and equality
come from a fraction-free inverse of that block: the order of x is the
least common denominator of the rational solution of relations @ t = x.
Other groups read the order of x off ``preimage_lattice``: the integers n
with n * x in the relation span.

Every group's invariant factors come from one Hermite/Smith reduction
modulo a maximal minor: ``rank_and_minor`` gives the rank r of the
relations and a nonzero r x r minor D, a multiple of every nonzero
invariant factor, so the first r entries of ``smith_diagonal_mod`` on the
relations and D are those factors. A finite group (r = g) has ``modulus``
D, which for a square presentation is its order.

Both come from the one elimination in ``linalg``, and a group whose
relations lead with ones already eliminated inherits that work: a finite
group's ``quotient`` its rank and minor, a link complement (``local``)
H1(M)'s ``block_inverse``, so each manifold inverts Lambda once. All is
computed on first use and cached, so a group built only to carry its
relations (as most complements are) pays for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import BadDimensions, json_int
from .linalg import (
    IntMatrix,
    block_solve,
    hstack,
    leading_block_inverse,
    preimage_lattice,
    rank_and_minor,
    smith_diagonal_mod,
)

__all__ = [
    "FgAbelianGroup",
    "GroupElement",
    "element_order",
    "subgroup_invariant_factors",
]


class FgAbelianGroup:
    """Z^generator_count modulo the columns of ``relations``.

    invariant_factors lists the nontrivial torsion factors in divisibility
    order followed by one 0 per free factor; unit factors are dropped. It,
    ``modulus`` and ``block_inverse`` are computed lazily, once per group.
    """

    def __init__(self, generator_count: int, relations: IntMatrix):
        if relations.rows != generator_count:
            raise BadDimensions(
                f"relation matrix has {relations.rows} rows for {generator_count} generators"
            )
        self.generator_count = generator_count
        self.relations = relations

    @cached_property
    def block_inverse(self) -> tuple[IntMatrix, int] | None:
        """``leading_block_inverse`` of the relations, computed on first use."""
        return leading_block_inverse(self.relations)

    @cached_property
    def _rank_and_minor(self) -> tuple[int, int]:
        """Rank r of the relations and |a nonzero r x r minor| (1 when r = 0)."""
        rank, minor = rank_and_minor(self.relations)
        return rank, abs(minor)

    @cached_property
    def modulus(self) -> int | None:
        """A maximal minor D of the relations when the group is finite, else None.

        The relations then span a lattice holding D * Z^generator_count.
        """
        rank, d = self._rank_and_minor
        return d if rank == self.generator_count else None

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        rank, d = self._rank_and_minor
        rel = self.relations
        nonzero = smith_diagonal_mod([rel.column(j) for j in range(rel.cols)], self.generator_count, d)[:rank]
        return tuple(x for x in nonzero if x != 1) + (0,) * (self.generator_count - rank)

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.relations.cols == self.generator_count and self.modulus is not None:
            return self.modulus  # |det| of a square nonsingular presentation
        n = 1
        for d in self.invariant_factors:
            if d == 0:
                return None
            n *= d
        return n

    def is_trivial(self) -> bool:
        return self.invariant_factors == ()

    def element(self, coords) -> "GroupElement":
        coords = tuple(json_int(x, "group element coordinate") for x in coords)
        if len(coords) != self.generator_count:
            raise BadDimensions(
                f"coordinate vector of length {len(coords)} in a group with "
                f"{self.generator_count} generators"
            )
        return GroupElement(self, coords)

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.generator_count)

    def quotient(self, generators) -> "FgAbelianGroup":
        """This group modulo the subgroup generated by the given coordinate vectors."""
        columns = [self.element(v).coords for v in generators]
        gens = IntMatrix.from_columns(columns, rows=self.generator_count)
        group = FgAbelianGroup(self.generator_count, hstack(self.relations, gens))
        if self.modulus is not None:
            # this group's relations lead, so its full-rank minor is one of the quotient's
            group._rank_and_minor = (self.generator_count, self.modulus)
        return group

    def is_zero_vector(self, coords) -> bool:
        """Whether the coordinate vector lies in the column span of the relations."""
        return element_order(self.element(coords)) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, FgAbelianGroup):
            return NotImplemented
        return self.generator_count == other.generator_count and self.relations == other.relations

    def __repr__(self) -> str:
        return f"FgAbelianGroup(generators={self.generator_count}, invariant_factors={self.invariant_factors})"


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An element of an FgAbelianGroup, held as a generator-coordinate vector."""

    group: FgAbelianGroup
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return self.group.is_zero_vector(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group is not other.group and self.group != other.group:
            return NotImplemented
        return self.group.is_zero_vector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    __hash__ = None  # coset equality is not hash-compatible with coordinates

    def _check(self, other: "GroupElement") -> None:
        if self.group is not other.group and self.group != other.group:
            raise BadDimensions("elements of different groups")


def element_order(e: GroupElement) -> int | None:
    """Smallest n >= 1 with n*e = 0, or None when e has infinite order."""
    group = e.group
    inverse = group.block_inverse
    if inverse is not None:
        # relations @ (t / den) = e: infinite order unless that rational system
        # is consistent, and then the order is the denominator of t / den
        t = block_solve(group.relations, inverse, e.coords)
        if t is None:
            return None
        den = inverse[1]
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
    return FgAbelianGroup(k, IntMatrix.from_columns(basis, rows=k)).invariant_factors
