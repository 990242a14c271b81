"""Exact linear algebra against independent oracles.

The Smith form is cross-checked against the determinantal-divisor oracle
(gcd of all k x k minors), the Bareiss determinant against cofactor
expansion, the fraction-free LU's rank and minor against the Smith diagonal, solve_mod_subgroup against exhaustive search, the integer
kernel against the Smith-transform route it replaced, preimage_lattice
against a second Hermite pass over its sliced kernel, the fraction-free LU
against frozen cases and the Fraction solve, and
smith_diagonal_mod against the full Smith form of the generators with
d * I appended, kernel_mod against a count of its congruence's solutions,
and integer_kernel and preimage_lattice against sympy's
Hermite normal form when sympy is installed. The Hermite oracles are the
plain eliminations in ``oracles.py``.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generator_manifold, load_manifold, record_smith_forms
from oracles import fraction_solve, hermite_row_basis, lattice_reduce

from idelink import (
    Divisor,
    Idele,
    complement_homology,
    delta_from_divisor,
    is_principal,
    kummer_cover,
    principal_lattice_basis,
)
from idelink import linalg
from idelink.abelian import FgAbelianGroup
from idelink.errors import BadInput
from idelink.linalg import (
    FractionFreeLU,
    IntMatrix,
    determinant,
    hermite_basis_mod,
    hermite_coordinates,
    hstack,
    integer_kernel,
    kernel_mod,
    leading_block_lu,
    preimage_lattice,
    smith_diagonal_mod,
    smith_normal_form,
    solve_integer,
    solve_mod_subgroup,
    solve_rational,
)


def matrices(max_dim=4, bound=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ).map(IntMatrix.from_rows)


def cofactor_det(m: IntMatrix) -> int:
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        minor = IntMatrix.from_rows(
            [[m[i, c] for c in range(n) if c != j] for i in range(1, n)]
        )
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def determinantal_divisors(m: IntMatrix):
    """gcd of all k x k minors for each k; quotients give the Smith diagonal.

    Each minor is the cofactor expansion along its first row of minors one
    size smaller, each computed once, so a 6 x 6 input takes thousands of
    products rather than a full expansion per minor.
    """
    minors = {((), ()): 1}
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                minor = sum((-1) ** j * m[rows[0], c] * minors[rows[1:], cols[:j] + cols[j + 1 :]] for j, c in enumerate(cols))
                minors[rows, cols] = minor
                g = math.gcd(g, minor)
        out.append(g)
    return out


def test_smith_frozen_examples():
    snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert snf.diagonal == (1, 6)

    snf = smith_normal_form(IntMatrix.from_rows([[5]]))
    assert snf.diagonal == (5,)

    snf = smith_normal_form(IntMatrix.zeros(2, 3))
    assert snf.diagonal == (0, 0)

    snf = smith_normal_form(IntMatrix.from_rows([]))
    assert snf.diagonal == ()

    for rows, cols in ((0, 3), (3, 0)):
        snf = smith_normal_form(IntMatrix(rows, cols, ()))
        assert snf.diagonal == ()
        assert (snf.u, snf.d, snf.v) == (IntMatrix.identity(rows), IntMatrix(rows, cols, ()), IntMatrix.identity(cols))


def assert_valid_smith(m: IntMatrix):
    snf = smith_normal_form(m)
    d = snf.u @ m @ snf.v
    for i in range(m.rows):
        for j in range(m.cols):
            expect = snf.diagonal[i] if i == j else 0
            assert d[i, j] == expect
    assert abs(determinant(snf.u)) == 1
    assert abs(determinant(snf.v)) == 1
    diag = snf.diagonal
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    return snf


@settings(max_examples=200, deadline=None)
@given(matrices(max_dim=6, bound=10**6))
def test_smith_properties(m):
    snf = assert_valid_smith(m)
    # determinantal-divisor oracle: prefix products of the diagonal
    divisors = determinantal_divisors(m)
    prod = 1
    for k, dk in enumerate(divisors):
        prod *= snf.diagonal[k]
        assert prod == dk


def test_smith_transforms_stay_short_on_the_generator_instance_at_20():
    """Growth guard: on the s = r = 20 relations, no entry of U or V reaches 1024 bits."""
    snf = assert_valid_smith(generator_manifold(20, 20, 20).h1.relations)
    assert max(abs(x).bit_length() for x in snf.u.entries + snf.v.entries) < 1024


@settings(max_examples=150, deadline=None)
@given(matrices(max_dim=4, bound=8))
def test_determinant_matches_cofactor_expansion(m):
    if m.rows == m.cols:
        assert determinant(m) == cofactor_det(m)


def test_determinant_edge_cases():
    assert determinant(IntMatrix.from_rows([])) == 1
    assert determinant(IntMatrix.identity(3)) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix.zeros(2, 3))


def test_fraction_free_lu_rank_and_minor_bound_the_smith_diagonal():
    """Square, tall and wide matrices: the LU record gives the rank and a maximal minor; a non-square one refuses to solve."""
    rng = random.Random(8808)
    seen = {"full rank": 0, "rank deficient": 0, "zero": 0}
    shapes = {"square": 0, "tall": 0, "wide": 0}
    for t in range(900):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        bound = rng.choice((1, 5, 50)) if t % 9 else 0
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        k = rng.randint(-3, 3)
        if t % 3 == 1 and rows >= 2:  # a dependent row
            m[-1] = [k * x for x in m[0]]
        elif t % 3 == 2 and cols >= 2:  # a dependent column
            for row in m:
                row[-1] = k * row[0]
        a = IntMatrix(rows, cols, tuple(x for row in m for x in row))
        lu = FractionFreeLU(a)
        rank, minor = lu.rank, lu.minor
        nonzero = [d for d in smith_normal_form(a).diagonal if d]
        assert rank == len(nonzero), m
        assert minor != 0 and minor % math.prod(nonzero) == 0, m
        if rank == 0:
            assert minor == 1
        if rows == cols:
            assert determinant(a) == (minor if rank == rows else 0)
        else:
            with pytest.raises(ArithmeticError):
                lu.solve([0] * rows)
        seen["zero" if rank == 0 else "full rank" if rank == min(rows, cols) else "rank deficient"] += 1
        shapes["square" if rows == cols else "tall" if rows > cols else "wide"] += 1
    assert min(seen.values()) > 100, seen
    assert min(shapes.values()) > 50, shapes


def test_square_smith_diagonal_product_is_abs_det():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        )
        snf = smith_normal_form(m)
        prod = 1
        for x in snf.diagonal:
            prod *= x
        assert prod == abs(determinant(m))


def test_kernel_frozen_examples():
    k = integer_kernel(IntMatrix.from_rows([[2, 4]]))
    assert k.to_rows() == [[2], [-1]]

    k = integer_kernel(IntMatrix.from_rows([[1, 1]]))
    assert k.to_rows() == [[1], [-1]]

    k = integer_kernel(IntMatrix.identity(2))
    assert k.cols == 0


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_is_annihilated_and_canonical(m):
    k = integer_kernel(m)
    prod = m @ k
    assert all(prod[i, j] == 0 for i in range(prod.rows) for j in range(prod.cols))
    # canonical: re-running hermite reduction on the generators changes nothing
    rows = [[k[i, j] for i in range(k.rows)] for j in range(k.cols)]
    assert hermite_row_basis(rows) == rows


def kernel_via_smith(a: IntMatrix) -> IntMatrix:
    """Oracle: the columns of the Smith transform V past the rank, Hermite-reduced."""
    snf = smith_normal_form(a)
    rank = sum(1 for d in snf.diagonal if d)
    cols = [list(snf.v.column(j)) for j in range(rank, a.cols)]
    return IntMatrix.from_columns(hermite_row_basis(cols), rows=a.cols)


def random_kernel_input(rng: random.Random, kind: int) -> IntMatrix:
    bound = rng.choice((1, 3, 50))
    if kind == 0:
        rows, cols = 0, rng.randint(0, 6)
    elif kind == 1:
        rows, cols = rng.randint(0, 6), 0
    elif kind == 2:  # tall
        cols = rng.randint(1, 5)
        rows = rng.randint(cols + 1, 7)
    elif kind == 3:  # wide
        rows = rng.randint(1, 5)
        cols = rng.randint(rows + 1, 8)
    else:  # square, or rank-deficient: one row a multiple of another
        rows = cols = rng.randint(2, 6)
    m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    if kind == 5:
        i, j = rng.sample(range(rows), 2)
        m[j] = [rng.randint(-2, 2) * x for x in m[i]]
    return IntMatrix(rows, cols, tuple(x for r in m for x in r))


def test_kernel_matches_smith_route_oracle():
    rng = random.Random(2204)
    for t in range(2400):
        a = random_kernel_input(rng, t % 6)
        assert integer_kernel(a) == kernel_via_smith(a), str(a)


def test_kernel_of_empty_shapes():
    assert integer_kernel(IntMatrix(0, 3, ())) == IntMatrix.identity(3)
    assert integer_kernel(IntMatrix(2, 0, ())) == IntMatrix(0, 0, ())
    assert integer_kernel(IntMatrix.zeros(2, 2)) == IntMatrix.identity(2)


@pytest.mark.parametrize("modulus", [1, 101, 360])
def test_hermite_mod_matches_hermite_of_augmented_generators(modulus):
    rng = random.Random(modulus)
    for _ in range(300):
        width = rng.randint(1, 6)
        gens = [[rng.randint(-40, 40) for _ in range(width)] for _ in range(rng.randint(0, 6))]
        if gens and rng.random() < 0.3:
            gens.append([0] * width)
        scaled = [[modulus if i == j else 0 for j in range(width)] for i in range(width)]
        assert hermite_basis_mod(gens, width, modulus) == hermite_row_basis(gens + scaled)


def test_smith_diagonal_mod_frozen_examples():
    assert smith_diagonal_mod([[2, 0], [0, 3]], 2, 6) == [1, 6]
    assert smith_diagonal_mod([[4, 0], [0, 6]], 2, 24) == [2, 12]
    assert smith_diagonal_mod([], 2, 12) == [12, 12]
    assert smith_diagonal_mod([[1, 5]], 2, 7) == [1, 7]
    assert smith_diagonal_mod([[3, 4]], 2, 1) == [1, 1]
    assert smith_diagonal_mod([], 0, 5) == []
    # the elimination leaves the pivot 40 here, which stands for gcd(40, 60) = 20
    gens = [[5, -32, -34, -6, 47, 42], [5, -32, -38, 24, 46, 32]]
    assert smith_diagonal_mod(gens, 6, 60) == [1, 1, 60, 60, 60, 60]


def test_smith_diagonal_mod_matches_smith_of_augmented_generators():
    rng = random.Random(3303)
    for _ in range(600):
        width = rng.randint(1, 5)
        modulus = rng.choice((1, 2, 12, 97, 360, 2**61 - 1))
        gens = [[rng.randint(-50, 50) for _ in range(width)] for _ in range(rng.randint(0, 5))]
        scaled = [[modulus if i == j else 0 for j in range(width)] for i in range(width)]
        full = smith_normal_form(IntMatrix.from_columns(gens + scaled, rows=width)).diagonal
        assert smith_diagonal_mod(gens, width, modulus) == list(full), (gens, modulus)


def test_smith_diagonal_mod_alternates_hermite_passes_until_diagonal(monkeypatch):
    passes = []
    real = linalg.hermite_basis_mod

    def counting(rows, width, d):
        passes.append(rows)
        return real(rows, width, d)

    monkeypatch.setattr(linalg, "hermite_basis_mod", counting)
    assert smith_diagonal_mod([[2, 1], [0, 2]], 2, 4) == [1, 4]
    assert len(passes) == 3
    passes.clear()
    assert smith_diagonal_mod([[8, 7], [4, 8]], 2, 12) == [1, 12]
    assert len(passes) == 4
    passes.clear()
    # a diagonal Hermite basis takes the one row pass
    assert smith_diagonal_mod([[2, 0], [0, 3]], 2, 6) == [1, 6]
    assert len(passes) == 1


def test_smith_diagonal_mod_matches_smith_form_at_prime_power_moduli():
    """Moduli with repeated prime factors, where a pivot can shrink in divisibility pass after pass."""
    rng = random.Random(3305)
    moduli = (2**6, 3**5, 2**4 * 3**3, 2**3 * 5**2 * 7, 2**12 * 3**2)
    for _ in range(500):
        width = rng.randint(1, 7)
        modulus = rng.choice(moduli)
        scale = rng.choice((1, 2, 4, 6, 12))
        gens = [[scale * rng.randint(-30, 30) for _ in range(width)] for _ in range(rng.randint(0, 7))]
        scaled = [[modulus if i == j else 0 for j in range(width)] for i in range(width)]
        full = smith_normal_form(IntMatrix.from_columns(gens + scaled, rows=width)).diagonal
        assert smith_diagonal_mod(gens, width, modulus) == list(full), (gens, modulus)


def test_smith_diagonal_mod_raises_past_its_pass_cap(monkeypatch):
    """A Hermite pass that never diagonalizes ends in ArithmeticError after the capped passes, never a hang."""
    passes = []

    def stuck(rows, width, d):
        passes.append(rows)
        return [[1, 1], [0, 1]]

    monkeypatch.setattr(linalg, "hermite_basis_mod", stuck)
    with pytest.raises(ArithmeticError):
        smith_diagonal_mod([[1, 1]], 2, 12)
    # the first pass, then width * d.bit_length() more
    assert len(passes) == 1 + 2 * 4


def test_kernel_mod_is_the_canonical_basis_of_the_congruence_lattice():
    """k, p <= 3 and d <= 12, entries in [-20, 20]: a canonical Hermite basis whose rows
    satisfy the congruence and whose pivots multiply to d^k / N, N counting the
    solutions in [0, d)^k. The rows span a sublattice of the same index, so it is the lattice."""
    assert kernel_mod([[2], [3]], 6) == [[3, 0], [0, 2]]
    assert kernel_mod([[1], [1]], 4) == [[1, 3], [0, 4]]
    rng = random.Random(2425)
    for _ in range(400):
        k, p, d = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 12)
        vectors = [[rng.randint(-20, 20) for _ in range(p)] for _ in range(k)]

        def vanishes(y):
            return all(sum(c * v[j] for c, v in zip(y, vectors)) % d == 0 for j in range(p))

        basis = kernel_mod(vectors, d)
        assert len(basis) == k and all(len(row) == k for row in basis), (vectors, d)
        for i, row in enumerate(basis):
            assert not any(row[:i]) and row[i] > 0 and d % row[i] == 0, (vectors, d)
            assert all(0 <= above[i] < row[i] for above in basis[:i]), (vectors, d)
            assert vanishes(row), (vectors, d)
        solutions = sum(map(vanishes, itertools.product(range(d), repeat=k)))
        assert math.prod(row[i] for i, row in enumerate(basis)) * solutions == d**k, (vectors, d)


def test_kernel_mod_edge_cases():
    assert kernel_mod([], 5) == []
    assert kernel_mod([[], [], []], 7) == IntMatrix.identity(3).to_rows()
    assert kernel_mod([[3, -4], [5, 2]], 1) == IntMatrix.identity(2).to_rows()
    for d in (0, -3):
        with pytest.raises(ArithmeticError):
            kernel_mod([[1, 2]], d)


def test_hermite_row_basis_matches_the_elimination_oracle():
    rng = random.Random(3304)
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        if rows and rng.random() < 0.3:
            rows.append([2 * x for x in rows[0]])
        assert linalg.hermite_row_basis(rows) == hermite_row_basis(rows), rows


def test_hermite_coordinates_invert_the_basis_and_refuse_other_vectors():
    rng = random.Random(3305)
    for _ in range(300):
        width = rng.randint(1, 5)
        modulus = rng.choice((1, 6, 60, 97))
        gens = [[rng.randint(-30, 30) for _ in range(width)] for _ in range(rng.randint(0, 4))]
        basis = hermite_basis_mod(gens, width, modulus)
        x = [rng.randint(-9, 9) for _ in range(width)]
        v = [sum(t * row[j] for t, row in zip(x, basis)) for j in range(width)]
        assert hermite_coordinates(basis, v) == x
        index = math.prod(basis[i][i] for i in range(width))
        if index > 1:
            # a lattice of index > 1 misses some unit vector
            with pytest.raises(ArithmeticError):
                for j in range(width):
                    hermite_coordinates(basis, [int(i == j) for i in range(width)])
    assert hermite_coordinates([], []) == []


def test_hermite_mod_rejects_nonpositive_modulus():
    for d in (0, -3):
        with pytest.raises(ArithmeticError):
            hermite_basis_mod([[1, 2]], 2, d)


def preimage_via_rehermite(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    """Oracle: a second Hermite pass over the leading-coordinate slice of ker [a | b]."""
    ker = integer_kernel(hstack(a, b))
    return hermite_row_basis([[ker[i, j] for i in range(a.cols)] for j in range(ker.cols)])


def random_preimage_input(rng: random.Random, kind: int) -> tuple[IntMatrix, IntMatrix]:
    bound = rng.choice((1, 3, 50))
    rows, p, q = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 4)
    if kind == 0:
        rows = 0
    elif kind == 1:
        p = 0
    elif kind == 2:
        q = 0
    a = [[rng.randint(-bound, bound) for _ in range(p)] for _ in range(rows)]
    b = [[rng.randint(-bound, bound) for _ in range(q)] for _ in range(rows)]
    if kind == 3 and q:  # rank-deficient b: one column a multiple of another, or zero
        i, j = rng.randrange(q), rng.randrange(q)
        k = 0 if i == j else rng.randint(-2, 2)
        for r in b:
            r[j] = k * r[i]
    return IntMatrix(rows, p, tuple(x for r in a for x in r)), IntMatrix(rows, q, tuple(x for r in b for x in r))


def test_preimage_lattice_matches_rehermite_of_sliced_kernel():
    rng = random.Random(3303)
    for t in range(2400):
        a, b = random_preimage_input(rng, t % 5)
        assert preimage_lattice(a, b) == preimage_via_rehermite(a, b), (str(a), str(b))


def test_preimage_lattice_frozen_examples():
    # 2x in 4Z exactly when x is even
    assert preimage_lattice(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]])) == [[2]]
    # x1 + x2 = 0 mod 3
    assert preimage_lattice(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[3]])) == [[1, 2], [0, 3]]
    # (x1, x2) in Z * (2, 0)
    assert preimage_lattice(IntMatrix.identity(2), IntMatrix.from_rows([[2], [0]])) == [[2, 0]]
    # no conditions, and no coordinates
    assert preimage_lattice(IntMatrix(0, 2, ()), IntMatrix(0, 1, ())) == [[1, 0], [0, 1]]
    assert preimage_lattice(IntMatrix(2, 0, ()), IntMatrix.identity(2)) == []


def sympy_preimage_lattice(a: IntMatrix, b: IntMatrix, modulus=None) -> list[list[int]]:
    """Oracle: ``preimage_lattice`` from sympy's column Hermite normal form.

    The columns of [[I, 0], [a, b]] span {(x, a @ x + b @ y)}, whose vectors
    with a zero bottom block are (x, 0) for x in the preimage lattice; in the
    Hermite form those are spanned by the columns that pivot in the top block.
    Sympy pivots at a column's last nonzero entry (Cohen, GTM 138, Def. 2.4.2)
    and this package at a row's first, so x's coordinates are reversed on
    the way in and out. ``modulus``, a multiple of the determinant of a
    square nonsingular [[I, 0], [a, b]], selects sympy's mod-D algorithm.
    """
    import sympy
    from sympy.matrices.normalforms import hermite_normal_form

    p = a.cols
    top = [[int(i == j) for j in range(p)] + [0] * b.cols for i in range(p)]
    bottom = [list(a.row(i)[::-1]) + list(b.row(i)) for i in range(a.rows)]
    w = hermite_normal_form(sympy.Matrix(top + bottom), D=modulus)
    columns = [[int(x) for x in w.col(j)] for j in range(w.cols)]
    return [c[:p][::-1] for c in reversed(columns) if any(c[:p]) and not any(c[p:])]


def test_kernel_hermite_bases_match_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(3306)
    for t in range(300):
        a, b = random_preimage_input(rng, 2 + t % 3)  # at least one row and one column of a
        assert preimage_lattice(a, b) == sympy_preimage_lattice(a, b), (str(a), str(b))
        if not b.cols:
            ker = integer_kernel(a)
            assert [list(ker.column(j)) for j in range(ker.cols)] == sympy_preimage_lattice(a, b), str(a)
    # a 12 x 24 kernel: sympy's elimination without a modulus takes seconds to minutes from here up
    a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(24)] for _ in range(12)])
    ker = integer_kernel(a)
    assert ker.cols == 12
    assert [list(ker.column(j)) for j in range(ker.cols)] == sympy_preimage_lattice(a, IntMatrix(12, 0, ()))
    # the principal lattice's Y = preimage_lattice(L^T, Lambda) at s = l = 48, by sympy's mod-det algorithm
    n = 48
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        lam = IntMatrix.from_rows(rows)
        det = determinant(lam)
        if det:
            break
    ell_t = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    y = preimage_lattice(ell_t, lam)
    assert len(y) == n
    assert y == sympy_preimage_lattice(ell_t, lam, abs(det))


TWO_KNOTS = {
    "surgery": {"components": ["L1", "L2"], "matrix": [[2, 1], [1, 3]]},
    "link": {
        "components": ["K1", "K2"],
        "lk_with_surgery": [[1, 0], [0, 1]],
        "lk_mutual": [[0, 1], [1, 0]],
    },
}


def test_complement_queries_run_no_smith_form_on_the_complement(monkeypatch):
    inputs = record_smith_forms(monkeypatch)
    comp = complement_homology(load_manifold(TWO_KNOTS))
    assert principal_lattice_basis(comp)
    kummer_cover(comp, Divisor.of({"K1": 2, "K2": 1}), 3)
    # the admissibility check inside kummer_cover reads H1 modulo |det Lambda|
    assert inputs == []
    # the complement has free rank 2 and its invariant factors come modulo |det Lambda| too
    assert comp.modulus is None
    assert comp.invariant_factors == (0, 0)
    assert inputs == []


def test_solve_integer_and_rational_agree():
    rng = random.Random(23)
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        target = [rng.randint(-6, 6) for _ in range(r)]
        x = solve_integer(a, target)
        if x is not None:
            assert a.mul_vector(x) == tuple(target)
        else:
            assert solve_via_smith(a, target) is None
            q = solve_rational(a, target)
            if q is not None:
                # solvable over the rationals but not the integers
                assert any(f.denominator != 1 for f in q) or a.mul_vector(
                    [int(f) for f in q]
                ) != tuple(target)


def random_nonsingular_block(rng: random.Random, t: int, cols: int | None = None) -> IntMatrix:
    """Square or tall, entries up to 50, with a nonsingular leading square block of ``cols`` (else up to 5) columns."""
    if cols is None:
        cols = rng.randint(0 if t % 7 == 0 else 1, 5)
    rows = cols if t % 2 else rng.randint(cols + 1, 7)
    bound = rng.choice((1, 3, 50))
    while True:
        m = IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))
        if determinant(IntMatrix(cols, cols, m.entries[: cols * cols])):
            return m


def test_fraction_free_lu_frozen_examples():
    # solve(e_i) is column i of |det| * the inverse of the leading block
    lu = leading_block_lu(IntMatrix.from_rows([[2, 1], [1, 3]]))
    assert (lu.size, lu.rank, lu.minor) == (2, 2, 5)
    assert (lu.solve([1, 0]), lu.solve([0, 1])) == ((3, -1), (-1, 2))
    # a negative determinant keeps its sign in the minor, and rows below the block are ignored
    lu = leading_block_lu(IntMatrix.from_rows([[-1, 0], [0, 2], [7, 7]]))
    assert (lu.rank, lu.minor, lu.solve([1, 0]), lu.solve([0, 1])) == (2, -2, (-2, 0), (0, 1))
    # a zero leading entry takes a row swap, which flips the sign of the minor
    lu = leading_block_lu(IntMatrix.from_rows([[0, 1], [1, 0]]))
    assert (lu.rank, lu.minor, lu.solve([1, 0]), lu.solve([0, 1])) == (2, -1, (0, 1), (1, 0))
    lu = leading_block_lu(IntMatrix.from_rows([[0, 2, 1], [3, 1, 0], [1, 0, 0]]))
    assert (lu.minor, lu.solve([1, 0, 0]), lu.solve([0, 0, 1])) == (-1, (0, 0, 1), (1, -3, 6))
    for empty in (IntMatrix(0, 0, ()), IntMatrix(3, 0, ())):
        lu = leading_block_lu(empty)
        assert (lu.size, lu.rank, lu.minor, lu.solve([])) == (0, 0, 1, ())
    # fewer rows than columns: no leading square block
    assert leading_block_lu(IntMatrix.from_rows([[1, 2]])) is None
    # a singular block keeps its rank and minor, and refuses to solve
    lu = leading_block_lu(IntMatrix.from_rows([[1, 2], [2, 4], [0, 1]]))
    assert (lu.rank, lu.minor) == (1, 1)
    with pytest.raises(ArithmeticError):
        lu.solve([1, 0])
    with pytest.raises(ValueError):
        leading_block_lu(IntMatrix.identity(2)).solve([1])


def test_fraction_free_lu_solve_matches_the_fraction_solve():
    rng = random.Random(5505)
    blocks = [random_nonsingular_block(rng, t) for t in range(600)]
    for k in (8, 12, 16, 20, 24):  # the sizes of the benchmark's surgery matrices
        for _ in range(3):
            blocks.append(random_nonsingular_block(rng, 1, cols=k))
    for a in blocks:
        k = a.cols
        top = [list(a.row(i)) for i in range(k)]
        lu = leading_block_lu(a)
        det = determinant(IntMatrix(k, k, a.entries[: k * k]))
        assert (lu.rank, lu.minor) == (k, det)
        for c in ([rng.randint(-9, 9) for _ in range(k)], [0] * k, top[0] if k else []):
            assert list(lu.solve(c)) == [abs(det) * x for x in fraction_solve(top, c)]


def test_a_corrupted_fraction_free_lu_raises_arithmetic_error():
    rng = random.Random(7)
    a = random_nonsingular_block(rng, 1, cols=6)
    c = [rng.randint(-9, 9) for _ in range(6)]
    assert list(leading_block_lu(a).solve(c)) == [abs(leading_block_lu(a).minor) * x for x in fraction_solve(a.to_rows(), c)]

    def corrupted(step, part, index=None):
        lu = leading_block_lu(a)
        found, pv, column, row = lu._steps[step]
        if part == "pivot":
            lu._steps[step] = (found, pv + 1, column, row)
        else:
            (column if part == "multiplier" else row)[index] += 1
        return lu

    for lu in (corrupted(0, "multiplier", 2), corrupted(2, "multiplier", 0), corrupted(1, "row", 3), corrupted(0, "pivot"), corrupted(5, "pivot")):
        with pytest.raises(ArithmeticError):
            lu.solve(c)


def solve_via_smith(a: IntMatrix, c) -> list[int] | None:
    """Oracle: a solve through the Smith transforms, U a V = D."""
    snf = smith_normal_form(a)
    uc = snf.u.mul_vector(c)
    diag = snf.diagonal
    w = [0] * a.cols
    for i, x in enumerate(uc):
        d = diag[i] if i < len(diag) else 0
        if d:
            if x % d:
                return None
            w[i] = x // d
        elif x:
            return None
    return list(snf.v.mul_vector(w))


def test_solve_integer_matches_smith_route_on_nonsingular_leading_blocks():
    rng = random.Random(6606)
    outcomes = {"solved": 0, "rational only": 0, "inconsistent": 0}
    for t in range(1500):
        a = random_nonsingular_block(rng, t)
        y = [rng.randint(-6, 6) for _ in range(a.cols)]
        kind = t % 3
        if kind == 0:
            c = list(a.mul_vector(y))
        elif kind == 1:  # a @ (y / d): in the rational span, often not in the integer one
            c = list(a.mul_vector(y))
            content = math.gcd(*c)
            if content:
                d = rng.choice([k for k in range(1, content + 1) if content % k == 0])
                c = [x // d for x in c]
        else:
            c = [rng.randint(-60, 60) for _ in range(a.rows)]
        got = solve_integer(a, c)
        assert got == solve_via_smith(a, c), (str(a), c)
        if got is not None:
            outcomes["solved"] += 1
        elif solve_rational(a, c) is not None:
            outcomes["rational only"] += 1
        else:
            outcomes["inconsistent"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_solve_mod_subgroup_frozen_examples():
    assert solve_mod_subgroup(
        IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[5]]), [3]
    ) == [3]
    assert solve_mod_subgroup(
        IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[5]]), [1]
    ) == [3]
    assert (
        solve_mod_subgroup(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]]), [1])
        is None
    )


def test_solve_mod_subgroup_matches_smith_solve_reduced_against_the_lattice():
    rng = random.Random(7707)
    for t in range(1200):
        a, b = random_preimage_input(rng, t % 5)
        lattice = preimage_lattice(a, b)
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:  # reachable by construction
                x = [rng.randint(-5, 5) for _ in range(a.cols)]
                z = [rng.randint(-5, 5) for _ in range(b.cols)]
                c = [p + q for p, q in zip(a.mul_vector(x), b.mul_vector(z))]
            else:
                c = [rng.randint(-20, 20) for _ in range(a.rows)]
            full = solve_via_smith(hstack(a, b), c)
            expected = None if full is None else lattice_reduce(full[: a.cols], lattice)
            assert solve_mod_subgroup(a, b, c) == expected, (str(a), str(b), c)


def test_element_queries_take_no_smith_form(monkeypatch):
    inputs = record_smith_forms(monkeypatch)
    man = load_manifold(TWO_KNOTS)
    assert [man.knot_order(k) for k in man.knot_names] == [5, 5]
    comp = complement_homology(man, ["K1"])
    assert is_principal(comp, Idele.of({"K1": (0, 5)})) is False
    # Lambda t = (5, 0) gives t = (3, -1), so the meridian correction is lk(K1, L) . t = 3
    assert delta_from_divisor(comp, Divisor.of({"K1": 5})) == Idele.of({"K1": (3, 5)})
    assert is_principal(comp, Idele.of({"K1": (3, 5)})) is True
    assert inputs == []


def test_solve_mod_subgroup_vs_exhaustive():
    # with diagonal moduli the solution lattice contains lcm * Z^n, so a box
    # of side lcm makes the search complete in both directions
    rng = random.Random(31)
    for _ in range(250):
        rows = rng.randint(1, 2)
        ca = rng.randint(1, 2)
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(ca)] for _ in range(rows)])
        moduli = [rng.randint(1, 6) for _ in range(rows)]
        b = IntMatrix.from_rows(
            [[moduli[i] if i == j else 0 for j in range(rows)] for i in range(rows)]
        )
        c = [rng.randint(-4, 4) for _ in range(rows)]
        got = solve_mod_subgroup(a, b, c)
        period = math.lcm(*moduli)
        found = None
        for x in itertools.product(range(period), repeat=ca):
            if all(
                (c[i] - sum(a[i, j] * x[j] for j in range(ca))) % moduli[i] == 0
                for i in range(rows)
            ):
                found = x
                break
        if found is None:
            assert got is None
        else:
            assert got is not None
            assert all(
                (c[i] - sum(a[i, j] * got[j] for j in range(ca))) % moduli[i] == 0
                for i in range(rows)
            )


def test_hermite_basis_is_idempotent_and_spans():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        basis = hermite_row_basis(rows)
        assert hermite_row_basis(basis) == basis
        for row in rows:
            assert lattice_reduce(row, basis) == [0] * n
        for row in basis:
            assert lattice_reduce(row, rows and hermite_row_basis(rows)) == [0] * n


def test_lattice_reduce_fixes_reduced_vectors():
    basis = hermite_row_basis([[2, 0], [0, 3]])
    v = lattice_reduce([7, -5], basis)
    assert lattice_reduce(v, basis) == v
    assert v == [1, 1]


def test_hstack_shapes():
    a = IntMatrix.identity(2)
    b = IntMatrix.zeros(2, 3)
    c = hstack(a, b)
    assert (c.rows, c.cols) == (2, 5)
    with pytest.raises(ValueError):
        hstack(a, IntMatrix.zeros(3, 1))


def test_from_rows_refuses_non_integer_entries():
    for rows in ([[5.9, 2]], [[True, 2]], [["7", 2]], [[1, 2], [3, 4.0]]):
        with pytest.raises(BadInput):
            IntMatrix.from_rows(rows)
        with pytest.raises(BadInput):
            IntMatrix.from_columns(rows)
    with pytest.raises(BadInput):
        FgAbelianGroup(IntMatrix.from_rows([[4.7]]))
    assert IntMatrix.from_rows([[5, -1], [7, 2]]).entries == (5, -1, 7, 2)


def test_constructor_refuses_non_integer_entries():
    # the raw constructor holds the one integer check; from_rows passes through it
    for bad in (4.7, True, "7"):
        with pytest.raises(BadInput, match=r"^matrix entry must be an integer, got "):
            IntMatrix(1, 2, (1, bad))
        with pytest.raises(BadInput, match=r"^matrix entry must be an integer, got "):
            IntMatrix.from_rows([[1, bad]])
    with pytest.raises(BadInput):
        FgAbelianGroup(IntMatrix(1, 1, (4.7,))).invariant_factors
    assert IntMatrix(1, 2, (3, -(2**200))).entries == (3, -(2**200))
    assert hstack(IntMatrix.from_rows([[1], [2]]), IntMatrix.from_rows([[3, 4], [5, 6]])) == IntMatrix.from_rows(
        [[1, 3, 4], [2, 5, 6]]
    )
    assert hstack(IntMatrix.zeros(0, 2), IntMatrix.zeros(0, 3)) == IntMatrix(0, 5, ())
