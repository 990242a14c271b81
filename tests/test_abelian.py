import math
import random

import pytest

from idelink.abelian import FgAbelianGroup, GroupElement, element_order, subgroup_invariant_factors
from idelink.errors import BadDimensions, BadInput
from idelink.linalg import IntMatrix, determinant, smith_normal_form
from idelink.local import complement_homology

from conftest import random_manifold


def group(gens, relation_columns):
    return FgAbelianGroup(IntMatrix.from_columns(relation_columns, rows=gens))


def solves_on_the_leading_block(g: FgAbelianGroup) -> bool:
    lu = g.block_lu
    return lu is not None and lu.rank == lu.size


def test_invariant_factors():
    assert group(1, [[5]]).invariant_factors == (5,)
    assert group(2, [[2, 1], [1, 2]]).invariant_factors == (3,)
    assert group(2, [[2, 0], [0, 3]]).invariant_factors == (6,)
    assert group(1, []).invariant_factors == (0,)
    assert group(2, [[2, 0]]).invariant_factors == (2, 0)
    assert group(1, [[1]]).invariant_factors == ()


def test_order_and_triviality():
    assert group(1, [[5]]).order() == 5
    assert group(1, []).order() is None
    assert group(1, [[1]]).order() == 1
    assert group(1, [[1]]).is_trivial()
    assert not group(1, [[5]]).is_trivial()


def test_element_equality_modulo_relations():
    g = group(1, [[5]])
    assert g.element([3]) + g.element([4]) == g.element([2])
    assert g.element([5]).is_zero()
    assert -g.element([2]) == g.element([3])
    assert 7 * g.element([1]) == g.element([2])
    assert g.element([1]) != g.element([2])


def test_quotient_appends_generators_to_relations():
    g = group(2, [[4, 0], [0, 6]])
    assert g.quotient([]) == g
    assert g.quotient([(2, 0), (0, 3)]) == group(2, [[4, 0], [0, 6], [2, 0], [0, 3]])
    assert g.quotient([(2, 0), (0, 3)]).invariant_factors == (6,)
    assert g.quotient([(2, 0)]).invariant_factors == (2, 6)
    assert g.quotient([(1, 0), (0, 1)]).is_trivial()
    assert not g.quotient([(2, 0), (0, 1)]).is_trivial()
    assert group(2, []).quotient([(1, 2)]).invariant_factors == (0,)
    assert group(0, []).quotient([()]).is_trivial()
    with pytest.raises(BadDimensions):
        g.quotient([(1,)])


def test_order_matches_invariant_factors():
    # square presentations read their rank and |det| off the block LU; is_trivial() is order() == 1
    rng = random.Random(5505)
    seen = {"square nonsingular": 0, "square singular": 0, "not square": 0}
    for t in range(900):
        gens = rng.randint(0, 4)
        cols = rng.randint(0, 6) if t % 3 == 0 else gens
        bound = rng.choice((1, 3, 20))
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(gens)]
        if t % 3 == 1 and gens >= 2:
            m[-1] = m[0][:]
        g = FgAbelianGroup(IntMatrix.from_rows(m) if gens else IntMatrix(0, cols, ()))
        order, is_trivial = g.order(), g.is_trivial()
        factors = g.invariant_factors
        assert order == (None if 0 in factors else math.prod(factors))
        assert is_trivial == (factors == ())
        if cols != gens:
            seen["not square"] += 1
        else:
            seen["square nonsingular" if solves_on_the_leading_block(g) else "square singular"] += 1
    assert min(seen.values()) > 100, seen
    # wide quotients of finite groups, stages, their cokernels and groups with no generators
    # read |det| or the Hermite pivots, never the invariant factors
    kinds = ("wide quotient", "stage", "cokernel", "no generators")
    trivial = 0
    for t in range(400):
        kind = kinds[t % 4]
        if kind == "wide quotient":
            n = rng.randint(1, 5)
            bound = rng.choice((1, 3, 20))
            while True:
                h = FgAbelianGroup(IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]))
                if h.modulus is not None:
                    break
            g = h.quotient([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rng.randint(1, 3))])
        elif kind == "no generators":
            g = group(0, [()] * rng.randint(0, 3))
        else:
            man = random_manifold(rng, 4, 4, rng.choice((2, 3, 5)))
            names = list(man.knot_names)
            link = man.sublink(rng.sample(names, rng.randint(1, len(names))))
            g = complement_homology(man, link) if kind == "stage" else man.knot_quotient(link)
        order, is_trivial = g.order(), g.is_trivial()
        factors = g.invariant_factors
        assert order == (None if 0 in factors else math.prod(factors)), (kind, g.relations)
        assert is_trivial == (factors == ()), (kind, g.relations)
        trivial += is_trivial
    assert trivial >= 100, trivial


def test_element_order():
    z5 = group(1, [[5]])
    assert element_order(z5.element([1])) == 5
    assert element_order(z5.element([0])) == 1
    assert element_order(z5.zero()) == 1

    z6 = group(1, [[6]])
    assert element_order(z6.element([2])) == 3
    assert element_order(z6.element([3])) == 2

    free = group(1, [])
    assert element_order(free.element([1])) is None
    assert element_order(free.element([0])) == 1

    mixed = group(2, [[4, 0]])  # Z/4 + Z
    assert element_order(mixed.element([2, 0])) == 2
    assert element_order(mixed.element([1, 1])) is None


def test_element_order_frozen_examples_with_nonsingular_leading_block():
    # Z^2 / <(2, 1), (1, 3)> is Z/5, generated by e1 with e2 = -2 e1 = 3 e1
    z5 = group(2, [[2, 1], [1, 3]])
    # the LU solves relations @ t = 5 * e_i: the columns of 5 * relations^-1
    assert (z5.block_lu.minor, z5.block_lu.solve([1, 0]), z5.block_lu.solve([0, 1])) == (5, (3, -1), (-1, 2))
    assert element_order(z5.element([1, 0])) == 5
    assert element_order(z5.element([2, 1])) == 1
    assert z5.element([0, 1]) == z5.element([3, 0])
    # Z^3 / <(2, 0, 4), (0, 3, 3)>: a tall presentation of Z/6 + Z
    tall = group(3, [[2, 0, 4], [0, 3, 3]])
    assert (tall.block_lu.minor, tall.block_lu.solve([1, 0]), tall.block_lu.solve([0, 1])) == (6, (3, 0), (0, 2))
    assert element_order(tall.element([1, 0, 2])) == 2
    assert element_order(tall.element([1, 1, 3])) == 6
    assert element_order(tall.element([1, 0, 0])) is None
    assert element_order(tall.element([2, 3, 7])) == 1
    # a singular leading block takes the lattice route: Z^2 / <(2, 0), (0, 0)>
    singular = group(2, [[2, 0], [0, 0]])
    assert (singular.block_lu.rank, singular.block_lu.size) == (1, 2)
    assert element_order(singular.element([1, 0])) == 2


def order_via_smith(g: FgAbelianGroup, coords) -> int | None:
    """Oracle: walk U @ x against the Smith diagonal of the relations."""
    snf = smith_normal_form(g.relations)
    diag = snf.diagonal
    n = 1
    for i, x in enumerate(snf.u.mul_vector(coords)):
        d = diag[i] if i < len(diag) else 0
        if d:
            n = math.lcm(n, d // math.gcd(d, x))
        elif x:
            return None
    return n


def test_element_order_matches_smith_route():
    rng = random.Random(4404)
    seen = {"zero": 0, "finite": 0, "infinite": 0, "no inverse zero": 0, "no inverse finite": 0, "no inverse infinite": 0}
    for t in range(3600):
        bound = rng.choice((1, 3, 50))
        if t % 4 == 3:  # square or wide with a singular leading block: no block inverse
            rows = rng.randint(1, 5)
            cols = rows + rng.randint(0, 3)
            scale = rng.choice((1, 2, 6))  # torsion even where the relations span a full-rank lattice
            m = [[scale * rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            k = rng.randint(-2, 2) if rows > 1 else 0
            for row in m:
                row[rows - 1] = k * row[0]
            if rng.random() < 0.6:  # a dependent generator row: free rank, so infinite orders
                m[-1] = [2 * x for x in m[0]] if rows > 1 else [0] * cols
            prefix = "no inverse "
        else:
            cols = rng.randint(1, 5)
            rows = cols if t % 2 else rng.randint(cols + 1, 7)  # square, then tall
            while True:
                m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
                if determinant(IntMatrix.from_rows(m[:cols])):
                    break
            prefix = ""
        g = FgAbelianGroup(IntMatrix.from_rows(m))
        assert (not solves_on_the_leading_block(g)) == bool(prefix)
        kind = t % 3
        if kind == 0:  # a random vector: finite order when square, else mostly infinite
            x = [rng.randint(-bound, bound) for _ in range(rows)]
        else:  # a relation combination divided by part of its content: finite order
            y = [rng.randint(-4, 4) for _ in range(cols)]
            x = list(g.relations.mul_vector(y))
            content = math.gcd(*x)
            if kind == 2 and content:
                d = rng.choice([k for k in range(1, content + 1) if content % k == 0])
                x = [v // d for v in x]
        got = element_order(g.element(x))
        assert got == order_via_smith(g, x), (m, x)
        seen[prefix + ("infinite" if got is None else "zero" if got == 1 else "finite")] += 1
    assert min(seen.values()) > 100, seen


def test_subgroup_invariant_factors():
    z6 = group(1, [[6]])
    assert subgroup_invariant_factors(z6, [[2]]) == (3,)
    assert subgroup_invariant_factors(z6, [[1]]) == (6,)
    assert subgroup_invariant_factors(z6, [[0]]) == ()

    z2z = group(2, [[2, 0]])
    assert subgroup_invariant_factors(z2z, [[1, 0]]) == (2,)
    assert subgroup_invariant_factors(z2z, [[0, 1]]) == (0,)
    assert subgroup_invariant_factors(z2z, [[1, 0], [0, 1]]) == (2, 0)
    with pytest.raises(BadDimensions):
        subgroup_invariant_factors(z2z, [[1, 0, 0]])
    with pytest.raises(BadInput):
        subgroup_invariant_factors(z2z, [[1.0, 0]])

    # no generators: the trivial subgroup, by the general route
    for g in (z6, z2z, group(0, [])):
        assert subgroup_invariant_factors(g, []) == ()


def nonzero_smith_diagonal(rel: IntMatrix) -> list[int]:
    return [d for d in smith_normal_form(rel).diagonal if d]


def factors_via_smith(g: FgAbelianGroup) -> tuple[int, ...]:
    """Oracle: the diagonal of the full Smith form, units dropped, one 0 per free factor."""
    nonzero = nonzero_smith_diagonal(g.relations)
    return tuple(d for d in nonzero if d != 1) + (0,) * (g.generator_count - len(nonzero))


def test_invariant_factors_modulo_the_determinant_match_the_full_smith_form():
    rng = random.Random(6606)
    kinds = ("square", "cyclic", "singular leading block", "square singular or tall", "rank-deficient wide")
    full_rank = kinds[:3]
    seen = dict.fromkeys(kinds, 0)
    for t in range(2000):
        gens = rng.randint(1, 6)
        bound = rng.choice((1, 5, 50))
        name = kinds[t % 5]
        if name == "square":
            while True:
                m = [[rng.randint(-bound, bound) for _ in range(gens)] for _ in range(gens)]
                if determinant(IntMatrix.from_rows(m)):
                    break
        elif name == "cyclic":  # a cover target diag(n_1, ..., n_t)
            orders = [rng.randint(1, bound + 1) for _ in range(gens)]
            m = [[n if i == j else 0 for j in range(gens)] for i, n in enumerate(orders)]
        elif name == "square singular or tall":  # rank below gens
            cols = rng.randint(0, gens - 1) if rng.random() < 0.5 or gens == 1 else gens
            m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(gens)]
            if cols == gens:
                m[-1] = [2 * x for x in m[0]]
        elif name == "singular leading block":  # wide of full rank
            cols = gens + rng.randint(1, 3)
            while True:
                m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(gens)]
                for row in m:
                    row[gens - 1] = 3 * row[0] if gens > 1 else 0
                if len(nonzero_smith_diagonal(IntMatrix.from_rows(m))) == gens:
                    break
        else:  # wide with a dependent generator row
            cols = gens + rng.randint(1, 3)
            m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(gens)]
            m[-1] = [-x for x in m[0]] if gens > 1 else [0] * len(m[0])
        rel = IntMatrix.from_rows(m) if m and m[0] else IntMatrix(gens, 0, ())
        g = FgAbelianGroup(rel)
        factors = factors_via_smith(g)
        assert g.invariant_factors == factors, (name, m)
        # finite exactly when the relations have full rank, and then a multiple of the order
        finite = len(nonzero_smith_diagonal(rel)) == gens
        assert (g.modulus is not None) == finite == (name in full_rank), (name, m)
        if finite:
            assert g.modulus % math.prod(factors) == 0
        if name == "square":
            assert g.modulus == abs(determinant(g.relations))
        elif name == "cyclic":
            assert g.modulus == math.prod(orders)
        seen[name] += 1
        vectors = [[rng.randint(-bound, bound) for _ in range(gens)] for _ in range(rng.randint(0, 4))]
        q = g.quotient(vectors)
        if finite:  # the quotient's minor is the parent's order, its own first full-rank minor
            assert q.modulus == g.order() == FgAbelianGroup(q.relations).modulus
        assert q.invariant_factors == factors_via_smith(q), (name, q.relations)
    assert min(seen.values()) > 100, seen


def test_modulus_is_a_maximal_minor_exactly_when_finite():
    assert group(2, [[2, 0], [0, 3], [1, 1]]).modulus == 6
    # the leading block is singular, the minor on columns 1 and 3 is not
    assert group(2, [[2, 4], [1, 2], [0, 5]]).modulus == 10
    assert group(2, [[2, 4], [1, 2], [0, 5]]).invariant_factors == (5,)
    assert group(2, [[2, 4], [1, 2]]).modulus is None
    assert group(2, [[2, 4], [1, 2]]).invariant_factors == (0,)
    assert group(2, [[2, 0]]).modulus is None
    assert group(2, []).modulus is None
    assert group(0, []).modulus == 1
    assert group(0, []).invariant_factors == ()


def symmetric(rng, n, bound):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def test_invariant_factors_match_sympy_at_48():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    def expected(rows):
        return tuple(int(x) for x in sympy_factors(sympy.Matrix(rows), domain=sympy.ZZ) if x != 1)

    rng = random.Random(48)
    n = 48
    while True:
        lam = symmetric(rng, n, 5)
        if determinant(IntMatrix.from_rows(lam)):
            break
    h1 = FgAbelianGroup(IntMatrix.from_rows(lam))
    assert h1.invariant_factors == expected(lam)
    # 48 x 96: H1 modulo six times 48 random classes, so the quotient is nontrivial
    classes = [[6 * rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    q = h1.quotient(classes)
    assert (q.relations.rows, q.relations.cols) == (48, 96)
    assert q.invariant_factors == expected(q.relations.to_rows())
    assert q.invariant_factors


def test_element_coordinates_must_be_integers():
    z5 = group(1, [[5]])
    assert z5.element([7]).coords == (7,)
    for bad in ([1.5], [2.0], [True], ["3"]):
        with pytest.raises(BadInput):
            z5.element(bad)
    with pytest.raises(BadInput):
        z5.quotient([[0.5]])


@pytest.mark.parametrize(
    "coords, error",
    [((True,), BadInput), ((5.0,), BadInput), ((1, 2), BadDimensions)],
    ids=["bool", "float", "length"],
)
def test_a_directly_built_element_checks_its_coordinates(coords, error):
    z5 = group(1, [[5]])
    with pytest.raises(error):
        GroupElement(z5, coords)


def test_element_scalars_must_be_integers(lens5):
    knot = lens5.knot_class("K")
    assert (3 * knot).coords == (3,)
    for bad in (2.5, 2.0, True, "3"):
        with pytest.raises(BadInput):
            bad * knot


def test_group_equality_is_presentation_equality():
    assert group(1, [[5]]) == group(1, [[5]])
    assert group(1, [[5]]) != group(1, [[6]])
