"""Known answers: linear plumbing chains and star-shaped plumbings, checked against closed forms.

A linear chain is n unknots U_1 ... U_n with framings a_i >= 2, adjacent
ones linked once, so Lambda is tridiagonal: a_i on the diagonal and +1 next
to it. M is a lens space L(p, q) up to orientation, with p/q = [a_1, ..., a_n]
the continued fraction with minus signs (Hirzebruch-Jung). The marked knot
K_i is a meridian of U_i: ell(K_i) = e_i, and the K_i are mutually unlinked
in the 3-sphere (lk_mutual = 0).

The leading continuants theta and the trailing ones phi are

    theta_{-1} = 0, theta_0 = 1,      theta_k = a_k theta_{k-1} - theta_{k-2},
    phi_{n+2} = 0,  phi_{n+1} = 1,    phi_j = a_j phi_{j+1} - phi_{j+2},

and p = theta_n = phi_1 > 0. The inverse of a tridiagonal matrix (Usmani,
Linear Algebra Appl. 1994) is, for i <= j,

    (Lambda^-1)_ij = (-1)^(i+j) theta_{i-1} phi_{j+1} / p.

Sign convention: the library's linking number in M is
lk(J, K) = lk_mutual(J, K) - ell_J Lambda^-1 ell_K^T, so for i < j

    lk(K_i, K_j) = -(-1)^(i+j) theta_{i-1} phi_{j+1} / p.

[K_i] = e_i has the order of the denominator of column i of Lambda^-1,
o_i = p / gcd(p, theta_{i-1}, phi_{i+1}), and its preferred longitude is o_i
times (ell Lambda^-1 ell^T, 1): lambda(K_i) = (o_i theta_{i-1} phi_{i+1} / p, o_i).
H1(M) = Z/p, and the meridian of U_1 has order p, so K_1 alone generates it.

A star is a centre of framing e_0 with k legs; leg i is a chain of framings
b_i1, ..., b_in, read outward from the vertex next to the centre. Lambda
has the framings on its diagonal and +1 between adjacent vertices, so M is
Seifert fibred over the sphere. With the chain's continuants above (minus
signs), alpha_i is the continuant of leg i and beta_i that of leg i
without its first vertex, so alpha_i / beta_i = [b_i1, ..., b_in]. Then

    |H1(M)| = prod_i alpha_i * |e_0 - sum_i beta_i / alpha_i|,

and H1(M) has the invariant factors of the (k + 1) x (k + 1) Seifert
presentation on generators c_1, ..., c_k, h with relations
alpha_i c_i + beta_i h (one per leg) and sum_i c_i + e_0 h. These signs
are the convention: negating every beta_i, or e_0, in both closed forms
breaks the match on most draws.
"""

import random
from fractions import Fraction
from math import gcd, prod

import pytest

from idelink import load_and_validate
from idelink.errors import NotQHS3
from idelink.linalg import IntMatrix, smith_normal_form
from idelink.local import preferred_longitude
from idelink.presentation import SurgeryPresentation


def chain_manifold(a):
    """Surgery on the linear chain with framings a, each U_i marked by its meridian K_i."""
    n = len(a)
    lam = [[a[i] if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    return load_and_validate(
        SurgeryPresentation.build(
            [f"U{i + 1}" for i in range(n)],
            lam,
            [f"K{i + 1}" for i in range(n)],
            [[int(i == j) for j in range(n)] for i in range(n)],
            [[0] * n for _ in range(n)],
        )
    )


def continuants(a):
    """theta[k + 1] = theta_k for k = -1 .. n, and phi[j] = phi_j for j = 1 .. n + 2 (phi[0] unused)."""
    n = len(a)
    theta = [0, 1]
    for k in range(1, n + 1):
        theta.append(a[k - 1] * theta[-1] - theta[-2])
    phi = [0] * (n + 3)
    phi[n + 1] = 1
    for j in range(n, 0, -1):
        phi[j] = a[j - 1] * phi[j + 1] - phi[j + 2]
    return theta, phi


@pytest.mark.parametrize("n", [3, 10, 30, 60])
def test_linear_chain_matches_the_continuant_closed_forms(n):
    rng = random.Random(n)
    a = [rng.randint(2, 5) for _ in range(n)]
    man = chain_manifold(a)
    theta, phi = continuants(a)
    p = theta[n + 1]
    assert p == phi[1] > 1

    assert man.h1.invariant_factors == (p,)
    for i in range(1, n + 1):
        k = f"K{i}"
        before, after = theta[i], phi[i + 1]  # theta_{i-1}, phi_{i+1}
        order = p // gcd(p, before, after)
        assert man.knot_order(k) == order, k
        ld = preferred_longitude(man, k)
        assert (ld.lambda_class.meridian, ld.lambda_class.longitude) == (order * before * after // p, order), k
    assert man.generates_h1(["K1"])

    for _ in range(3):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        expected = Fraction(-((-1) ** (i + j)) * theta[i] * phi[j + 1], p)
        assert man.linking_number(f"K{i}", f"K{j}") == expected, (i, j)


def continuant(a):
    """theta_n of the framings a, with the chain's minus signs."""
    before, theta = 0, 1
    for x in a:
        before, theta = theta, x * theta - before
    return theta


def star_matrix(e0, legs, drop_last_adjacency=False):
    """Lambda of the star: vertex 0 is the centre, then each leg's vertices, read outward.

    With ``drop_last_adjacency`` the outermost adjacency of the last leg is
    left out, which the closed forms do not know about.
    """
    framings = [e0] + [b for leg in legs for b in leg]
    lam = [[b if i == j else 0 for j in range(len(framings))] for i, b in enumerate(framings)]
    edges, v = [], 1
    for leg in legs:
        prev = 0
        for _ in leg:
            edges.append((prev, v))
            prev, v = v, v + 1
    if drop_last_adjacency:
        edges.pop()
    for i, j in edges:
        lam[i][j] = lam[j][i] = 1
    return lam


def star_answers(e0, legs, lam):
    """(H1(M) of surgery on lam, the closed-form |H1|, the Seifert presentation's non-unit Smith diagonal).

    None when det lam = 0. The diagonal comes from ``smith_normal_form``,
    not from H1's modular route.
    """
    try:
        man = load_and_validate(SurgeryPresentation.build([f"U{i}" for i in range(len(lam))], lam, [], [], []))
    except NotQHS3:
        return None
    alpha = [continuant(leg) for leg in legs]
    beta = [continuant(leg[1:]) for leg in legs]
    order = prod(alpha) * abs(e0 - sum(Fraction(b, a) for a, b in zip(alpha, beta)))
    k = len(legs)
    rows = [[a if j == i else 0 for j in range(k)] + [b] for i, (a, b) in enumerate(zip(alpha, beta))]
    rows.append([1] * k + [e0])
    factors = tuple(x for x in smith_normal_form(IntMatrix.from_rows(rows)).diagonal if x != 1)
    return man.h1, order, factors


def random_stars(count):
    """Stars with 3 to 5 legs of 1 to 4 vertices, framings 2 to 5 and e_0 in [-3, 3]."""
    rng = random.Random(1)
    for _ in range(count):
        legs = [[rng.randint(2, 5) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(3, 5))]
        yield rng.randint(-3, 3), legs


def test_seifert_stars_match_the_closed_forms():
    checked = noncyclic = 0
    for e0, legs in random_stars(300):
        answers = star_answers(e0, legs, star_matrix(e0, legs))
        if answers is None:
            continue
        h1, order, factors = answers
        assert h1.order() == order, (e0, legs)
        assert h1.invariant_factors == factors, (e0, legs)
        checked += 1
        noncyclic += len(factors) > 1
    assert checked >= 250 and noncyclic >= 50, (checked, noncyclic)


def test_star_checks_fail_on_a_star_with_a_dropped_adjacency():
    """The same closed forms against Lambda missing one adjacency of the last leg: both checks must fail."""
    checked = 0
    for e0, legs in random_stars(300):
        answers = star_answers(e0, legs, star_matrix(e0, legs, drop_last_adjacency=True))
        if answers is None:
            continue
        h1, order, factors = answers
        assert h1.order() != order, (e0, legs)
        assert h1.invariant_factors != factors, (e0, legs)
        checked += 1
    assert checked >= 250, checked


def test_a_201_component_star_matches_the_closed_forms():
    rng = random.Random(5)
    legs = [[rng.randint(2, 5) for _ in range(50)] for _ in range(4)]
    h1, order, factors = star_answers(-1, legs, star_matrix(-1, legs))
    assert h1.generator_count == 201
    assert h1.order() == order and order > 2**300
    assert h1.invariant_factors == factors
