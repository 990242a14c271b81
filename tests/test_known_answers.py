"""Known answers: linear plumbing chains, checked against closed forms.

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
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from idelink import load_and_validate
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
