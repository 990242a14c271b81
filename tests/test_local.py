"""Peripheral classes, valuations, the local pairing, preferred longitudes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idelink.errors import DivisorNotPrincipal, KnotOutsideLink, MismatchedKnot, UnknownKnot
from idelink.ideles import Divisor, Idele, delta_solution, idele_coords
from idelink.linalg import preimage_lattice
from idelink.local import (
    PeripheralClass,
    complement_homology,
    local_intersection,
    preferred_longitude,
    valuation,
)

from conftest import HOPF, manifold, random_manifold
from oracles import fraction_solve


def test_peripheral_arithmetic():
    a = PeripheralClass("K", 2, -1)
    b = PeripheralClass("K", 1, 4)
    assert a + b == PeripheralClass("K", 3, 3)
    assert a - b == PeripheralClass("K", 1, -5)
    assert 3 * a == PeripheralClass("K", 6, -3)
    assert (-a).meridian == -2
    assert PeripheralClass("K", 0, 0).is_zero()
    with pytest.raises(MismatchedKnot):
        a + PeripheralClass("other", 0, 0)


def test_valuation_and_intersection_values():
    assert valuation(PeripheralClass("K", 7, 3)) == 3
    assert valuation(PeripheralClass("K", 7, 0)) == 0
    assert local_intersection(PeripheralClass("K", 1, 0), PeripheralClass("K", 0, 1)) == 1
    assert local_intersection(PeripheralClass("K", 0, 1), PeripheralClass("K", 1, 0)) == -1
    with pytest.raises(MismatchedKnot):
        local_intersection(PeripheralClass("K", 1, 0), PeripheralClass("J", 0, 1))


@settings(max_examples=100, deadline=None)
@given(*(st.integers(-50, 50) for _ in range(6)))
def test_intersection_is_antisymmetric_and_bilinear(x1, y1, x2, y2, x3, y3):
    a = PeripheralClass("K", x1, y1)
    b = PeripheralClass("K", x2, y2)
    c = PeripheralClass("K", x3, y3)
    assert local_intersection(a, b) == -local_intersection(b, a)
    assert local_intersection(a + b, c) == local_intersection(a, c) + local_intersection(b, c)
    assert local_intersection(a, b + c) == local_intersection(a, b) + local_intersection(a, c)
    assert valuation(a + b) == valuation(a) + valuation(b)


def test_lens5_complement(lens5):
    comp = complement_homology(lens5)
    # H1(M - K) for the core of the glued torus is free of rank one
    assert comp.group.invariant_factors == (0,)
    assert comp.meridian_coords("K") == (0, 1)
    assert comp.longitude_coords("K") == (1, 0)
    assert comp.class_of(PeripheralClass("K", 0, 0)).is_zero()
    assert not comp.class_of(PeripheralClass("K", 1, 0)).is_zero()
    with pytest.raises(KnotOutsideLink):
        comp.meridian_coords("missing")


def test_hopf_complement(hopf):
    comp = complement_homology(hopf)
    assert comp.group.invariant_factors == (0, 0)
    # each longitude reads the other component's meridian
    assert comp.longitude_coords("K1") == (0, 1)
    assert comp.longitude_coords("K2") == (1, 0)
    pm = comp.peripheral_matrix()
    assert (pm.rows, pm.cols) == (2, 4)


def test_truncated_complement(hopf):
    comp = complement_homology(hopf, ["K1"])
    assert comp.link == ("K1",)
    # the dropped component no longer contributes to the longitude
    assert comp.longitude_coords("K1") == (0,)
    with pytest.raises(KnotOutsideLink):
        comp.longitude_coords("K2")


def test_preferred_longitude_lens5(lens5):
    ld = preferred_longitude(lens5, "K")
    assert (ld.lambda_class.meridian, ld.lambda_class.longitude) == (1, 5)
    assert ld.index == 5
    assert ld.is_basis is False
    assert ld.index == lens5.knot_order("K")


def test_preferred_longitude_unknot(hopf):
    ld = preferred_longitude(hopf, "K1")
    assert (ld.lambda_class.meridian, ld.lambda_class.longitude) == (0, 1)
    assert ld.index == 1
    assert ld.is_basis is True


def test_preferred_longitude_can_be_nonprimitive(lens4_twice):
    # knot class has order 2 in Z/4; the kernel generator is (2, 2), which is
    # twice a primitive vector of the peripheral lattice
    ld = preferred_longitude(lens4_twice, "K")
    assert (ld.lambda_class.meridian, ld.lambda_class.longitude) == (2, 2)
    assert ld.index == 2
    assert ld.is_basis is False
    assert lens4_twice.knot_order("K") == 2


def test_longitude_lies_in_kernel_and_index_matches_order():
    cases = [
        {
            "surgery": {"components": ["L1"], "matrix": [[m]]},
            "link": {"components": ["K"], "lk_with_surgery": [[c]], "lk_mutual": [[0]]},
        }
        for m in (1, 2, 3, 4, 5, -5)
        for c in (0, 1, 2, 3)
    ] + [HOPF]
    for data in cases:
        man = manifold(data)
        for k in man.knot_names:
            ld = preferred_longitude(man, k)
            comp = complement_homology(man, [k])
            assert comp.class_of(ld.lambda_class).is_zero()
            assert ld.index == man.knot_order(k)
            assert valuation(ld.lambda_class) % man.knot_order(k) == 0


def longitude_via_kernel(man, knot):
    """Oracle: the peripheral kernel of the one-knot complement, longitude made positive."""
    comp = complement_homology(man, (knot,))
    (x, y), = preimage_lattice(comp.peripheral_matrix(), comp.relations)
    return (x, y) if y > 0 else (-x, -y)


def test_closed_form_longitude_matches_the_peripheral_kernel():
    rng = random.Random(7707)
    knots = nonbasis = 0
    for _ in range(320):
        man = random_manifold(rng, 7, 3, rng.choice((2, 5, 12)))
        for k in man.knot_names:
            ld = preferred_longitude(man, k)
            got = (ld.lambda_class.meridian, ld.lambda_class.longitude)
            assert got == longitude_via_kernel(man, k), (man.presentation, k)
            assert ld.index == man.knot_order(k) == got[1]
            knots += 1
            nonbasis += not ld.is_basis
    assert knots > 600 and nonbasis > 300, (knots, nonbasis)


def test_longitude_of_an_undeclared_knot_is_refused(lens5):
    with pytest.raises(UnknownKnot):
        preferred_longitude(lens5, "missing")


def test_complement_group_shares_the_inverse_of_lambda():
    rng = random.Random(4411)
    seen_empty_surgery = False
    for _ in range(40):
        man = random_manifold(rng, 5, 4, 5)
        seen_empty_surgery |= not man.surgery_names
        knots = list(man.knot_names)
        for link in (None, knots[:1], knots[-2:], rng.sample(knots, rng.randint(1, len(knots)))):
            comp = complement_homology(man, link)
            assert comp.group.block_inverse is man.h1.block_inverse
    assert seen_empty_surgery


def test_stage_table_matches_the_module_formulas_entry_by_entry():
    """Relations, peripheral table, idele coordinates and delta against the ``local`` docstring."""
    rng = random.Random(9311)
    empty_surgery = gaps = principal = refused = 0
    for _ in range(200):
        man = random_manifold(rng, 4, 5, 5)
        pres = man.presentation
        s, knots = len(man.surgery_names), list(man.knot_names)
        lam, ell, mut = pres.surgery_matrix, pres.lk_with_surgery, pres.lk_mutual
        selections = [[rng.choice(knots)], knots[::2], rng.sample(knots, len(knots))]
        selections.append(rng.sample(knots, rng.randint(1, len(knots))))
        for chosen in selections:
            comp = complement_homology(man, chosen)
            link = comp.link
            assert link == tuple(k for k in knots if k in chosen)
            rows = [man.knot_index(k) for k in link]
            l, n = len(link), s + len(link)
            empty_surgery += s == 0
            gaps += rows != list(range(rows[0], rows[0] + l))

            rel = comp.relations
            assert (rel.rows, rel.cols) == (n, s)
            for j in range(s):
                for i in range(s):
                    assert rel[i, j] == lam[j, i]
                for a in range(l):
                    assert rel[s + a, j] == ell[rows[a], j]

            meridian, longitude = {}, {}
            for a, k in enumerate(link):
                meridian[k] = tuple(int(i == s + a) for i in range(n))
                longitude[k] = tuple(ell[rows[a], j] for j in range(s)) + tuple(
                    0 if b == a else mut[rows[a], rows[b]] for b in range(l)
                )
                assert comp.meridian_coords(k) == meridian[k]
                assert comp.longitude_coords(k) == longitude[k]
                x, y = rng.randint(-9, 9), rng.randint(-9, 9)
                expected = tuple(x * m + y * t for m, t in zip(meridian[k], longitude[k]))
                assert comp.peripheral_coords(PeripheralClass(k, x, y)) == expected

            pm = comp.peripheral_matrix()
            assert (pm.rows, pm.cols) == (n, 2 * l)
            for a, k in enumerate(link):
                for i in range(n):
                    assert (pm[i, 2 * a], pm[i, 2 * a + 1]) == (meridian[k][i], longitude[k][i])

            pairs = {k: (rng.randint(-9, 9), rng.randint(-9, 9)) for k in link}
            expected = [0] * n
            for k, (x, y) in pairs.items():
                for i in range(n):
                    expected[i] += x * meridian[k][i] + y * longitude[k][i]
            assert idele_coords(comp, Idele.of(pairs)) == tuple(expected)

            d = {k: rng.randint(-4, 4) for k in link}
            if s and rng.random() < 0.5:
                d = {k: c * man.h1.modulus for k, c in d.items()}  # always principal
            rhs = [sum(d[k] * ell[i, j] for k, i in zip(link, rows)) for j in range(s)]
            exact = fraction_solve(lam.to_rows(), rhs) if s else []
            if any(v.denominator != 1 for v in exact):
                with pytest.raises(DivisorNotPrincipal):
                    delta_solution(comp, Divisor.of(d))
                refused += 1
                continue
            t, idele = delta_solution(comp, Divisor.of(d))
            assert t == [int(v) for v in exact]
            for a, k in enumerate(link):
                x = sum(ell[rows[a], j] * t[j] for j in range(s))
                x -= sum(mut[rows[a], rows[b]] * d[link[b]] for b in range(l) if b != a)
                assert idele.component(k) == PeripheralClass(k, x, d[k])
            principal += 1
    assert empty_surgery and gaps, (empty_surgery, gaps)
    assert principal > 300 and refused > 100, (principal, refused)
