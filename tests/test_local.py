"""Peripheral classes, valuations, the local pairing, preferred longitudes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idelink.abelian import element_order
from idelink import linalg
from idelink.errors import BadInput, DivisorNotPrincipal, KnotOutsideLink, MismatchedKnot, SupportOutsideLink, UnknownKnot
from idelink.ideles import Divisor, Idele, delta_from_divisor, delta_solution, idele_coords
from idelink.linalg import FractionFreeLU, preimage_lattice, smith_normal_form
from idelink.local import (
    PeripheralClass,
    complement_homology,
    local_intersection,
    preferred_longitude,
    valuation,
)

from conftest import HOPF, count_linear_algebra, load_manifold, random_manifold
from oracles import fraction_solve, peripheral_matrix


def test_peripheral_arithmetic():
    a = PeripheralClass("K", 2, -1)
    b = PeripheralClass("K", 1, 4)
    assert a + b == PeripheralClass("K", 3, 3)
    assert a - b == PeripheralClass("K", 1, -5)
    assert 3 * a == PeripheralClass("K", 6, -3)
    with pytest.raises(BadInput):
        2.5 * a
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


def test_peripheral_coefficients_must_be_integers():
    for bad in (0.5, 1.0, True, "1"):
        # a float pair would pair to -1.0, and a stage would read True as meridian 1
        with pytest.raises(BadInput):
            PeripheralClass("K", bad, 1)
        with pytest.raises(BadInput):
            PeripheralClass("K", 1, bad)


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
    assert comp.invariant_factors == (0,)
    assert comp.meridian_coords("K") == (0, 1)
    assert comp.longitude_coords("K") == (1, 0)
    assert comp.class_of(PeripheralClass("K", 0, 0)).is_zero()
    assert not comp.class_of(PeripheralClass("K", 1, 0)).is_zero()
    with pytest.raises(UnknownKnot):
        comp.meridian_coords("missing")


def test_hopf_complement(hopf):
    comp = complement_homology(hopf)
    assert comp.invariant_factors == (0, 0)
    # each longitude reads the other component's meridian
    assert comp.longitude_coords("K1") == (0, 1)
    assert comp.longitude_coords("K2") == (1, 0)


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
        man = load_manifold(data)
        for k in man.knot_names:
            ld = preferred_longitude(man, k)
            comp = complement_homology(man, [k])
            assert comp.class_of(ld.lambda_class).is_zero()
            assert ld.index == man.knot_order(k)
            assert valuation(ld.lambda_class) % man.knot_order(k) == 0


def longitude_via_kernel(man, knot):
    """Oracle: the peripheral kernel of the one-knot complement, longitude made positive."""
    comp = complement_homology(man, (knot,))
    (x, y), = preimage_lattice(peripheral_matrix(comp), comp.relations)
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
    for _ in range(2):
        with pytest.raises(UnknownKnot):
            preferred_longitude(lens5, "missing")
        assert preferred_longitude(lens5, "K").index == 5


def test_longitude_and_delta_read_the_cached_solve_as_the_generic_routes_do():
    """Longitudes against the element order, delta's t against the Fraction solve of sum d_K ell_K."""
    rng = random.Random(5151)
    knots = solved = 0
    for _ in range(220):
        man = random_manifold(rng, 5, 5, rng.choice((2, 3, 5)))
        s = len(man.surgery_names)
        ell = man.presentation.lk_with_surgery
        for k in man.knot_names:
            ld = preferred_longitude(man, k)
            assert ld.index == ld.lambda_class.longitude == element_order(man.knot_class(k))
            assert preferred_longitude(man, k) == ld
            knots += 1
        link = man.sublink(rng.sample(man.knot_names, rng.randint(1, len(man.knot_names))))
        comp = complement_homology(man, link)
        d = {k: rng.randint(-3, 3) * rng.choice((1, man.knot_order(k))) for k in link}
        rhs = [sum(c * ell[man.knot_index(k), j] for k, c in d.items()) for j in range(s)]
        exact = fraction_solve(man.surgery_matrix.to_rows(), rhs)
        if any(x.denominator != 1 for x in exact):
            with pytest.raises(DivisorNotPrincipal):
                delta_solution(comp, Divisor.of(d))
            continue
        t, _ = delta_solution(comp, Divisor.of(d))
        assert t == exact
        solved += 1
    assert knots >= 600 and solved >= 100, (knots, solved)


def test_a_second_longitude_or_delta_query_runs_no_linear_algebra(monkeypatch):
    rng = random.Random(62)
    man = random_manifold(rng, 5, 5, 5)
    while not man.surgery_names:
        man = random_manifold(rng, 5, 5, 5)
    comp = complement_homology(man)
    divisor = Divisor.of({k: man.knot_order(k) for k in man.knot_names})
    first = [preferred_longitude(man, k) for k in man.knot_names], delta_from_divisor(comp, divisor)
    counts = count_linear_algebra(monkeypatch)
    assert ([preferred_longitude(man, k) for k in man.knot_names], delta_from_divisor(comp, divisor)) == first
    assert counts == {"mul_vector": 0, "solve": 0, "element_order": 0, "FgAbelianGroup": 0}


def test_delta_outside_the_sublink_is_refused_on_every_call():
    rng = random.Random(64)
    man = random_manifold(rng, 3, 4, 3)
    while len(man.knot_names) < 2:
        man = random_manifold(rng, 3, 4, 3)
    k0, k1 = man.knot_names[:2]
    comp = complement_homology(man, (k0,))
    for _ in range(2):
        with pytest.raises(SupportOutsideLink):
            delta_from_divisor(comp, Divisor.of({k1: man.knot_order(k1)}))
        with pytest.raises(UnknownKnot):
            delta_from_divisor(comp, Divisor.of({"missing": 1}))
        assert delta_from_divisor(comp, Divisor.of({k0: man.knot_order(k0)})).support == (k0,)


def test_complement_group_shares_the_inverse_of_lambda():
    """A stage solves on H1(M)'s LU of Lambda, the manifold's one fraction-free inverse."""
    rng = random.Random(4411)
    seen_empty_surgery = False
    for _ in range(40):
        man = random_manifold(rng, 5, 4, 5)
        seen_empty_surgery |= not man.surgery_names
        knots = list(man.knot_names)
        for link in (None, knots[:1], knots[-2:], rng.sample(knots, rng.randint(1, len(knots)))):
            comp = complement_homology(man, link)
            assert comp.block_lu is man.h1.block_lu
    assert seen_empty_surgery


def test_stage_invariant_factors_run_no_elimination_beyond_the_load(monkeypatch):
    """A stage reads its rank and minor off H1(M)'s LU of Lambda instead of eliminating its relations."""
    calls = []
    real = linalg._gauss_jordan

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "_gauss_jordan", counting)
    rng = random.Random(4412)
    for _ in range(60):
        man = random_manifold(rng, 5, 4, 5)
        knots = list(man.knot_names)
        loaded = len(calls)
        comp = complement_homology(man, rng.sample(knots, rng.randint(1, len(knots))))
        factors = comp.invariant_factors
        assert len(calls) == loaded
        # the elimination it skips pivots on Lambda's rows and finds the LU's pair
        lu = man.h1.block_lu
        whole = FractionFreeLU(comp.relations)
        assert (whole.rank, whole.minor) == (lu.rank, lu.minor)
        assert len(calls) == loaded + 1
        diagonal = [x for x in smith_normal_form(comp.relations).diagonal if x]
        assert factors == tuple(x for x in diagonal if x != 1) + (0,) * len(comp.link)


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
