"""Ideles, the principal lattice, the divisor map, and global reciprocity."""

import random
from math import lcm

import pytest

from idelink.errors import BadInput, DivisorNotPrincipal, SupportOutsideLink
from idelink.ideles import (
    Divisor,
    Idele,
    delta_from_divisor,
    embed_local,
    global_pairing,
    idele_class_group,
    is_principal,
    principal_lattice_basis,
    rho_tilde,
)
from idelink import linalg
from idelink.linalg import IntMatrix, smith_normal_form
from idelink.local import PeripheralClass, complement_homology
from idelink.presentation import load_and_validate

from conftest import generator_manifold, load_manifold, random_manifold, torsion_instance
from oracles import fraction_solve, hermite_row_basis, peripheral_class_group, peripheral_matrix, principal_lattice


def test_idele_normalization():
    a = Idele.of({"B": (1, 2), "A": (0, 3)})
    assert a.parts == (("A", 0, 3), ("B", 1, 2))
    assert Idele.of([("K", (1, 0)), ("K", (-1, 0))]) == Idele.zero()
    assert Idele.of({"K": (0, 0)}).support == ()
    assert a.component("B") == PeripheralClass("B", 1, 2)
    assert a.component("missing").is_zero()


def test_idele_and_divisor_constructors_refuse_non_integers():
    assert Idele.of({"K1": (2, 1)}).to_dict() == {"K1": [2, 1]}
    for pair in ((0.5, 1), (0, 1.0), (True, 0), ("1", 0)):
        with pytest.raises(BadInput):
            Idele.of({"K1": pair})
    with pytest.raises(BadInput):
        Idele.of([("K1", (1, 2.5))])
    # a component that is not a pair, checked with the message the JSON loader gives
    for pair in ((1, 2, 3), (1,), 5, "12", None):
        with pytest.raises(BadInput, match=r"idele component at 'K1' must be a pair \[meridian, longitude\]"):
            Idele.of({"K1": pair})
    assert Divisor.of({"K1": 3}).to_dict() == {"K1": 3}
    for c in (1.5, 2.0, False, "2"):
        with pytest.raises(BadInput):
            Divisor.of({"K1": c})


def test_idele_arithmetic():
    a = Idele.of({"K1": (1, 2)})
    b = Idele.of({"K1": (-1, 0), "K2": (4, 4)})
    assert (a + b).to_dict() == {"K1": [0, 2], "K2": [4, 4]}
    assert (a - a) == Idele.zero()
    assert (2 * b).to_dict() == {"K1": [-2, 0], "K2": [8, 8]}
    assert embed_local(PeripheralClass("K", 3, -1)).to_dict() == {"K": [3, -1]}


def test_idele_dict_round_trip():
    a = Idele.of({"K1": (1, 2), "K2": (0, -3)})
    assert Idele.from_dict(a.to_dict()) == a
    with pytest.raises(BadInput):
        Idele.from_dict([1, 2])
    with pytest.raises(BadInput):
        Idele.from_dict({"K": [1]})
    with pytest.raises(BadInput):
        Idele.from_dict({"K": ["a", "b"]})


def test_idele_and_divisor_coefficients_must_be_json_integers():
    for bad in (0.5, 1.0, True, "1"):
        with pytest.raises(BadInput):
            Idele.from_dict({"K": [bad, 1]})
        with pytest.raises(BadInput):
            Idele.from_dict({"K": [1, bad]})
        with pytest.raises(BadInput):
            Divisor.from_dict({"K": bad})
    assert Divisor.from_dict({"K": 2, "J": 0}) == Divisor.of({"K": 2})


def test_divisor_normalization():
    d = Divisor.of({"B": 2, "A": 0})
    assert d.parts == (("B", 2),)
    assert d.coefficient("B") == 2
    assert d.coefficient("A") == 0
    assert Divisor.of([("K", 1), ("K", -1)]).support == ()


def test_rho_and_principality_lens5(lens5):
    comp = complement_homology(lens5)
    mu = Idele.of({"K": (1, 0)})
    assert not is_principal(comp, mu)
    assert rho_tilde(comp, Idele.zero()).is_zero()
    lam = Idele.of({"K": (1, 5)})
    assert is_principal(comp, lam)


def test_delta_lens5(lens5):
    comp = complement_homology(lens5)
    assert delta_from_divisor(comp, Divisor.of({"K": 5})).to_dict() == {"K": [1, 5]}
    with pytest.raises(DivisorNotPrincipal):
        delta_from_divisor(comp, Divisor.of({"K": 1}))
    assert delta_from_divisor(comp, Divisor.of({})) == Idele.zero()


def test_delta_hopf(hopf):
    comp = complement_homology(hopf)
    d1 = delta_from_divisor(comp, Divisor.of({"K1": 1}))
    d2 = delta_from_divisor(comp, Divisor.of({"K2": 1}))
    assert d1.to_dict() == {"K1": [0, 1], "K2": [-1, 0]}
    assert d2.to_dict() == {"K1": [-1, 0], "K2": [0, 1]}
    # boundaries of the two obvious disks pair to zero globally, with
    # canceling local contributions
    assert global_pairing(d1, d2) == 0
    assert local_intersection_at(d1, d2, "K1") == 1
    assert local_intersection_at(d1, d2, "K2") == -1


def local_intersection_at(a, b, knot):
    from idelink.local import local_intersection

    return local_intersection(a.component(knot), b.component(knot))


def test_delta_is_linear_on_principal_divisors(hopf):
    comp = complement_homology(hopf)
    da = Divisor.of({"K1": 2, "K2": -1})
    db = Divisor.of({"K1": -1, "K2": 3})
    lhs = delta_from_divisor(comp, Divisor.of({"K1": 1, "K2": 2}))
    assert lhs == delta_from_divisor(comp, da) + delta_from_divisor(comp, db)


def test_principal_basis_lattice_hopf(hopf):
    comp = complement_homology(hopf)
    basis = principal_lattice_basis(comp)
    got = [
        [b.component("K1").meridian, b.component("K1").longitude,
         b.component("K2").meridian, b.component("K2").longitude]
        for b in basis
    ]
    # same lattice as the one spanned by the two disk boundaries
    expected = hermite_row_basis([[0, 1, -1, 0], [-1, 0, 0, 1]])
    assert got == expected
    for b in basis:
        assert is_principal(comp, b)


def test_principal_basis_lens5(lens5):
    comp = complement_homology(lens5)
    basis = principal_lattice_basis(comp)
    assert [b.to_dict() for b in basis] == [{"K": [1, 5]}]


def test_class_group_data(lens5, hopf):
    data = idele_class_group(complement_homology(lens5))
    # ideles at one knot mod the rank-one principal lattice leave a free factor
    assert data.class_invariants == (0,)
    assert data.coker_invariants == ()

    data = idele_class_group(complement_homology(hopf))
    assert data.class_invariants == (0, 0)
    assert data.coker_invariants == ()


@pytest.mark.parametrize(
    "data, class_invariants, coker_invariants",
    [
        # H1 = Z/8 with the knot class 2: G = 2Z/8 has perp 4Z/8, so T = Z/2, as is coker
        (
            {
                "surgery": {"components": ["L1"], "matrix": [[8]]},
                "link": {"components": ["K"], "lk_with_surgery": [[2]], "lk_mutual": [[0]]},
            },
            (2, 0),
            (2,),
        ),
        # knot class 4: G = 4Z/8 has order 2, G^perp = 2Z/8, so T = Z/2 while coker = Z/4
        (
            {
                "surgery": {"components": ["L1"], "matrix": [[8]]},
                "link": {"components": ["K"], "lk_with_surgery": [[4]], "lk_mutual": [[0]]},
            },
            (2, 0),
            (4,),
        ),
        # H1 = (Z/4)^2 with knot classes 2 e_1, 2 e_2: G is its own perp, T has two factors
        (
            {
                "surgery": {"components": ["L1", "L2"], "matrix": [[4, 0], [0, 4]]},
                "link": {"components": ["J", "K"], "lk_with_surgery": [[2, 0], [0, 2]], "lk_mutual": [[0, 1], [1, 0]]},
            },
            (2, 2, 0, 0),
            (2, 2),
        ),
        # the 3-sphere (s = 0): every stage is admissible and the class group is free
        (
            {
                "surgery": {"components": [], "matrix": []},
                "link": {
                    "components": ["A", "B", "C"],
                    "lk_with_surgery": [[], [], []],
                    "lk_mutual": [[0, 2, -1], [2, 0, 4], [-1, 4, 0]],
                },
            },
            (0, 0, 0),
            (),
        ),
    ],
)
def test_class_group_frozen_cases(data, class_invariants, coker_invariants):
    comp = complement_homology(load_manifold(data))
    got = idele_class_group(comp)
    assert (got.class_invariants, got.coker_invariants) == (class_invariants, coker_invariants)
    assert peripheral_class_group(comp) == (class_invariants, coker_invariants)


def test_class_group_matches_the_peripheral_kernel_route():
    rng = random.Random(1414)
    torsion = non_admissible = 0
    for _ in range(1000):
        man = random_manifold(rng, 5, 5, rng.choice((2, 3, 5)))
        link = [k for k in man.knot_names if rng.random() < 0.6] or [rng.choice(man.knot_names)]
        comp = complement_homology(man, link)
        data = idele_class_group(comp)
        assert (data.class_invariants, data.coker_invariants) == peripheral_class_group(comp), (man.presentation, link)
        torsion += data.class_invariants[0] != 0
        non_admissible += data.coker_invariants != ()
    assert torsion >= 50, torsion
    assert non_admissible >= 200, non_admissible


def test_cokernel_detects_non_admissible_stage():
    man = load_manifold(
        {
            "surgery": {"components": ["L1"], "matrix": [[5]]},
            "link": {"components": ["K"], "lk_with_surgery": [[0]], "lk_mutual": [[0]]},
        }
    )
    data = idele_class_group(complement_homology(man))
    assert data.coker_invariants == (5,)


def test_cokernel_is_h1_modulo_the_knot_classes():
    # coker(rho) read through H1(M) equals the complement modulo its whole peripheral image
    rng = random.Random(8808)
    nontrivial = 0
    for _ in range(300):
        man = random_manifold(rng, 6, 5, rng.choice((2, 5)))
        link = [k for k in man.knot_names if rng.random() < 0.6] or [man.knot_names[0]]
        comp = complement_homology(man, link)
        peripheral = peripheral_matrix(comp)
        direct = comp.quotient(peripheral.column(j) for j in range(peripheral.cols))
        data = idele_class_group(comp)
        assert data.coker_invariants == direct.invariant_factors, (man.presentation, link)
        nontrivial += data.coker_invariants != ()
    assert nontrivial > 50, nontrivial


def principal_graph_basis(man, link):
    """Principal ideles on ``link`` as the graph {(A y, y) : y in Y}, interleaved (x1, y1, x2, y2, ...).

    With L the stage's rows of lk_with_surgery and Mut its mutual linking,
    A = L Lambda^-1 L^T - Mut and Y = {y : Lambda^-1 L^T y integral}. Y is
    read from the Hermite basis of the rows (den e_i | 0) and
    (den Lambda^-1 L^T e_j | e_j): the rows whose first block is zero.
    """
    pres = man.presentation
    idx = [man.knot_index(k) for k in link]
    s, l = len(man.surgery_names), len(link)
    ell = [pres.lk_with_surgery.row(i) for i in idx]
    solved = [fraction_solve(pres.surgery_matrix.to_rows(), row) for row in ell]  # Lambda^-1 L^T e_j
    a = [
        [sum(x * t for x, t in zip(ell[i], solved[j])) - pres.lk_mutual[idx[i], idx[j]] for j in range(l)]
        for i in range(l)
    ]
    den = lcm(1, *(t.denominator for col in solved for t in col))
    rows = [[den if c == i else 0 for c in range(s)] + [0] * l for i in range(s)]
    rows += [[int(den * t) for t in solved[j]] + [int(c == j) for c in range(l)] for j in range(l)]
    ys = [row[s:] for row in hermite_row_basis(rows) if not any(row[:s])]
    graph = []
    for y in ys:
        x = [sum(a[i][j] * y[j] for j in range(l)) for i in range(l)]
        assert all(t.denominator == 1 for t in x)
        graph.append([int(t) for pair in zip(x, y) for t in pair])
    return graph


def test_principal_lattice_and_class_group_match_the_graph_over_y():
    rng = random.Random(4411)
    torsion = non_admissible = 0
    for _ in range(300):
        man = random_manifold(rng, 5, 5, rng.choice((2, 3, 5)))
        link = man.sublink([k for k in man.knot_names if rng.random() < 0.6] or [rng.choice(man.knot_names)])
        comp = complement_homology(man, link)
        graph = principal_graph_basis(man, link)
        assert len(graph) == len(link)
        got = [
            [t for k in link for t in (b.component(k).meridian, b.component(k).longitude)]
            for b in principal_lattice_basis(comp)
        ]
        assert hermite_row_basis(got) == hermite_row_basis(graph), (man.presentation, link)
        diagonal = smith_normal_form(IntMatrix.from_rows(graph)).diagonal
        expected = tuple(d for d in diagonal if d not in (0, 1)) + (0,) * len(link)
        assert idele_class_group(comp).class_invariants == expected, (man.presentation, link)
        torsion += expected[0] != 0
        non_admissible += not man.generates_h1(link)
    assert torsion > 10, torsion
    assert non_admissible > 50, non_admissible


def test_principal_lattice_basis_matches_the_whole_kernel_of_the_peripheral_table():
    """The graph over Y, cut from the knot rows' kernel, against the kernel of [peripheral | relations].

    The cut to Y runs exactly on the stages whose class group has torsion.
    """
    rng = random.Random(1818)
    stages = empty_surgery = sublinks = negative = torsion = 0
    for _ in range(1100):
        man = random_manifold(rng, 6, 5, rng.choice((1, 3, 7)))
        knots = list(man.knot_names)
        link = None if rng.random() < 0.4 else rng.sample(knots, rng.randint(1, len(knots)))
        comp = complement_homology(man, link)
        assert principal_lattice_basis(comp) == principal_lattice(comp), (man.presentation, comp.link)
        stages += 1
        empty_surgery += not man.surgery_names
        sublinks += len(comp.link) < len(knots)
        negative += man.h1.block_lu.minor < 0
        torsion += any(idele_class_group(comp).class_invariants)
    counts = (empty_surgery, sublinks, negative, torsion)
    assert stages >= 1000 and empty_surgery > 50 and sublinks > 300 and negative > 200 and torsion > 40, counts


def test_principal_lattice_basis_eliminates_the_knot_rows_alone_over_det_lambda(monkeypatch):
    """Growth and shape guard on the generator's s = r = 48 instance: one elimination of the
    48 knot rows, from den = |det Lambda|, whose entries stay within 299 bits.

    Carrying Lambda's rows doubles the rows; starting from den = 1 gives the same lattice
    but entries of about 8670 bits.
    """
    man = generator_manifold(48, 48, 48)
    comp = complement_homology(man)
    calls = []
    real = linalg._gauss_jordan

    def elimination(work, order, reduced, den=1, steps=None):
        rows, before = len(work), max_bits(work)
        out = real(work, order, reduced, den, steps)
        calls.append((rows, den, max(before, max_bits(work), abs(out[1]).bit_length())))
        return out

    monkeypatch.setattr(linalg, "_gauss_jordan", elimination)
    basis = principal_lattice_basis(comp)
    assert len(basis) == 48
    assert [rows for rows, _, _ in calls] == [48], calls
    assert all(den != 1 for _, den, _ in calls)
    assert max(bits for _, _, bits in calls) <= 299, calls


def test_principal_lattice_basis_cuts_to_y_on_a_torsion_stage_at_s_20(monkeypatch):
    """The torsion cut at scale: the generator's s = r = 20 instance plus a surgery unknot of
    framing 4 and a knot linking it twice (class group Z/2 + Z^21, cokernel Z/2).

    The basis equals the whole kernel of [peripheral | relations], and the cut
    to Y runs: one ``kernel_mod`` modulo |det Lambda|.
    """
    from idelink import ideles

    man = load_manifold(torsion_instance(20))
    comp = complement_homology(man)
    data = idele_class_group(comp)
    assert data.class_invariants == (2,) + (0,) * 21 and data.coker_invariants == (2,)
    moduli = []
    real = ideles.kernel_mod

    def spy(vectors, d):
        moduli.append(d)
        return real(vectors, d)

    monkeypatch.setattr(ideles, "kernel_mod", spy)
    assert principal_lattice_basis(comp) == principal_lattice(comp)
    assert moduli == [man.h1.modulus], moduli


def max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def test_support_validation(hopf):
    comp = complement_homology(hopf, ["K1"])
    with pytest.raises(SupportOutsideLink):
        rho_tilde(comp, Idele.of({"K2": (1, 0)}))
    with pytest.raises(SupportOutsideLink):
        delta_from_divisor(comp, Divisor.of({"K2": 1}))


def test_reciprocity_on_random_principal_pairs():
    rng = random.Random(101)
    instances = [
        {
            "surgery": {"components": ["L1"], "matrix": [[5]]},
            "link": {
                "components": ["J", "K"],
                "lk_with_surgery": [[1], [2]],
                "lk_mutual": [[0, -1], [-1, 0]],
            },
        },
        {
            "surgery": {"components": ["L1", "L2"], "matrix": [[2, 1], [1, 2]]},
            "link": {
                "components": ["K1", "K2", "K3"],
                "lk_with_surgery": [[1, 0], [0, 1], [2, -1]],
                "lk_mutual": [[0, 1, 0], [1, 0, -2], [0, -2, 0]],
            },
        },
    ]
    for data in instances:
        comp = complement_homology(load_manifold(data))
        basis = principal_lattice_basis(comp)
        for _ in range(50):
            a = sum_combo(basis, rng)
            b = sum_combo(basis, rng)
            assert global_pairing(a, b) == 0
            assert is_principal(comp, a)


def sum_combo(basis, rng):
    acc = Idele.zero()
    for b in basis:
        acc = acc + rng.randint(-6, 6) * b
    return acc


def test_linking_corollary_in_the_three_sphere():
    # with no surgery curves every divisor bounds, and pairing the probe
    # longitude against the bounding idele reads off total linking
    man = load_manifold(
        {
            "surgery": {"components": [], "matrix": []},
            "link": {
                "components": ["A", "B", "C"],
                "lk_with_surgery": [[], [], []],
                "lk_mutual": [[0, 2, -1], [2, 0, 4], [-1, 4, 0]],
            },
        }
    )
    comp = complement_homology(man)
    d = Divisor.of({"A": 3, "B": -2})
    bounding = delta_from_divisor(comp, d)
    probe = embed_local(PeripheralClass("C", 0, 1))
    expected = 3 * (-1) + (-2) * 4
    assert global_pairing(probe, bounding) == expected


def test_is_principal_reads_the_manifold_inverse(monkeypatch):
    """Every stage's element tests solve on the manifold's one LU of Lambda."""
    from idelink import abelian, linalg

    rng = random.Random(5150)
    while True:
        man = random_manifold(rng, 6, 4, 5)
        if len(man.surgery_names) >= 3 and len(man.knot_names) >= 3:
            break
    calls = {"lu": 0}
    real_lu = linalg.leading_block_lu

    def lu(a):
        calls["lu"] += 1
        return real_lu(a)

    for module in (abelian, linalg):
        monkeypatch.setattr(module, "leading_block_lu", lu)
    man = load_and_validate(man.presentation)  # a fresh load, under the spy
    assert calls["lu"] == 1
    knots = man.knot_names
    man.knot_order(knots[0])
    assert calls["lu"] == 1
    for link in (knots[:1], knots[1:], knots):
        comp = complement_homology(man, link)
        k = link[0]
        a = delta_from_divisor(comp, Divisor.of({k: man.knot_order(k)}))
        assert is_principal(comp, a)
        assert not is_principal(comp, a + Idele.of({k: (1, 0)}))  # a meridian has infinite order
        assert principal_lattice_basis(comp) == principal_lattice(comp)
    assert calls["lu"] == 1
