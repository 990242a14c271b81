"""Finite abelian covers: symbols, the product formula, decomposition, Kummer theory."""

import math
import random
from math import gcd

import pytest

from idelink import abelian
from idelink.abelian import FgAbelianGroup, element_order
from idelink.covers import (
    CoverSpec,
    decomposition_data,
    global_symbol,
    hilbert_symbol,
    kummer_cover,
    local_symbol,
    make_cover,
)
from idelink.errors import (
    BadDimensions,
    BadInput,
    BadModulus,
    CoverIllDefined,
    KnotOutsideLink,
    NotAdmissible,
    SupportOutsideLink,
    UnknownKnot,
)
from idelink.fuzz import FuzzConfig, check_trial
from idelink.ideles import (
    Divisor,
    Idele,
    delta_from_divisor,
    global_pairing,
    idele_class_group,
    idele_coords,
    is_principal,
    principal_lattice_basis,
    rho_tilde,
)
from idelink.linalg import IntMatrix, smith_normal_form
from idelink.local import PeripheralClass, complement_homology, preferred_longitude
from idelink.presentation import Manifold

from conftest import LENS5, count_linear_algebra, load_manifold, random_manifold


def unlinked_complement(k):
    """Complement of k unlinked unknots in S^3: free on k meridians, no relations."""
    names = [f"K{i}" for i in range(k)]
    zeros = [[0] * k for _ in range(k)]
    man = load_manifold(
        {
            "surgery": {"components": [], "matrix": []},
            "link": {"components": names, "lk_with_surgery": [[] for _ in names], "lk_mutual": zeros},
        }
    )
    return complement_homology(man)


def test_cover_target_basics():
    comp = unlinked_complement(2)
    cover = make_cover(comp, (4, 6), [(5, -1), (3, 5)])
    target = cover.target
    assert target.order() == 24
    assert cover.values == ((1, 5), (3, 5))
    assert cover.reduce((3 + 1, 5 + 1)) == (0, 0)
    assert element_order(target.element((2, 0))) == 2
    assert element_order(target.element((1, 1))) == 12
    assert element_order(target.element((0, 0))) == 1
    # the subgroup the vectors generate has order |target| / |target / subgroup|
    assert target.order() // target.quotient([(2, 0), (0, 3)]).order() == 4
    assert target.order() // target.quotient([]).order() == 1
    assert make_cover(comp, (4, 6), [(1, 0), (0, 1)]).is_surjective()
    assert not make_cover(comp, (4, 6), [(2, 0), (0, 1)]).is_surjective()
    with pytest.raises(BadInput):
        make_cover(comp, (0,), [(0,), (0,)])
    with pytest.raises(BadDimensions):
        cover.reduce((1,))


def test_make_cover_checks_relations(lens5):
    comp = complement_homology(lens5)
    cover = make_cover(comp, (5,), [[1], [0]])
    assert cover.values == ((1,), (0,))
    with pytest.raises(CoverIllDefined):
        make_cover(comp, (5,), [[0], [1]])
    with pytest.raises(BadDimensions):
        make_cover(comp, (5,), [[1]])


def brute_subgroup(orders, gens):
    """Every element of the subgroup of prod Z/n the generators span, by closure."""
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % n for a, b, n in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_cover_target_matches_brute_force_subgroups():
    rng = random.Random(17)
    comps = [unlinked_complement(k) for k in range(4)]
    seen_zero_gens = seen_surjective = seen_not_surjective = 0
    for _ in range(1200):
        orders = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
        k = rng.randint(0, 3)
        raw = [[rng.randint(-2 * n, 2 * n) for n in orders] for _ in range(k)]
        cover = make_cover(comps[k], orders, raw)
        gens = [tuple(x % n for x, n in zip(v, orders)) for v in raw]
        assert cover.values == tuple(gens)
        size = 1
        for n in orders:
            size *= n
        target = cover.target
        assert target.order() == size
        probe = tuple(rng.randrange(n) for n in orders)
        for g in gens + [probe]:
            brute_order = next(m for m in range(1, size + 1) if all(m * x % n == 0 for x, n in zip(g, orders)))
            assert element_order(target.element(g)) == brute_order
        subgroup = brute_subgroup(orders, gens)
        assert size // target.quotient(raw).order() == len(subgroup)
        assert cover.is_surjective() == (len(subgroup) == size)
        seen_zero_gens += k == 0
        seen_surjective += cover.is_surjective()
        seen_not_surjective += not cover.is_surjective()
    assert min(seen_zero_gens, seen_surjective, seen_not_surjective) > 100


def test_cover_dict_round_trip(hopf):
    comp = complement_homology(hopf)
    cover = make_cover(comp, (2,), [[1], [0]])
    data = cover.to_dict()
    assert data == {"branch_link": ["K1", "K2"], "target": [2], "phi": [[1], [0]]}
    again = CoverSpec.from_dict(hopf, data)
    assert again.values == cover.values
    with pytest.raises(BadInput):
        CoverSpec.from_dict(hopf, {"target": [2]})


def test_cover_dict_numbers_must_be_json_integers(hopf):
    good = {"branch_link": ["K1", "K2"], "target": [2], "phi": [[1], [0]]}
    for key, bad in (("target", [2.7]), ("target", [True]), ("target", ["2"]), ("phi", [[1.0], [0]])):
        with pytest.raises(BadInput):
            CoverSpec.from_dict(hopf, {**good, key: bad})


def test_make_cover_refuses_non_integer_values_and_orders(hopf):
    comp = complement_homology(hopf)
    assert make_cover(comp, (2,), [[3], [0]]).values == ((1,), (0,))
    for orders, values in (((2,), [[1.5], [0]]), ((2,), [[1], [True]]), ((2.0,), [[1], [0]])):
        with pytest.raises(BadInput):
            make_cover(comp, orders, values)
    cover = make_cover(comp, (2,), [[1], [0]])
    with pytest.raises(BadInput):
        cover.reduce([0.5])


def test_symbols_hopf(hopf):
    comp = complement_homology(hopf)
    cover = make_cover(comp, (2,), [[1], [0]])
    assert global_symbol(Idele.of({"K1": (0, 1)}), cover) == (0,)
    assert global_symbol(Idele.of({"K1": (1, 0)}), cover) == (1,)
    assert local_symbol(PeripheralClass("K2", 0, 1), cover) == (1,)
    principal = Idele.of({"K1": (0, 1), "K2": (-1, 0)})
    assert global_symbol(principal, cover) == (0,)
    with pytest.raises(UnknownKnot):
        local_symbol(PeripheralClass("nope", 1, 0), cover)
    with pytest.raises(UnknownKnot):
        decomposition_data(cover, "nope")


def test_decomposition_hopf(hopf):
    comp = complement_homology(hopf)
    cover = make_cover(comp, (2,), [[1], [0]])
    d1 = decomposition_data(cover, "K1")
    d2 = decomposition_data(cover, "K2")
    assert (d1.ramification_index, d1.residue_degree, d1.component_count) == (2, 1, 1)
    assert (d2.ramification_index, d2.residue_degree, d2.component_count) == (1, 2, 1)


def test_decomposition_identity_randomized(hopf, lens5):
    rng = random.Random(7)
    for man in (hopf, lens5):
        comp = complement_homology(man)
        for _ in range(60):
            cover = sample_cover(comp, rng)
            for k in comp.link:
                dd = decomposition_data(cover, k)
                assert (
                    dd.ramification_index * dd.residue_degree * dd.component_count
                    == cover.target.order()
                )


def sample_cover(comp, rng):
    # brute-force sampling: try random value tables until one is well defined
    orders = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 2)))
    while True:
        values = [
            [rng.randrange(n) for n in orders]
            for _ in range(comp.generator_count)
        ]
        try:
            return make_cover(comp, orders, values)
        except CoverIllDefined:
            continue


def test_product_formula_randomized(hopf, lens5):
    rng = random.Random(13)
    for man in (hopf, lens5):
        comp = complement_homology(man)
        basis = principal_lattice_basis(comp)
        for _ in range(40):
            cover = sample_cover(comp, rng)
            a = Idele.of(
                {
                    k: (rng.randint(-9, 9), rng.randint(-9, 9))
                    for k in comp.link
                    if rng.random() < 0.7
                }
            )
            total = [0] * len(cover.orders)
            for k in a.support:
                total = [x + y for x, y in zip(total, local_symbol(a.component(k), cover))]
            assert global_symbol(a, cover) == cover.reduce(total)
            principal = Idele.zero()
            for b in basis:
                principal = principal + rng.randint(-4, 4) * b
            assert not any(global_symbol(principal, cover))


def test_kummer_cover_hopf(hopf):
    comp = complement_homology(hopf)
    kc = kummer_cover(comp, Divisor.of({"K1": 1}), 2)
    assert kc.cover.to_dict() == {
        "branch_link": ["K1", "K2"],
        "target": [2],
        "phi": [[1], [0]],
    }
    assert kc.branch_locus == ("K1",)
    assert kc.boundary_idele == delta_from_divisor(comp, Divisor.of({"K1": 1}))
    # branch locus is exactly where ramification happens
    for k in comp.link:
        dd = decomposition_data(kc.cover, k)
        assert (k in kc.branch_locus) == (dd.ramification_index > 1)


def test_kummer_cover_lens5(lens5):
    comp = complement_homology(lens5)
    kc = kummer_cover(comp, Divisor.of({"K": 5}), 5)
    # the bounding chain passes once over the surgery handle: psi(m) = -1 mod 5
    assert kc.cover.to_dict()["phi"] == [[4], [0]]
    assert kc.branch_locus == ()
    with pytest.raises(BadModulus):
        kummer_cover(comp, Divisor.of({"K": 5}), 1)
    for bad in (5.0, 2.5, True, "5"):
        with pytest.raises(BadInput, match="modulus must be an integer"):
            kummer_cover(comp, Divisor.of({"K": 5}), bad)
    from idelink.errors import DivisorNotPrincipal

    with pytest.raises(DivisorNotPrincipal):
        kummer_cover(comp, Divisor.of({"K": 1}), 5)


def test_kummer_symbol_is_pairing_with_boundary(hopf):
    comp = complement_homology(hopf)
    n = 3
    kc = kummer_cover(comp, Divisor.of({"K1": 2, "K2": 1}), n)
    rng = random.Random(29)
    for _ in range(40):
        gamma = Idele.of(
            {k: (rng.randint(-6, 6), rng.randint(-6, 6)) for k in comp.link}
        )
        assert global_symbol(gamma, kc.cover) == (
            global_pairing(gamma, kc.boundary_idele) % n,
        )


def test_kummer_requires_admissible_stage():
    man = load_manifold(
        {
            "surgery": {"components": ["L1"], "matrix": [[5]]},
            "link": {"components": ["K"], "lk_with_surgery": [[0]], "lk_mutual": [[0]]},
        }
    )
    comp = complement_homology(man)
    with pytest.raises(NotAdmissible):
        kummer_cover(comp, Divisor.of({}), 2)


def test_one_stage_builds_its_cokernel_once(monkeypatch, lens5):
    """Kummer covers, the class group and a fuzz trial read the stage's one H1(M)/G."""
    calls = []
    real = Manifold.knot_quotient
    monkeypatch.setattr(Manifold, "knot_quotient", lambda man, link: calls.append(link) or real(man, link))
    comp = complement_homology(lens5)
    assert kummer_cover(comp, Divisor.of({"K": 5}), 2).cover.values == ((1,), (1,))
    assert kummer_cover(comp, Divisor.of({"K": 10}), 3).cover.values == ((1,), (1,))
    assert idele_class_group(comp).coker_invariants == ()
    assert calls == [("K",)]

    calls.clear()
    results = check_trial(lens5, random.Random(0), FuzzConfig(trials=1, seed=0))
    assert ("kummer-consistency", "pass", None) in results
    assert calls == [("K",)]

    calls.clear()
    blind = complement_homology(load_manifold({**LENS5, "link": {**LENS5["link"], "lk_with_surgery": [[0]]}}))
    for _ in range(2):
        with pytest.raises(NotAdmissible):
            kummer_cover(blind, Divisor.of({}), 2)
    assert blind.cokernel.invariant_factors == (5,)
    assert calls == [("K",)]


def test_hilbert_symbol(hopf):
    comp = complement_homology(hopf)
    a = delta_from_divisor(comp, Divisor.of({"K2": 1}))
    b = delta_from_divisor(comp, Divisor.of({"K1": 1}))
    assert hilbert_symbol(a, b, "K1", 3) == 2
    assert hilbert_symbol(a, b, "K2", 3) == 1
    # symbols at the two crossings cancel mod any modulus
    assert (hilbert_symbol(a, b, "K1", 7) + hilbert_symbol(a, b, "K2", 7)) % 7 == 0
    with pytest.raises(BadModulus):
        hilbert_symbol(a, b, "K1", 0)
    for bad in (3.0, 2.5, True, "3"):
        with pytest.raises(BadInput, match="modulus must be an integer"):
            hilbert_symbol(a, b, "K1", bad)


def smith_cover(comp, rng, orders):
    """A uniformly drawn well-defined cover to Z/n_1 + ... + Z/n_t, through the Smith form of the relations.

    U @ relations @ V = D, so a map is well defined exactly when the images
    of U's rows are killed by the matching diagonal entries.
    """
    snf = smith_normal_form(comp.relations)
    g = comp.generator_count
    diag = list(snf.diagonal) + [0] * g
    images = []
    for i in range(g):
        step = [n // gcd(diag[i], n) for n in orders]
        images.append([rng.randrange(n // st) * st for n, st in zip(orders, step)])
    values = [[sum(snf.u[i, j] * images[i][p] for i in range(g)) for p in range(len(orders))] for j in range(g)]
    return make_cover(comp, orders, values)


def test_cached_knot_images_and_symbols_match_the_generic_routes():
    """Images, global symbols and (e, f, g) against ``apply`` and quotients of the target."""
    rng = random.Random(8080)
    knots = proper = multi = ramified = 0
    for _ in range(220):
        man = random_manifold(rng, 4, 5, rng.choice((2, 3, 5)))
        names = list(man.knot_names)
        for link in (names, man.sublink(rng.sample(names, rng.randint(1, len(names))))):
            comp = complement_homology(man, link)
            orders = tuple(rng.randint(2, 6) for _ in range(rng.randint(2, 3)))
            cover = smith_cover(comp, rng, orders)
            target = cover.target
            proper += len(link) < len(names)
            multi += 1
            for k in comp.link:
                mu = cover.apply(comp.meridian_coords(k))
                l0 = cover.apply(comp.longitude_coords(k))
                assert cover.knot_images(k) == (mu, l0)
                assert (cover.meridian_image(k), cover.longitude_image(k)) == (mu, l0)
                # |<mu>| and the index of <mu, l0>, each from a quotient of the target
                e = target.order() // target.quotient([mu]).order()
                g = target.quotient([mu, l0]).order()
                dd = decomposition_data(cover, k)
                assert (dd.ramification_index, dd.residue_degree, dd.component_count) == (e, target.order() // e // g, g)
                assert decomposition_data(cover, k) is dd
                knots += 1
                ramified += e > 1
            for _ in range(3):
                a = Idele.of({k: (rng.randint(-9, 9), rng.randint(-9, 9)) for k in comp.link if rng.random() < 0.6})
                assert global_symbol(a, cover) == cover.apply(idele_coords(comp, a))
    assert knots >= 1000 and proper >= 100 and multi >= 400 and ramified >= 300, (knots, proper, multi, ramified)


def test_a_second_cover_query_runs_no_linear_algebra(monkeypatch):
    man = random_manifold(random.Random(66), 4, 5, 5)
    comp = complement_homology(man)
    cover = smith_cover(comp, random.Random(67), (4, 6))
    a = Idele.of({k: (i + 1, 2 - i) for i, k in enumerate(comp.link)})
    first = [(cover.knot_images(k), decomposition_data(cover, k)) for k in comp.link], global_symbol(a, cover)
    counts = count_linear_algebra(monkeypatch)
    applied = []
    real_apply = CoverSpec.apply
    monkeypatch.setattr(CoverSpec, "apply", lambda self, coords: applied.append(coords) or real_apply(self, coords))
    again = [(cover.knot_images(k), decomposition_data(cover, k)) for k in comp.link], global_symbol(a, cover)
    assert again == first
    assert counts == {"mul_vector": 0, "solve": 0, "element_order": 0, "FgAbelianGroup": 0} and applied == []


def test_knots_outside_the_cover_are_refused_on_every_call(hopf):
    cover = make_cover(complement_homology(hopf, ("K1",)), (2, 3), [(1, 2)])
    rows = (("K2", KnotOutsideLink, SupportOutsideLink), ("nope", UnknownKnot, UnknownKnot))
    for _ in range(2):
        for knot, outside, support_outside in rows:
            with pytest.raises(outside):
                decomposition_data(cover, knot)
            with pytest.raises(outside):
                cover.knot_images(knot)
            with pytest.raises(support_outside):
                global_symbol(Idele.of({"K1": (1, 0), knot: (0, 1)}), cover)
        assert global_symbol(Idele.of({"K1": (1, 1)}), cover) == (1, 2)
        assert decomposition_data(cover, "K1").ramification_index == 6


def _idele(k):
    return Idele.of({"K1": (1, 0), k: (0, 1)})


def _divisor(k):
    return Divisor.of({"K1": 1, k: 1})


# every entry point that takes a knot name or a support, called with knot k on the stage {K1} of the
# Hopf link and a cover of it: (call, error for a declared knot outside the stage; None for a
# manifold entry point, where every declared knot is inside)
KNOT_ENTRY_POINTS = {
    "require": (lambda comp, cover, k: comp.require(k), KnotOutsideLink),
    "meridian_coords": (lambda comp, cover, k: comp.meridian_coords(k), KnotOutsideLink),
    "longitude_coords": (lambda comp, cover, k: comp.longitude_coords(k), KnotOutsideLink),
    "peripheral_coords": (lambda comp, cover, k: comp.peripheral_coords(PeripheralClass(k, 1, 0)), KnotOutsideLink),
    "class_of": (lambda comp, cover, k: comp.class_of(PeripheralClass(k, 1, 0)), KnotOutsideLink),
    "require_support": (lambda comp, cover, k: comp.require_support(("K1",), (k,)), SupportOutsideLink),
    "rho_tilde": (lambda comp, cover, k: rho_tilde(comp, _idele(k)), SupportOutsideLink),
    "is_principal": (lambda comp, cover, k: is_principal(comp, _idele(k)), SupportOutsideLink),
    "delta_from_divisor": (lambda comp, cover, k: delta_from_divisor(comp, _divisor(k)), SupportOutsideLink),
    "kummer_cover": (lambda comp, cover, k: kummer_cover(comp, _divisor(k), 2), SupportOutsideLink),
    "global_symbol": (lambda comp, cover, k: global_symbol(_idele(k), cover), SupportOutsideLink),
    "local_symbol": (lambda comp, cover, k: local_symbol(PeripheralClass(k, 1, 0), cover), KnotOutsideLink),
    "decomposition_data": (lambda comp, cover, k: decomposition_data(cover, k), KnotOutsideLink),
    "knot_images": (lambda comp, cover, k: cover.knot_images(k), KnotOutsideLink),
    "linking_number": (lambda comp, cover, k: comp.manifold.linking_number(k, k), None),
    "knot_order": (lambda comp, cover, k: comp.manifold.knot_order(k), None),
    "preferred_longitude": (lambda comp, cover, k: preferred_longitude(comp.manifold, k), None),
}
KNOT_CASES = [
    pytest.param(call, knot, error, id=f"{name}-{kind}")
    for name, (call, outside) in KNOT_ENTRY_POINTS.items()
    for kind, knot, error in (("undeclared", "K9", UnknownKnot), ("outside", "K2", outside))
    if error is not None
]


@pytest.mark.parametrize("call, knot, error", KNOT_CASES)
def test_the_stage_resolves_every_knot_name_on_every_call(hopf, call, knot, error):
    comp = complement_homology(hopf, ("K1",))
    assert comp.cokernel.is_trivial()  # so kummer_cover reaches the divisor
    cover = make_cover(comp, (2, 3), [(1, 2)])
    for _ in range(2):
        with pytest.raises(error):
            call(comp, cover, knot)


class SmithPass(Exception):
    pass


def test_order_and_triviality_questions_take_no_smith_pass(monkeypatch):
    """Admissibility, Kummer covers, surjectivity, (e, f, g) and a quotient's order read Hermite pivots.

    ``abelian.smith_diagonal_mod`` raises under the spy, yet every question
    answers; outside it, each answer matches the invariant factors.
    """
    rng = random.Random(2026)
    answered = []
    with monkeypatch.context() as spy:

        def refuse(*args):
            raise SmithPass

        spy.setattr(abelian, "smith_diagonal_mod", refuse)
        with pytest.raises(SmithPass):
            FgAbelianGroup(IntMatrix.from_rows([[5]])).invariant_factors
        for _ in range(160):
            man = random_manifold(rng, 4, 4, rng.choice((2, 3, 5)))
            names = list(man.knot_names)
            link = man.sublink(rng.sample(names, rng.randint(1, len(names))))
            comp = complement_homology(man, link)
            admissible = comp.cokernel.is_trivial()
            assert man.generates_h1(link) == admissible
            divisor = Divisor.of({link[0]: man.knot_order(link[0])})
            if admissible:
                assert kummer_cover(comp, divisor, 3).cover.orders == (3,)
            else:
                with pytest.raises(NotAdmissible):
                    kummer_cover(comp, divisor, 3)
            cover = smith_cover(comp, rng, tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 2))))
            splitting = [decomposition_data(cover, k) for k in link]
            quotient = cover.target.quotient([cover.meridian_image(k) for k in link])
            answered.append((man, link, cover, admissible, cover.is_surjective(), splitting, quotient.order()))
    seen = {"admissible": 0, "not admissible": 0, "surjective": 0, "not surjective": 0}
    for man, link, cover, admissible, surjective, splitting, quotient_order in answered:
        assert admissible == (man.knot_quotient(link).invariant_factors == ())
        assert surjective == (cover.target.quotient(cover.values).invariant_factors == ())
        target = cover.target
        size = math.prod(target.invariant_factors)
        assert quotient_order == math.prod(target.quotient([cover.meridian_image(k) for k in link]).invariant_factors)
        for k, dd in zip(link, splitting):
            mu, l0 = cover.knot_images(k)
            e = size // math.prod(target.quotient([mu]).invariant_factors)
            g = math.prod(target.quotient([mu, l0]).invariant_factors)
            assert (dd.ramification_index, dd.residue_degree, dd.component_count) == (e, size // e // g, g)
        seen["admissible" if admissible else "not admissible"] += 1
        seen["surjective" if surjective else "not surjective"] += 1
    assert min(seen.values()) >= 20, seen
