"""Surgery presentations: validation, homology, linking numbers, admissibility."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from idelink.errors import (
    AsymmetricMatrix,
    BadDimensions,
    BadInput,
    DuplicateName,
    NotQHS3,
    SelfLinking,
    UnknownKnot,
)
from idelink import linalg, load_and_validate
from idelink.abelian import element_order
from idelink.fuzz import FuzzConfig, _sample_presentation
from idelink.presentation import SurgeryPresentation, presentation_from_dict, presentation_to_dict

from conftest import HOPF, LENS5, count_linear_algebra, generator_manifold, load_manifold, random_manifold
from oracles import fraction_solve, lattice_reduce


def test_lens5_homology(lens5):
    assert lens5.h1.invariant_factors == (5,)
    assert lens5.knot_order("K") == 5
    assert lens5.knot_class("K") == lens5.h1.element([1])


def test_hopf_homology(hopf):
    assert hopf.h1.invariant_factors == ()
    assert hopf.knot_order("K1") == 1


def test_even_framing_pair():
    man = load_manifold(
        {
            "surgery": {"components": ["L1", "L2"], "matrix": [[2, 1], [1, 2]]},
            "link": {"components": ["K"], "lk_with_surgery": [[1, 0]], "lk_mutual": [[0]]},
        }
    )
    assert man.h1.invariant_factors == (3,)


def test_zero_framing_is_rejected():
    with pytest.raises(NotQHS3):
        load_manifold(
            {
                "surgery": {"components": ["L1"], "matrix": [[0]]},
                "link": {"components": ["K"], "lk_with_surgery": [[1]], "lk_mutual": [[0]]},
            }
        )


def test_asymmetric_surgery_matrix_is_rejected():
    with pytest.raises(AsymmetricMatrix):
        load_manifold(
            {
                "surgery": {"components": ["L1", "L2"], "matrix": [[1, 2], [1, 1]]},
                "link": {"components": ["K"], "lk_with_surgery": [[0, 0]], "lk_mutual": [[0]]},
            }
        )


def test_mutual_linking_must_be_symmetric_with_zero_diagonal():
    base = {
        "surgery": {"components": [], "matrix": []},
        "link": {
            "components": ["K1", "K2"],
            "lk_with_surgery": [[], []],
            "lk_mutual": [[0, 1], [2, 0]],
        },
    }
    with pytest.raises(AsymmetricMatrix):
        load_manifold(base)
    base["link"]["lk_mutual"] = [[1, 0], [0, 0]]
    with pytest.raises(AsymmetricMatrix):
        load_manifold(base)


def test_duplicate_names_are_rejected():
    with pytest.raises(DuplicateName):
        load_manifold(
            {
                "surgery": {"components": ["K"], "matrix": [[1]]},
                "link": {"components": ["K"], "lk_with_surgery": [[0]], "lk_mutual": [[0]]},
            }
        )


def test_shape_mismatches_are_rejected():
    with pytest.raises(BadDimensions):
        load_manifold(
            {
                "surgery": {"components": ["L1"], "matrix": [[5, 0]]},
                "link": {"components": ["K"], "lk_with_surgery": [[1]], "lk_mutual": [[0]]},
            }
        )
    with pytest.raises(BadDimensions):
        load_manifold(
            {
                "surgery": {"components": ["L1"], "matrix": [[5]]},
                "link": {"components": ["K"], "lk_with_surgery": [[1, 2]], "lk_mutual": [[0]]},
            }
        )


def test_malformed_input_dicts():
    with pytest.raises(BadInput):
        presentation_from_dict([])
    with pytest.raises(BadInput):
        presentation_from_dict({"surgery": {"components": [], "matrix": []}})
    with pytest.raises(BadInput):
        presentation_from_dict(
            {
                "surgery": {"components": [], "matrix": []},
                "link": {"components": ["K"], "lk_with_surgery": [["x"]], "lk_mutual": [[0]]},
            }
        )


def test_matrix_entries_must_be_json_integers():
    for bad in (5.9, 5.0, True, "5", None):
        data = json.loads(json.dumps(LENS5))
        data["surgery"]["matrix"] = [[bad]]
        with pytest.raises(BadInput):
            presentation_from_dict(data)
    for field in ("lk_with_surgery", "lk_mutual"):
        data = json.loads(json.dumps(LENS5))
        data["link"][field] = [[False]]
        with pytest.raises(BadInput):
            presentation_from_dict(data)
    # a row that is not a list is malformed input, and a string row is refused
    # for its entries before its length is compared
    for row, detail in ((5, "malformed presentation"), (None, "malformed presentation"), ("55", "surgery matrix entry")):
        data = json.loads(json.dumps(LENS5))
        data["surgery"]["matrix"] = [row]
        with pytest.raises(BadInput, match=detail):
            presentation_from_dict(data)


@pytest.mark.parametrize("bad", [5.9, 5.0, True, "5"])
def test_library_constructor_refuses_non_integer_entries(bad):
    matrices = {"surgery matrix": [[5]], "lk_with_surgery": [[1]], "lk_mutual": [[0]]}
    for what in matrices:
        rows = {**matrices, what: [[bad]]}
        with pytest.raises(BadInput, match=f"^{what} entry must be an integer"):
            SurgeryPresentation.build(["L1"], rows["surgery matrix"], ["K1"], rows["lk_with_surgery"], rows["lk_mutual"])


def test_round_trip():
    pres = presentation_from_dict(LENS5)
    assert presentation_from_dict(presentation_to_dict(pres)) == pres
    assert json.dumps(presentation_to_dict(pres))  # serializable


def test_unknown_keys_are_ignored():
    data = dict(HOPF)
    data["trial"] = 3
    data["witness"] = {"a": {}}
    man = load_manifold(data)
    assert man.knot_names == ("K1", "K2")


def test_linking_number_values(lens5):
    two = load_manifold(
        {
            "surgery": {"components": ["L1"], "matrix": [[5]]},
            "link": {
                "components": ["J", "K"],
                "lk_with_surgery": [[1], [1]],
                "lk_mutual": [[0, 0], [0, 0]],
            },
        }
    )
    assert two.linking_number("J", "K") == Fraction(-1, 5)
    assert two.linking_number("K", "J") == Fraction(-1, 5)

    hopf = load_manifold(HOPF)
    assert hopf.linking_number("K1", "K2") == 1

    with pytest.raises(SelfLinking):
        lens5.linking_number("K", "K")
    with pytest.raises(UnknownKnot):
        lens5.linking_number("K", "missing")


def test_sublink_canonicalization(lens5, hopf):
    assert hopf.sublink(None) == ("K1", "K2")
    assert hopf.sublink(["K2", "K1"]) == ("K1", "K2")
    assert hopf.sublink(["K2"]) == ("K2",)
    with pytest.raises(DuplicateName):
        hopf.sublink(["K1", "K1"])
    with pytest.raises(UnknownKnot):
        lens5.sublink(["nope"])


def test_admissibility_certificate(lens5):
    cert = lens5.is_admissible()
    assert cert
    assert cert.subgroup_factors is None
    (expr,) = cert.expressions
    # the expression writes a generator of Z/5 in terms of the knot class
    total = lens5.h1.zero()
    for knot, coeff in expr.items():
        total = total + coeff * lens5.knot_class(knot)
    assert element_total_generates(lens5, total)


def element_total_generates(man, elem):
    from idelink.abelian import element_order

    return element_order(elem) == man.h1.order()


def test_non_admissible_certificate():
    man = load_manifold(
        {
            "surgery": {"components": ["L1"], "matrix": [[5]]},
            "link": {"components": ["K"], "lk_with_surgery": [[0]], "lk_mutual": [[0]]},
        }
    )
    cert = man.is_admissible()
    assert not cert
    assert cert.expressions is None
    assert cert.subgroup_factors == ()
    assert not man.generates_h1(("K",))


def test_certificate_takes_one_lattice_for_all_invariant_factors(monkeypatch):
    # H1 = Z/2 e1 + Z/2 e2 + Z/4 e3 with classes e1 + e2, e2 + e3 and 3 e3
    man = load_manifold(
        {
            "surgery": {"components": ["L1", "L2", "L3"], "matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 4]]},
            "link": {
                "components": ["K1", "K2", "K3"],
                "lk_with_surgery": [[1, 1, 0], [0, 1, 1], [0, 0, 3]],
                "lk_mutual": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            },
        }
    )
    names = ("kernel_mod", "kernel_basis", "preimage_lattice")
    calls = {name: [] for name in names}

    def counting(name, real):
        def wrapper(*args):
            calls[name].append(args)
            return real(*args)

        return wrapper

    from idelink import abelian, ideles, presentation

    for name in names:
        spy = counting(name, getattr(linalg, name))
        for module in (linalg, abelian, ideles, presentation):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    cert = man.is_admissible()
    # K1 = e1 + e2, K2 + K3 = e2 + 4 e3 = e2 and K3 = 3 e3 have orders 2, 2 and 4,
    # and together they give e2, e1 = K1 - e2 and e3 = -K3, so H1(M) is their direct sum
    assert cert.expressions == ({"K1": 1}, {"K2": 1, "K3": 1}, {"K3": 1})
    # Y is the one congruence kernel of the knots' solves, modulo |det Lambda| = 16
    assert [args[1] for args in calls["kernel_mod"]] == [16]
    assert calls["kernel_basis"] == [] and calls["preimage_lattice"] == []


def test_certificate_expressions_generate_h1_with_the_invariant_factor_orders():
    """The admissible certificate's defining property, read with no Smith transform.

    The classes sum_K c_K [K] of the expressions have the invariant factors
    as orders, in order, and H1(M) modulo them is trivial, so H1(M) is their
    direct sum. Fuzz-sampled manifolds with s <= 6, on the whole link and on
    admissible proper sublinks, then the benchmark generator's s = r = 20
    and s = r = 48 instances.
    """
    cfg = FuzzConfig(trials=1, seed=0, max_surgery=6)
    stages = []
    proper = 0
    seed = 0
    while len(stages) < 200 or proper < 100:
        rng = random.Random(seed)
        man = load_and_validate(_sample_presentation(rng, cfg))
        seed += 1
        if not man.h1.invariant_factors:
            continue
        if man.generates_h1(man.knot_names):
            stages.append((man, man.knot_names))
        for k in range(1, len(man.knot_names)):
            link = man.sublink(rng.sample(man.knot_names, k))
            if man.generates_h1(link):
                stages.append((man, link))
                proper += 1
                break
    for s in (20, 48):
        man = generator_manifold(s, s, s)
        stages.append((man, man.knot_names))
    for man, link in stages:
        cert = man.admissibility_of(link)
        assert cert and len(cert.expressions) == len(man.h1.invariant_factors)
        classes = []
        for expression in cert.expressions:
            assert set(expression) <= set(link)
            total = man.h1.zero()
            for k, c in expression.items():
                total = total + c * man.knot_class(k)
            classes.append(total)
        assert tuple(element_order(x) for x in classes) == man.h1.invariant_factors, (man.presentation, link)
        assert man.h1.quotient(x.coords for x in classes).is_trivial(), (man.presentation, link)


def test_certificate_transforms_stay_within_the_order_of_h1(monkeypatch):
    """Growth guard: the Smith form of the principal divisors at s = r = 48 keeps every
    transform entry within the bit length of |det Lambda| (179 bits); the Smith form
    of Lambda itself reached 2089."""
    from idelink import fuzz, presentation

    man = generator_manifold(48, 48, 48)
    forms = []
    real = linalg.smith_normal_form

    def recording(a):
        forms.append(real(a))
        return forms[-1]

    for module in (linalg, presentation, fuzz):
        if hasattr(module, "smith_normal_form"):
            monkeypatch.setattr(module, "smith_normal_form", recording)
    assert man.is_admissible()
    bound = man.h1.modulus.bit_length()
    assert forms
    for snf in forms:
        longest = max(abs(x).bit_length() for x in snf.u.entries + snf.v.entries)
        assert longest <= bound, (longest, bound)


def test_subgroup_factors_read_the_hermite_basis_of_the_knot_classes():
    """The non-admissible certificate against the subgroup's own kernel route, on random sublinks."""
    from idelink.abelian import subgroup_invariant_factors

    rng = random.Random(1515)
    non_admissible = nontrivial = 0
    for _ in range(1000):
        man = random_manifold(rng, 5, 5, rng.choice((2, 3, 5)))
        knots = list(man.knot_names)
        link = man.sublink(rng.sample(knots, rng.randint(1, len(knots))))
        cert = man.admissibility_of(link)
        if cert:
            continue
        classes = [man.knot_class(k).coords for k in link]
        assert cert.subgroup_factors == subgroup_invariant_factors(man.h1, classes), (man.presentation, link)
        non_admissible += 1
        nontrivial += cert.subgroup_factors != ()
    assert non_admissible >= 200 and nontrivial >= 100, (non_admissible, nontrivial)


def test_principal_divisors_are_the_whole_kernel_and_the_divisors_delta_accepts():
    """Y on seeded (manifold, sublink) pairs, s = 0 and the empty sublink among them.

    The congruence kernel of the knots' solves modulo |det Lambda| equals
    ``preimage_lattice`` of [classes | Lambda], the whole kernel, there and
    on the benchmark generator's s = r = 48 instance (whole link and one
    seeded half-link), where |det Lambda| has 179 bits; and a divisor lies
    in Y exactly when ``delta_from_divisor`` finds its principal idele.
    """
    from idelink.errors import DivisorNotPrincipal
    from idelink.ideles import Divisor, delta_from_divisor
    from idelink.local import complement_homology

    rng = random.Random(2424)
    empty = flat = 0
    member = {True: 0, False: 0}
    for _ in range(1200):
        man = random_manifold(rng, 5, 5, rng.choice((2, 3, 5)))
        knots = list(man.knot_names)
        link = man.sublink(rng.sample(knots, rng.randint(0, len(knots))))
        s = len(man.surgery_names)
        classes = linalg.IntMatrix.from_columns([man.knot_class(k).coords for k in link], rows=s)
        y = man.principal_divisors(link)
        assert y == linalg.preimage_lattice(classes, man.surgery_matrix), (man.presentation, link)
        empty += not link
        flat += s == 0
        comp = complement_homology(man, link)
        for _ in range(2):
            if rng.random() < 0.5:  # in Y by construction
                c = [0] * len(link)
                for row in y:
                    q = rng.randint(-3, 3)
                    c = [a + q * b for a, b in zip(c, row)]
            else:
                c = [rng.randint(-6, 6) for _ in link]
            inside = not any(lattice_reduce(c, y))
            try:
                delta_from_divisor(comp, Divisor.of(dict(zip(link, c))))
                accepted = True
            except DivisorNotPrincipal:
                accepted = False
            assert accepted == inside, (man.presentation, link, c)
            member[inside] += 1
    assert empty >= 100 and flat >= 100 and min(member.values()) >= 500, (empty, flat, member)
    man = generator_manifold(48, 48, 48)
    assert man.h1.modulus.bit_length() == 179
    for link in (man.knot_names, man.sublink(random.Random(48).sample(man.knot_names, 24))):
        classes = linalg.IntMatrix.from_columns([man.knot_class(k).coords for k in link], rows=48)
        assert man.principal_divisors(link) == linalg.preimage_lattice(classes, man.surgery_matrix), link


def test_generates_h1_matches_certificate():
    """Two independent routes to admissibility: the Hermite basis W of span(ell_K) + Lambda Z^s
    (``generates_h1``) and the principal divisors Y (``admissibility_of``)."""
    cases = [
        LENS5,
        HOPF,
        {
            "surgery": {"components": ["L1"], "matrix": [[4]]},
            "link": {"components": ["K"], "lk_with_surgery": [[2]], "lk_mutual": [[0]]},
        },
    ]
    for data in cases:
        man = load_manifold(data)
        for link in (None, man.knot_names[:1]):
            chosen = man.sublink(link)
            assert man.generates_h1(chosen) == bool(man.admissibility_of(chosen))
    rng = random.Random(2323)
    outcomes = {True: 0, False: 0}
    for _ in range(1000):
        man = random_manifold(rng, 5, 5, rng.choice((2, 3, 5)))
        knots = list(man.knot_names)
        link = man.sublink(rng.sample(knots, rng.randint(0, len(knots))))
        admissible = man.generates_h1(link)
        assert admissible == bool(man.admissibility_of(link)), (man.presentation, link)
        outcomes[admissible] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_knot_quotient_folds_the_knot_classes_into_the_cached_hermite_basis(monkeypatch):
    """H1(M)/G appends the knot classes to H1's Hermite basis W, not to Lambda's dense columns."""
    from idelink import abelian

    man = generator_manifold(48, 48, 48)
    h1_basis = man.h1.hermite_basis
    calls = []
    real = abelian.hermite_basis_mod

    def spy(rows, width, d):
        calls.append([list(r) for r in rows])
        return real(rows, width, d)

    monkeypatch.setattr(abelian, "hermite_basis_mod", spy)
    assert man.generates_h1(man.knot_names)
    s, l = man.h1.generator_count, len(man.knot_names)
    assert len(calls) == 1 and len(calls[0]) == s + l
    assert calls[0][:s] == h1_basis


def test_handle_slide_preserves_invariants():
    base = load_manifold(
        {
            "surgery": {"components": ["L1"], "matrix": [[5]]},
            "link": {
                "components": ["J", "K"],
                "lk_with_surgery": [[1], [2]],
                "lk_mutual": [[0, 3], [3, 0]],
            },
        }
    )
    # slide J across the surgery curve: its surgery linking row gains the
    # framing row, and its mutual linking with K gains lk(K, L1)
    slid = load_manifold(
        {
            "surgery": {"components": ["L1"], "matrix": [[5]]},
            "link": {
                "components": ["J", "K"],
                "lk_with_surgery": [[6], [2]],
                "lk_mutual": [[0, 5], [5, 0]],
            },
        }
    )
    assert slid.knot_class("J") == base.knot_class("J")
    assert slid.knot_order("J") == base.knot_order("J")
    assert slid.linking_number("J", "K") == base.linking_number("J", "K")


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6))
def test_linking_number_is_symmetric(la, lb, framing):
    man = load_manifold(
        {
            "surgery": {"components": ["L1"], "matrix": [[framing]]},
            "link": {
                "components": ["A", "B"],
                "lk_with_surgery": [[la], [lb]],
                "lk_mutual": [[0, 2], [2, 0]],
            },
        }
    )
    assert man.linking_number("A", "B") == man.linking_number("B", "A")


def test_knot_solution_matches_the_generic_element_route():
    """t_K against |det Lambda| times the Fraction solve, the order against the element route."""
    from idelink.abelian import element_order

    rng = random.Random(3131)
    knots = nontrivial = 0
    for _ in range(240):
        man = random_manifold(rng, 5, 5, rng.choice((2, 3, 5)))
        lam = man.surgery_matrix
        den = abs(linalg.determinant(lam)) if lam.rows else 1
        for k in man.knot_names:
            solved = man.knot_solution(k)
            ell = man.presentation.lk_with_surgery.row(man.knot_index(k))
            assert solved.t == tuple(den * x for x in fraction_solve(lam.to_rows(), ell))
            assert man.h1.modulus == den
            assert man.knot_order(k) == solved.order == element_order(man.knot_class(k))
            assert man.knot_solution(k) is solved
            knots += 1
            nontrivial += solved.order > 1
    assert knots >= 600 and nontrivial >= 200, (knots, nontrivial)


def test_linking_number_has_the_closed_form_on_the_cached_solve():
    """lk(a, b) = (lk_mut * den - ell_a . t_b) / den, read off ``knot_solution(b)``.

    The library still takes its Fraction solve; this is the closed form a
    later change can route ``linking_number`` through.
    """
    rng = random.Random(2727)
    pairs = fractional = 0
    for _ in range(200):
        man = random_manifold(rng, 6, 5, rng.choice((2, 3, 5)))
        pres = man.presentation
        for a in man.knot_names:
            for b in man.knot_names:
                if a == b:
                    continue
                solved = man.knot_solution(b)
                ell_a = pres.lk_with_surgery.row(man.knot_index(a))
                mutual = pres.lk_mutual[man.knot_index(a), man.knot_index(b)]
                den = man.h1.modulus
                closed = Fraction(mutual * den - sum(x * y for x, y in zip(ell_a, solved.t)), den)
                assert man.linking_number(a, b) == closed
                pairs += 1
                fractional += closed.denominator > 1
    assert pairs > 1000 and fractional > 300, (pairs, fractional)


def test_det_lambda_has_one_owner(lens5):
    """Every per-knot reader takes |det Lambda| from ``h1.modulus``, not from the LU.

    With the cached modulus of L(5, 1) replaced by 10 before any knot query,
    the order, the longitude and the divisor map all see 10, while the LU's
    own minor still reads 5.
    """
    from idelink.errors import DivisorNotPrincipal
    from idelink.ideles import Divisor, delta_from_divisor
    from idelink.local import complement_homology, preferred_longitude

    lens5.h1.__dict__["modulus"] = 10
    assert abs(lens5.h1.block_lu.minor) == 5
    assert lens5.knot_order("K") == 10
    ld = preferred_longitude(lens5, "K")
    assert (ld.lambda_class.meridian, ld.lambda_class.longitude) == (1, 10)
    with pytest.raises(DivisorNotPrincipal):
        delta_from_divisor(complement_homology(lens5), Divisor.of({"K": 5}))


def test_a_second_order_query_runs_no_linear_algebra(monkeypatch):
    man = random_manifold(random.Random(61), 5, 5, 5)
    first = {k: man.knot_order(k) for k in man.knot_names}
    counts = count_linear_algebra(monkeypatch)
    assert {k: man.knot_order(k) for k in man.knot_names} == first
    assert counts == {"mul_vector": 0, "solve": 0, "element_order": 0, "FgAbelianGroup": 0}


def test_an_undeclared_knot_is_refused_on_every_call(lens5):
    for _ in range(2):
        with pytest.raises(UnknownKnot):
            lens5.knot_order("missing")
        with pytest.raises(UnknownKnot):
            lens5.knot_solution("missing")
        assert lens5.knot_order("K") == 5
