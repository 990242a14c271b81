"""The randomized harness itself: determinism, self-test, shrinking, accounting."""

import itertools
import json
from math import gcd, prod

import pytest

from idelink.cli import run_command
from idelink.errors import BadInput, TooLarge, UnknownKnot
from idelink.fuzz import PROPERTY_NAMES, FuzzConfig, _sample_cover, _sample_presentation, check_trial, fuzz_suite
from idelink import linalg
from idelink.local import complement_homology
from idelink.presentation import load_and_validate, presentation_from_dict

import random

from conftest import record_smith_forms


def test_config_validation():
    FuzzConfig(trials=0, seed=0)
    with pytest.raises(BadInput):
        FuzzConfig(trials=-1, seed=0)
    with pytest.raises(BadInput):
        FuzzConfig(trials=1, seed=0, max_link=0)
    with pytest.raises(BadInput):
        FuzzConfig(trials=1, seed=0, entry_bound=0)
    with pytest.raises(BadInput):
        FuzzConfig(trials=1, seed=0, corrupt="bogus")


@pytest.mark.parametrize(
    "field, value",
    [("trials", 2.5), ("seed", 0.5), ("trials", True), ("coeff_bound", True)],
    ids=["float-trials", "float-seed", "bool-trials", "bool-coeff-bound"],
)
def test_config_integers_must_be_integers(field, value):
    with pytest.raises(BadInput, match=field):
        FuzzConfig(**{"trials": 1, "seed": 0, field: value})


def test_config_refuses_sizes_past_the_limit():
    FuzzConfig(trials=1, seed=0, max_surgery=64, max_link=64)
    for field in ("max_surgery", "max_link"):
        for size in (65, 1_000_000):
            with pytest.raises(TooLarge, match=field):
                FuzzConfig(trials=1, seed=0, **{field: size})


def test_zero_trials_is_an_empty_report():
    rep = fuzz_suite(FuzzConfig(trials=0, seed=9))
    assert rep.failing_trials == 0
    assert rep.first_failure is None
    assert all(
        counts == {"pass": 0, "fail": 0, "skip": 0}
        for counts in rep.to_json()["properties"].values()
    )


def test_small_run_passes_everything():
    rep = fuzz_suite(FuzzConfig(trials=80, seed=11))
    assert rep.failing_trials == 0
    assert rep.first_failure is None
    props = rep.to_json()["properties"]
    assert set(props) == set(PROPERTY_NAMES)
    for counts in props.values():
        assert counts["fail"] == 0
        assert counts["pass"] + counts["skip"] == 80
    # the harness must actually exercise the conditional properties
    assert props["kummer-consistency"]["pass"] > 0
    assert props["slide-invariance"]["pass"] > 0
    assert props["bounding-linking"]["pass"] > 0


def test_reports_are_deterministic():
    a = fuzz_suite(FuzzConfig(trials=60, seed=7))
    b = fuzz_suite(FuzzConfig(trials=60, seed=7))
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    c = fuzz_suite(FuzzConfig(trials=60, seed=8))
    assert json.dumps(a.to_json()) != json.dumps(c.to_json())


def test_wall_time_is_not_part_of_the_report():
    rep = fuzz_suite(FuzzConfig(trials=1, seed=1))
    assert rep.wall_time > 0
    assert "wall" not in json.dumps(rep.to_json())


def test_corrupt_oracle_is_caught_and_shrunk():
    rep = fuzz_suite(FuzzConfig(trials=6, seed=3, corrupt="pairing"))
    assert rep.failing_trials > 0
    ff = rep.to_json()["first_failure"]
    assert ff["property"] == "pairing-reciprocity"
    assert isinstance(ff["witness"], dict)

    # the embedded instance is a loadable presentation that still fails
    pres = presentation_from_dict(ff)
    man = load_and_validate(pres)

    # shrinking must land on a minimal instance: nothing left to drop
    assert len(man.surgery_names) == 0
    assert len(man.knot_names) == 1


def test_check_trial_statuses_cover_every_property():
    cfg = FuzzConfig(trials=1, seed=0)
    man = load_and_validate(
        presentation_from_dict(
            {
                "surgery": {"components": ["L1"], "matrix": [[5]]},
                "link": {
                    "components": ["K"],
                    "lk_with_surgery": [[1]],
                    "lk_mutual": [[0]],
                },
            }
        )
    )
    results = check_trial(man, random.Random(0), cfg)
    assert [name for name, _, _ in results] == list(PROPERTY_NAMES)
    statuses = {name: status for name, status, _ in results}
    assert statuses["pairing-reciprocity"] == "pass"
    assert statuses["bounding-linking"] == "skip"  # surgery present
    assert statuses["slide-invariance"] == "pass"


def test_linking_symmetry_checks_the_order_against_the_smith_diagonal(monkeypatch):
    # doubled invariant factors double the product of the Smith diagonal,
    # while |H1| = |det Lambda| = h1.modulus, which every solve reads, stays
    from functools import cached_property

    from idelink.abelian import FgAbelianGroup

    real = FgAbelianGroup.invariant_factors.func

    def doubled(group):
        return tuple(2 * x for x in real(group))

    corrupted = cached_property(doubled)
    corrupted.__set_name__(FgAbelianGroup, "invariant_factors")
    monkeypatch.setattr(FgAbelianGroup, "invariant_factors", corrupted)
    man = load_and_validate(
        presentation_from_dict(
            {
                "surgery": {"components": ["L1"], "matrix": [[5]]},
                "link": {"components": ["K"], "lk_with_surgery": [[1]], "lk_mutual": [[0]]},
            }
        )
    )
    assert man.h1.order() == 5 and man.h1.invariant_factors == (10,)
    results = check_trial(man, random.Random(0), FuzzConfig(trials=1, seed=0))
    assert {name: status for name, status, _ in results}["linking-symmetry"] == "fail"


@pytest.mark.parametrize(
    "fault",
    [ArithmeticError("meridian coefficient is not an integer"), UnknownKnot("knot 'K9' was never declared")],
    ids=["internal", "escaped-input-error"],
)
def test_an_exception_inside_a_trial_is_a_shrunk_failure(monkeypatch, capsys, fault):
    from idelink import fuzz

    def broken(man, knot):
        raise fault

    monkeypatch.setattr(fuzz, "preferred_longitude", broken)
    rep = fuzz_suite(FuzzConfig(trials=5, seed=1)).to_json()
    assert rep["failing_trials"] == 5
    props = rep["properties"]
    assert props["longitude-kernel"] == {"pass": 0, "fail": 5, "skip": 0}
    for name in PROPERTY_NAMES[PROPERTY_NAMES.index("longitude-kernel") + 1 :]:
        assert props[name] == {"pass": 0, "fail": 0, "skip": 5}
    ff = rep["first_failure"]
    assert (ff["trial"], ff["property"]) == (0, "longitude-kernel")
    assert ff["witness"] == {"exception": type(fault).__name__, "detail": str(fault)}

    # the shrunk instance is loadable, minimal in the knots, and fails the same way on replay
    man = load_and_validate(presentation_from_dict(ff))
    assert len(man.knot_names) == 1 and not any(man.presentation.lk_with_surgery.entries)
    results = check_trial(man, random.Random(0), FuzzConfig(trials=1, seed=0))
    assert [name for name, _, _ in results] == list(PROPERTY_NAMES)
    assert ("longitude-kernel", "fail", ff["witness"]) in results

    # a property failure on the command line, never an input error
    assert run_command(["fuzz", "--trials", "5", "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["first_failure"] == ff


def test_shrink_candidates_drop_one_component_or_move_one_entry_with_its_mirror():
    from idelink.fuzz import _shrink_candidates
    from idelink.presentation import SurgeryPresentation

    rows = {"surgery": [[3, 1], [1, 2]], "lk_with_surgery": [[2, -1], [0, 3]], "lk_mutual": [[0, -2], [-2, 0]]}
    p = SurgeryPresentation.build(["L1", "L2"], rows["surgery"], ["K1", "K2"], rows["lk_with_surgery"], rows["lk_mutual"])
    candidates = list(_shrink_candidates(p))
    # 2 dropped surgery components, 2 dropped knots, then the moves toward zero:
    # Lambda 3 -> 0, 1, 2; 1 -> 0; 2 -> 0, 1; lk_with_surgery 2 -> 0, 1; -1 -> 0; 3 -> 0, 1, 2; lk_mutual -2 -> 0, -1
    assert len(candidates) == 18

    def sub(m, keep_rows, keep_cols):
        return [[m[i][j] for j in keep_cols] for i in keep_rows]

    drops, moves = [], []
    for c in candidates:
        load_and_validate(c)  # every candidate stays a rational homology sphere here
        got = {
            "surgery": c.surgery_matrix.to_rows(),
            "lk_with_surgery": c.lk_with_surgery.to_rows(),
            "lk_mutual": c.lk_mutual.to_rows(),
        }
        if c.surgery_names != p.surgery_names or c.knot_names != p.knot_names:
            s_keep = [i for i, n in enumerate(p.surgery_names) if n in c.surgery_names]
            k_keep = [i for i, n in enumerate(p.knot_names) if n in c.knot_names]
            assert len(s_keep) + len(k_keep) == 3  # exactly one component gone
            assert got == {
                "surgery": sub(rows["surgery"], s_keep, s_keep),
                "lk_with_surgery": sub(rows["lk_with_surgery"], k_keep, s_keep),
                "lk_mutual": sub(rows["lk_mutual"], k_keep, k_keep),
            }
            drops.append(c)
            continue
        changed = {
            (name, i, j)
            for name, m in rows.items()
            for i, row in enumerate(m)
            for j, v in enumerate(row)
            if got[name][i][j] != v
        }
        (name,) = {cell[0] for cell in changed}  # one matrix changed
        i, j = min((i, j) for _, i, j in changed)
        # one entry, and in the symmetric Lambda and lk_mutual its mirror too
        assert changed == ({(name, i, j)} if name == "lk_with_surgery" else {(name, i, j), (name, j, i)})
        old, new = rows[name][i][j], got[name][i][j]
        assert abs(new) < abs(old) and new * old >= 0
        moves.append(c)
    assert len(drops) == 4 and len(moves) == 14


def test_fuzz_trials_take_no_smith_form(monkeypatch):
    """Fuzz covers come from the congruence kernel: fifty default trials take no Smith form."""
    inputs = record_smith_forms(monkeypatch)
    fuzz_suite(FuzzConfig(trials=50, seed=0))
    assert inputs == []


class _ScriptedDraws:
    """Stands in for the RNG of ``_sample_cover``: one cyclic factor Z/n, then the given coefficients.

    ``ranges`` records the bound of every coefficient drawn; a coefficient past
    the script is 0.
    """

    def __init__(self, n: int, coefficients=()):
        self._ints = [1, n]  # one factor, of order n
        self._coefficients = list(coefficients)
        self.ranges = []

    def randint(self, a: int, b: int) -> int:
        return self._ints.pop(0)

    def randrange(self, bound: int) -> int:
        self.ranges.append(bound)
        return self._coefficients.pop(0) if self._coefficients else 0


def test_sampled_covers_are_each_homomorphism_to_z_n_once(monkeypatch):
    """The sampler's lattice is Hom(H1(M - L), Z/n), on seeded stages at fuzz sizes.

    For each n in 1..6 the coefficient bounds n / B_jj of ``_sample_cover``
    multiply to |Hom(H1(M - L), Z/n)| = prod_i gcd(d_i, n) * n^(g - s), d the
    Smith diagonal of the relations; where that count is at most 216, the
    coefficient vectors give that many distinct covers, each one well
    defined (``make_cover`` accepts it). Every stage is taken on the whole
    link and on one proper sublink, the empty one among them.
    """
    from idelink import fuzz

    # each enumerated cover draws the same lattices again; compute each one once
    lattices = {}

    def kernel_mod(rows, n):
        key = (tuple(map(tuple, rows)), n)
        if key not in lattices:
            lattices[key] = linalg.kernel_mod(rows, n)
        return [list(row) for row in lattices[key]]

    monkeypatch.setattr(fuzz, "kernel_mod", kernel_mod)
    rng = random.Random(2828)
    cfg = FuzzConfig(trials=1, seed=0)
    stages = empty = enumerated = bitten = 0
    for _ in range(300):
        man = load_and_validate(_sample_presentation(rng, cfg))
        knots = man.knot_names
        for link in (knots, man.sublink(rng.sample(knots, rng.randint(0, len(knots) - 1)))):
            comp = complement_homology(man, link)
            g, s = comp.generator_count, comp.relations.cols
            diagonal = linalg.smith_normal_form(comp.relations).diagonal
            stages += 1
            empty += not link
            for n in range(1, 7):
                probe = _ScriptedDraws(n)
                _sample_cover(comp, probe)
                count = prod(gcd(d, n) for d in diagonal) * n ** (g - s)
                assert prod(probe.ranges) == count, (man.presentation, link, n, probe.ranges)
                bitten += count < n**g
                if count <= 216:
                    covers = {
                        _sample_cover(comp, _ScriptedDraws(n, c)).values
                        for c in itertools.product(*map(range, probe.ranges))
                    }
                    assert len(covers) == count, (man.presentation, link, n)
                    enumerated += count
    counts = (stages, empty, enumerated, bitten)
    assert stages == 600 and empty >= 100 and enumerated >= 20_000 and bitten >= 500, counts
