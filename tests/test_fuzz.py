"""The randomized harness itself: determinism, self-test, shrinking, accounting."""

import json

import pytest

from idelink.errors import BadInput
from idelink.fuzz import PROPERTY_NAMES, FuzzConfig, check_trial, fuzz_suite
from idelink.presentation import load_and_validate, presentation_from_dict

import random


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
    # a doubled maximal minor doubles |H1| and, before, |det Lambda| alike; the
    # product of the invariant factors modulo that minor still reads |H1|
    from idelink import abelian, linalg

    real = linalg.rank_and_minor

    def doubled(a):
        rank, minor = real(a)
        return rank, 2 * minor

    for module in (abelian, linalg):
        monkeypatch.setattr(module, "rank_and_minor", doubled)
    man = load_and_validate(
        presentation_from_dict(
            {
                "surgery": {"components": ["L1"], "matrix": [[5]]},
                "link": {"components": ["K"], "lk_with_surgery": [[1]], "lk_mutual": [[0]]},
            }
        )
    )
    assert man.h1.order() == 10 and man.h1.invariant_factors == (5,)
    results = check_trial(man, random.Random(0), FuzzConfig(trials=1, seed=0))
    assert {name: status for name, status, _ in results}["linking-symmetry"] == "fail"
