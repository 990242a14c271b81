"""End-to-end acceptance suite.

Each test is one acceptance criterion, checked exactly (zero tolerance) and
concluded with a single printed PASS/FAIL line. Criteria 1 to 3 share one
1000-trial fuzz run; criterion 8 shells out to the installed command twice.
"""

import itertools
import math
import random
import subprocess
import sys

import pytest

from idelink.covers import decomposition_data, kummer_cover
from idelink.fuzz import FuzzConfig, _sample_cover, _sample_presentation, fuzz_suite
from idelink.ideles import Divisor, delta_from_divisor, global_pairing, principal_lattice_basis
from idelink.linalg import IntMatrix, determinant, smith_normal_form, solve_mod_subgroup
from idelink.local import PeripheralClass, complement_homology, local_intersection, preferred_longitude, valuation
from idelink.presentation import load_and_validate

from conftest import HOPF, LENS5, load_manifold


def conclude(number, ok, description):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def report1000():
    return fuzz_suite(FuzzConfig(trials=1000, seed=42))


def counts(report, name):
    return report.to_json()["properties"][name]


def test_acceptance_1_reciprocity_law(report1000):
    c = counts(report1000, "pairing-reciprocity")
    ok = c == {"pass": 1000, "fail": 0, "skip": 0}
    conclude(1, ok, f"global pairing vanished on principal pairs in 1000/1000 fuzzed instances ({c})")


def test_acceptance_2_key_equality(report1000):
    c = counts(report1000, "key-equality")
    ok = c == {"pass": 1000, "fail": 0, "skip": 0}
    conclude(2, ok, f"divisor map image matched the principal kernel in both directions ({c})")


def test_acceptance_3_product_formula(report1000):
    c = counts(report1000, "product-formula")
    ok = c == {"pass": 1000, "fail": 0, "skip": 0}
    conclude(3, ok, f"global symbol equalled the sum of local symbols and vanished on principal ideles ({c})")


def test_acceptance_4_worked_oracles():
    ok = True

    hopf = load_manifold(HOPF)
    comp = complement_homology(hopf)
    d1 = delta_from_divisor(comp, Divisor.of({"K1": 1}))
    d2 = delta_from_divisor(comp, Divisor.of({"K2": 1}))
    ok &= d1.to_dict() == {"K1": [0, 1], "K2": [-1, 0]}
    ok &= global_pairing(d1, d2) == 0
    kc = kummer_cover(comp, Divisor.of({"K1": 1}), 2)
    ok &= kc.cover.meridian_image("K1") == (1,)
    ok &= kc.cover.meridian_image("K2") == (0,)
    ok &= kc.branch_locus == ("K1",)

    lens = load_manifold(LENS5)
    ok &= lens.h1.invariant_factors == (5,)
    ok &= lens.knot_order("K") == 5
    ld = preferred_longitude(lens, "K")
    ok &= (ld.lambda_class.meridian, ld.lambda_class.longitude) == (1, 5)
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
    from fractions import Fraction

    ok &= two.linking_number("J", "K") == Fraction(-1, 5)
    lens_comp = complement_homology(lens)
    ok &= delta_from_divisor(lens_comp, Divisor.of({"K": 5})).to_dict() == {"K": [1, 5]}
    ok &= [b.to_dict() for b in principal_lattice_basis(lens_comp)] == [{"K": [1, 5]}]

    conclude(4, bool(ok), "Hopf link and lens space instances reproduced every frozen value")


def test_acceptance_5_local_structure():
    rng = random.Random(505)
    ok = True
    for _ in range(10_000):
        a = PeripheralClass("K", rng.randint(-99, 99), rng.randint(-99, 99))
        b = PeripheralClass("K", rng.randint(-99, 99), rng.randint(-99, 99))
        c = PeripheralClass("K", rng.randint(-99, 99), rng.randint(-99, 99))
        ok &= local_intersection(a, b) == -local_intersection(b, a)
        ok &= local_intersection(a + b, c) == local_intersection(a, c) + local_intersection(b, c)
        # valuation is the longitude coordinate and its kernel is the meridian span
        ok &= valuation(a) == a.longitude
        ok &= (valuation(a) == 0) == (a - PeripheralClass("K", a.meridian, 0)).is_zero()
        if not ok:
            break

    cfg = FuzzConfig(trials=1, seed=0)
    checked = 0
    for i in range(200):
        man = load_and_validate(_sample_presentation(random.Random(40_000 + i), cfg))
        for k in man.knot_names:
            ld = preferred_longitude(man, k)
            ok &= valuation(ld.lambda_class) % man.knot_order(k) == 0
            checked += 1
    conclude(5, bool(ok), f"pairing bilinear and antisymmetric on 10^4 pairs; order divides longitude valuation on {checked} fuzzed knots")


def test_acceptance_6_decomposition_sanity(report1000):
    ok = True
    cfg = FuzzConfig(trials=1, seed=0)
    surjective = 0
    i = 0
    while surjective < 500 and i < 3000:
        rng = random.Random(60_000 + i)
        i += 1
        man = load_and_validate(_sample_presentation(rng, cfg))
        comp = complement_homology(man)
        cover = _sample_cover(comp, rng)
        if not cover.is_surjective():
            continue
        surjective += 1
        for k in comp.link:
            dd = decomposition_data(cover, k)
            ok &= (
                dd.ramification_index * dd.residue_degree * dd.component_count
                == cover.target.order()
            )

    # ramification exactly on the Kummer branch locus, from the shared run
    c = counts(report1000, "kummer-consistency")
    ok &= c["fail"] == 0 and c["pass"] > 0
    conclude(6, bool(ok), f"e*f*g matched the covering degree on {surjective} surjective covers; Kummer branch loci ramified exactly ({c})")


def test_acceptance_7_linear_algebra_oracles():
    rng = random.Random(707)
    ok = True
    for _ in range(10_000):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        snf = smith_normal_form(m)
        d = snf.u @ m @ snf.v
        diag = snf.diagonal
        ok &= all(
            d[i, j] == (diag[i] if i == j else 0) for i in range(r) for j in range(c)
        )
        ok &= abs(determinant(snf.u)) == 1 and abs(determinant(snf.v)) == 1
        ok &= all(x >= 0 for x in diag)
        ok &= all(
            (a == 0 and b == 0) or (a != 0 and b % a == 0) for a, b in zip(diag, diag[1:])
        )
        if r == c:
            prod = 1
            for x in diag:
                prod *= x
            ok &= prod == abs(determinant(m))
        if not ok:
            break

    matched = 0
    for _ in range(200):
        rows, ca = rng.randint(1, 2), rng.randint(1, 2)
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(ca)] for _ in range(rows)])
        moduli = [rng.randint(1, 6) for _ in range(rows)]
        b = IntMatrix.from_rows(
            [[moduli[i] if i == j else 0 for j in range(rows)] for i in range(rows)]
        )
        target = [rng.randint(-4, 4) for _ in range(rows)]
        got = solve_mod_subgroup(a, b, target)
        period = math.lcm(*moduli)
        found = None
        for x in itertools.product(range(period), repeat=ca):
            if all(
                (target[i] - sum(a[i, j] * x[j] for j in range(ca))) % moduli[i] == 0
                for i in range(rows)
            ):
                found = x
                break
        if found is None:
            ok &= got is None
        else:
            ok &= got is not None and all(
                (target[i] - sum(a[i, j] * got[j] for j in range(ca))) % moduli[i] == 0
                for i in range(rows)
            )
        matched += 1
    conclude(7, bool(ok), f"Smith form oracle identities held on 10^4 matrices; solve_mod_subgroup matched exhaustive search on {matched} systems")


def test_acceptance_8_cli_determinism():
    cmd = [sys.executable, "-m", "idelink.cli", "fuzz", "--trials", "500", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    ok = r1.returncode == 0 and r2.returncode == 0 and r1.stdout == r2.stdout and r1.stdout
    conclude(8, bool(ok), "two runs of fuzz --trials 500 --seed 7 printed byte-identical reports")
