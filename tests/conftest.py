import importlib.util
import json
from pathlib import Path

import pytest

from idelink import IntMatrix, Manifold, SurgeryPresentation, determinant, load_and_validate, presentation_from_dict

GENERATOR = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"

LENS5 = {
    "surgery": {"components": ["L1"], "matrix": [[5]]},
    "link": {"components": ["K"], "lk_with_surgery": [[1]], "lk_mutual": [[0]]},
}

HOPF = {
    "surgery": {"components": [], "matrix": []},
    "link": {
        "components": ["K1", "K2"],
        "lk_with_surgery": [[], []],
        "lk_mutual": [[0, 1], [1, 0]],
    },
}

# L(4,1) with a knot linking the surgery curve twice; its preferred
# longitude is a nonprimitive vector in the peripheral lattice
LENS4_TWICE = {
    "surgery": {"components": ["L1"], "matrix": [[4]]},
    "link": {"components": ["K"], "lk_with_surgery": [[2]], "lk_mutual": [[0]]},
}


def record_smith_forms(monkeypatch) -> list:
    """Inputs of every smith_normal_form call, under each name the package binds it to."""
    from idelink import fuzz, linalg, presentation

    inputs = []
    real = linalg.smith_normal_form

    def recording(a):
        inputs.append(a)
        return real(a)

    for module in (linalg, presentation, fuzz):
        if hasattr(module, "smith_normal_form"):
            monkeypatch.setattr(module, "smith_normal_form", recording)
    return inputs


def count_linear_algebra(monkeypatch) -> dict:
    """Counts of mat-vecs, LU solves, element orders and group constructions from here on.

    ``element_order`` is counted under each name the package binds it to.
    """
    from idelink import abelian, covers, fuzz
    from idelink.abelian import FgAbelianGroup
    from idelink.linalg import FractionFreeLU, IntMatrix

    counts = {"mul_vector": 0, "solve": 0, "element_order": 0, "FgAbelianGroup": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(IntMatrix, "mul_vector", counting("mul_vector", IntMatrix.mul_vector))
    monkeypatch.setattr(FractionFreeLU, "solve", counting("solve", FractionFreeLU.solve))
    monkeypatch.setattr(FgAbelianGroup, "__init__", counting("FgAbelianGroup", FgAbelianGroup.__init__))
    order = counting("element_order", abelian.element_order)
    for module in (abelian, covers, fuzz):
        monkeypatch.setattr(module, "element_order", order)
    return counts


def load_manifold(data) -> Manifold:
    return load_and_validate(presentation_from_dict(data))


def generator_instance(seed: int, s: int, r: int) -> dict:
    """The benchmark generator's (``perfbench/gen.py``) admissible instance for a seed, as a dict."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.sample_instance(seed, s, r, need_admissible=True).to_dict()


def generator_manifold(seed: int, s: int, r: int) -> Manifold:
    """The benchmark generator's admissible instance for a seed, loaded."""
    return load_manifold(generator_instance(seed, s, r))


def torsion_instance(s: int) -> dict:
    """The generator's s = r instance for seed s, plus a surgery unknot T of framing 4 and a knot KT.

    lk(KT, T) = 2 and every other new linking number is 0, so on the whole
    link the class group is Z/2 + Z^(s + 1) and the cokernel H1(M)/G is Z/2:
    the principal basis takes its torsion cut to Y. The CI torsion smoke
    pins the s = 48 outputs.
    """
    data = generator_instance(s, s, s)
    surgery, link = data["surgery"], data["link"]
    surgery["components"].append("T")
    surgery["matrix"] = [row + [0] for row in surgery["matrix"]] + [[0] * s + [4]]
    link["components"].append("KT")
    link["lk_with_surgery"] = [row + [0] for row in link["lk_with_surgery"]] + [[0] * s + [2]]
    link["lk_mutual"] = [row + [0] for row in link["lk_mutual"]] + [[0] * (s + 1)]
    return data


def random_manifold(rng, max_surgery, max_link, bound):
    """A validated rational homology sphere with random linking data."""
    s = rng.randint(0, max_surgery)
    r = rng.randint(1, max_link)
    while True:
        rows = [[0] * s for _ in range(s)]
        for i in range(s):
            for j in range(i, s):
                rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        if s == 0 or determinant(IntMatrix.from_rows(rows)):
            break
    lk_mut = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            lk_mut[i][j] = lk_mut[j][i] = rng.randint(-bound, bound)
    return load_and_validate(
        SurgeryPresentation.build(
            [f"L{i + 1}" for i in range(s)],
            rows,
            [f"K{i + 1}" for i in range(r)],
            [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(r)],
            lk_mut,
        )
    )


@pytest.fixture
def lens5() -> Manifold:
    return load_manifold(LENS5)


@pytest.fixture
def hopf() -> Manifold:
    return load_manifold(HOPF)


@pytest.fixture
def lens4_twice() -> Manifold:
    return load_manifold(LENS4_TWICE)


@pytest.fixture
def lens5_path(tmp_path):
    p = tmp_path / "lens5.json"
    p.write_text(json.dumps(LENS5))
    return str(p)


@pytest.fixture
def hopf_path(tmp_path):
    p = tmp_path / "hopf.json"
    p.write_text(json.dumps(HOPF))
    return str(p)
