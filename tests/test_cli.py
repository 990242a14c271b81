"""Command-line surface: golden outputs, error codes, determinism, parser reuse."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import idelink
from idelink import cli, linalg
from idelink.cli import run_command
from idelink.presentation import presentation_to_dict

from conftest import HOPF, LENS5, random_manifold, record_smith_forms


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info(capsys, lens5_path):
    code, out = run(capsys, "info", lens5_path)
    assert code == 0
    assert out == {
        "h1": ["5"],
        "admissible": True,
        "knots": {"K": {"order": 5, "lambda": [1, 5], "basis": False}},
    }


def test_lk(capsys, hopf_path, lens5_path):
    code, out = run(capsys, "lk", hopf_path, "K1", "K2")
    assert (code, out) == (0, {"lk": "1"})

    # rationals print as p/q in lowest terms
    code, out = run_two_knot_lens(capsys)
    assert (code, out) == (0, {"lk": "-1/5"})


def run_two_knot_lens(capsys):
    import tempfile, os

    data = {
        "surgery": {"components": ["L1"], "matrix": [[5]]},
        "link": {
            "components": ["J", "K"],
            "lk_with_surgery": [[1], [1]],
            "lk_mutual": [[0, 0], [0, 0]],
        },
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(data, fh)
        path = fh.name
    try:
        return run(capsys, "lk", path, "J", "K")
    finally:
        os.unlink(path)


def test_longitude(capsys, lens5_path):
    code, out = run(capsys, "longitude", lens5_path, "K")
    assert code == 0
    assert out == {"knot": "K", "lambda": [1, 5], "index": 5, "basis": False}


def test_class_group_and_basis(capsys, hopf_path):
    code, out = run(capsys, "class-group", hopf_path)
    assert code == 0
    assert out == {"link": ["K1", "K2"], "class_group": ["0", "0"], "cokernel": []}

    code, out = run(capsys, "principal-basis", hopf_path)
    assert code == 0
    assert out == {
        "link": ["K1", "K2"],
        "basis": [{"K1": [1, 0], "K2": [0, -1]}, {"K1": [0, 1], "K2": [-1, 0]}],
    }


def test_delta_and_is_principal(capsys, hopf_path):
    code, out = run(capsys, "delta", hopf_path, "--divisor", "K1=1")
    assert code == 0
    assert out == {"idele": {"K1": [0, 1], "K2": [-1, 0]}}

    code, out = run(capsys, "is-principal", hopf_path, "--a", '{"K1":[0,1],"K2":[-1,0]}')
    assert (code, out) == (0, {"principal": True})
    code, out = run(capsys, "is-principal", hopf_path, "--a", '{"K1":[1,0]}')
    assert (code, out) == (0, {"principal": False})


def test_pairing(capsys, hopf_path):
    code, out = run(
        capsys,
        "pairing",
        hopf_path,
        "--a",
        '{"K1":[0,1],"K2":[-1,0]}',
        "--b",
        '{"K1":[-1,0],"K2":[0,1]}',
    )
    assert (code, out) == (0, {"iota": "0"})


def test_cover_symbol_decomp(capsys, hopf_path):
    phi = '{"branch_link":["K1","K2"],"target":[2],"phi":[[1],[0]]}'
    code, out = run(capsys, "cover", hopf_path, "--phi", phi)
    assert code == 0
    assert out["surjective"] is True

    code, out = run(capsys, "symbol", hopf_path, "--phi", phi, "--a", '{"K1":[1,0]}')
    assert code == 0
    assert out == {"symbol": [1], "local_symbols": {"K1": [1], "K2": [0]}}

    code, out = run(capsys, "decomp", hopf_path, "K1", "--phi", phi)
    assert code == 0
    assert out == {"knot": "K1", "ramification": 2, "residue_degree": 1, "components": 1}


def test_kummer(capsys, hopf_path):
    code, out = run(capsys, "kummer", hopf_path, "--divisor", "K1=1", "--n", "2")
    assert code == 0
    assert out == {
        "cover": {"branch_link": ["K1", "K2"], "target": [2], "phi": [[1], [0]]},
        "branch_locus": ["K1"],
    }


def test_each_stage_command_eliminates_lambda_once_and_takes_no_smith_form(capsys, tmp_path, monkeypatch):
    """Every command loads the manifold afresh, and its one elimination of Lambda is the load's LU.

    An elimination of Lambda is a ``_gauss_jordan`` call that starts from
    den = 1 and whose first s columns, on its first s rows, are Lambda's: the
    LU, a ``FractionFreeLU`` of a stage's relations, or a kernel whose relation columns
    come first, as the whole kernel of [peripheral | relations] does.
    """
    rng = random.Random(9909)
    while True:
        man = random_manifold(rng, 6, 4, 5)
        if len(man.surgery_names) >= 4 and man.h1.invariant_factors and man.generates_h1(man.knot_names):
            break
    path = tmp_path / "m.json"
    path.write_text(json.dumps(presentation_to_dict(man.presentation)))
    s, l = len(man.surgery_names), len(man.knot_names)
    lam_columns = sorted(man.surgery_matrix.to_rows())  # Lambda is symmetric
    eliminations = []
    kernel_widths = []
    real_elimination, real_kernel = linalg._gauss_jordan, linalg.integer_kernel

    def elimination(work, order, reduced, den=1, steps=None):
        order = list(order)
        if den == 1 and len(work) >= s and len(order) >= s:
            block = sorted([[work[i][c] for i in range(s)] for c in order[:s]])
            eliminations.append(block == lam_columns)
        return real_elimination(work, order, reduced, den, steps)

    def kernel(a):
        kernel_widths.append(a.cols)
        return real_kernel(a)

    monkeypatch.setattr(linalg, "_gauss_jordan", elimination)
    monkeypatch.setattr(linalg, "integer_kernel", kernel)
    smith_inputs = record_smith_forms(monkeypatch)

    def lambda_eliminations(command, *args):
        eliminations.clear()
        code, out = run(capsys, command, str(path), *args)
        assert code == 0, (command, out)
        return eliminations.count(True), out

    count, out = lambda_eliminations("info")
    assert out["admissible"] is True and count == 1
    k1 = man.knot_names[0]
    divisor = f"{k1}={out['knots'][k1]['order']}"
    count, out = lambda_eliminations("delta", "--divisor", divisor)
    assert count == 1
    assert lambda_eliminations("longitude", k1)[0] == 1
    assert lambda_eliminations("is-principal", "--a", json.dumps(out["idele"]))[0] == 1
    assert lambda_eliminations("kummer", "--divisor", divisor, "--n", "3")[0] == 1
    assert lambda_eliminations("principal-basis")[0] == 1  # its kernel takes the knot rows alone, over |det Lambda|
    kernel_widths.clear()
    assert lambda_eliminations("class-group")[0] == 1  # the cokernel needs only |det Lambda|
    assert 2 * l + s not in kernel_widths  # class-group takes no kernel of the peripheral table
    assert smith_inputs == []  # and no command takes a Smith form: invariant factors come modulo a maximal minor


def test_hilbert(capsys, hopf_path):
    code, out = run(
        capsys,
        "hilbert",
        hopf_path,
        "K1",
        "--a",
        '{"K1":[-1,0],"K2":[0,1]}',
        "--b",
        '{"K1":[0,1],"K2":[-1,0]}',
        "--n",
        "3",
    )
    assert (code, out) == (0, {"symbol": 2})


def test_error_paths(capsys, hopf_path, lens5_path):
    code, out = run(capsys, "info", "/no/such/file.json")
    assert (code, out["error"]) == (2, "bad_input")

    code, out = run(capsys, "delta", lens5_path, "--divisor", "K=1")
    assert (code, out["error"]) == (2, "divisor_not_principal")

    code, out = run(capsys, "delta", hopf_path, "--divisor", "K9=1")
    assert (code, out["error"]) == (2, "unknown_knot")
    assert out["detail"] == "knot 'K9' was never declared"

    code, out = run(capsys, "delta", hopf_path, "--divisor", "K1")
    assert (code, out["error"]) == (2, "bad_input")

    code, out = run(capsys, "pairing", hopf_path, "--link", "K1", "--a", '{"K2":[1,0]}', "--b", "{}")
    assert (code, out["error"]) == (2, "support_outside_link")
    assert out["detail"] == "component at 'K2' lies outside the sublink ['K1']"

    code, out = run(capsys, "kummer", hopf_path, "--divisor", "K1=1", "--n", "1")
    assert (code, out["error"]) == (2, "bad_modulus")

    code, out = run(capsys, "is-principal", hopf_path, "--a", "not json")
    assert (code, out["error"]) == (2, "bad_input")

    code, out = run(capsys, "bogus-command")
    assert (code, out["error"]) == (2, "bad_input")

    code, out = run(capsys, "lk", hopf_path, "K1")
    assert (code, out["error"]) == (2, "bad_input")


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "{hopf}", "--divisor", "K1=1_0"],
        ["delta", "{hopf}", "--divisor", "K1=\u0663"],
        ["kummer", "{hopf}", "--divisor", "K1=1", "--n", "\u0663"],
        ["fuzz", "--trials", "1_0"],
    ],
    ids=["divisor-underscore", "divisor-arabic-indic", "n-arabic-indic", "trials-underscore"],
)
def test_integer_flags_take_only_ascii_decimals(capsys, hopf_path, argv):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3
    code, out = run(capsys, *(a.format(hopf=hopf_path) for a in argv))
    assert (code, out["error"]) == (2, "bad_input")


def test_a_signed_or_padded_divisor_coefficient_is_still_read(capsys, hopf_path):
    code, out = run(capsys, "delta", hopf_path, "--divisor", "K1=-3")
    assert (code, out) == (0, {"idele": {"K1": [0, -3], "K2": [3, 0]}})
    code, out = run(capsys, "delta", hopf_path, "--divisor", "K1= 4")
    assert (code, out) == (0, {"idele": {"K1": [0, 4], "K2": [-4, 0]}})


def presentation(matrix=((5,),), lk_with_surgery=((1,),), lk_mutual=((0,),), surgery=("L1",), knots=("K",)):
    """A lens space L(5, 1) presentation with the given fields replaced."""
    return {
        "surgery": {"components": surgery, "matrix": matrix},
        "link": {"components": knots, "lk_with_surgery": lk_with_surgery, "lk_mutual": lk_mutual},
    }


def phi(branch_link, target, values):
    return json.dumps({"branch_link": branch_link, "target": target, "phi": values})


# (expected error code, presentation file, subcommand, arguments after the file)
ERROR_CASES = {
    "cover-ill-defined": ("cover_ill_defined", LENS5, "cover", ["--phi", phi(["K"], [5], [[0], [1]])]),
    "decomp-outside-branch-link": (
        "knot_outside_link", HOPF, "decomp", ["K2", "--phi", phi(["K1"], [2], [[1]])],
    ),
    "decomp-unknown-knot": ("unknown_knot", HOPF, "decomp", ["K9", "--phi", phi(["K1"], [2], [[1]])]),
    "hilbert-unknown-knot": ("unknown_knot", HOPF, "hilbert", ["K9", "--a", "{}", "--b", "{}", "--n", "2"]),
    "hilbert-outside-link": (
        "knot_outside_link", HOPF, "hilbert", ["K2", "--link", "K1", "--a", "{}", "--b", "{}", "--n", "2"],
    ),
    "kummer-non-admissible-sublink": (
        "not_admissible",
        presentation(lk_with_surgery=((1,), (0,)), lk_mutual=((0, 0), (0, 0)), knots=("J", "K")),
        "kummer",
        ["--link", "K", "--divisor", "K=5", "--n", "2"],
    ),
    "cover-target-zero": ("bad_input", HOPF, "cover", ["--phi", phi(["K1", "K2"], [0], [[0], [0]])]),
    "cover-target-float": ("bad_input", HOPF, "cover", ["--phi", phi(["K1", "K2"], [2.7], [[1], [0]])]),
    "matrix-float": ("bad_input", presentation(matrix=((5.9,),)), "info", []),
    "matrix-bool": ("bad_input", presentation(lk_with_surgery=((True,),)), "info", []),
    "idele-float": ("bad_input", LENS5, "is-principal", ["--a", '{"K":[0.5,1]}']),
    "asymmetric-matrix": (
        "asymmetric_matrix",
        presentation(matrix=((1, 2), (3, 1)), lk_with_surgery=((0, 0),), surgery=("L1", "L2")),
        "info",
        [],
    ),
    "singular-matrix": ("not_qhs3", presentation(matrix=((0,),)), "info", []),
    "bad-dimensions": ("bad_dimensions", presentation(lk_with_surgery=((1, 2),)), "info", []),
    "duplicate-name": ("duplicate_name", presentation(knots=("L1",)), "info", []),
    "components-string": ("bad_input", presentation(knots="K"), "info", []),
    "component-null": ("bad_input", presentation(knots=(None,)), "info", []),
    "branch-link-string": ("bad_input", HOPF, "cover", ["--phi", phi("K1", [2], [[1]])]),
    "unknown-knot": ("unknown_knot", HOPF, "lk", ["K1", "K9"]),
    "self-linking": ("self_linking", HOPF, "lk", ["K1", "K1"]),
    # an undeclared knot is unknown wherever it is named, before any other check reads it
    "lk-unknown-self": ("unknown_knot", HOPF, "lk", ["K9", "K9"]),
    "delta-unknown-divisor-knot": ("unknown_knot", HOPF, "delta", ["--divisor", "K9=1"]),
    "is-principal-unknown-support": ("unknown_knot", HOPF, "is-principal", ["--a", '{"K9":[1,0]}']),
    "is-principal-outside-support": (
        "support_outside_link", HOPF, "is-principal", ["--link", "K1", "--a", '{"K2":[1,0]}'],
    ),
    "pairing-unknown-support": ("unknown_knot", HOPF, "pairing", ["--a", '{"K9":[1,0]}', "--b", "{}"]),
    "hilbert-unknown-support": (
        "unknown_knot", HOPF, "hilbert", ["K1", "--a", '{"K9":[1,0]}', "--b", "{}", "--n", "2"],
    ),
    "symbol-unknown-support": (
        "unknown_knot", HOPF, "symbol", ["--phi", phi(["K1", "K2"], [2], [[1], [0]]), "--a", '{"K9":[1,0]}'],
    ),
    "kummer-unknown-divisor-knot": ("unknown_knot", HOPF, "kummer", ["--divisor", "K9=1", "--n", "2"]),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_codes(capsys, tmp_path, case):
    expected, data, command, rest = ERROR_CASES[case]
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, command, str(path), *rest)
    assert (code, out["error"]) == (2, expected)


def _digit_limit() -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    return limit


def _digits_past_the_limit() -> str:
    return "7" * (_digit_limit() + 1)


# (presentation file bytes, subcommand, arguments after the file): input that the file read or
# json.loads refuses with something other than a JSONDecodeError
UNDECODABLE_INPUT = {
    "file-not-utf8": lambda: (b'{"surgery": "\xff\xfe"}', "info", []),
    "file-deep": lambda: (b"[" * 200_000, "info", []),
    "file-long-integer": lambda: (
        json.dumps(presentation()).replace("[[5]]", f"[[{_digits_past_the_limit()}]]").encode(), "info", []
    ),
    "a-deep": lambda: (json.dumps(LENS5).encode(), "is-principal", ["--a", "[" * 5000]),
    "a-long-integer": lambda: (
        json.dumps(LENS5).encode(), "is-principal", ["--a", f'{{"K": [{_digits_past_the_limit()}, 1]}}']
    ),
    "phi-deep": lambda: (json.dumps(LENS5).encode(), "cover", ["--phi", "[" * 5000]),
    "phi-long-integer": lambda: (
        json.dumps(LENS5).encode(),
        "cover",
        ["--phi", f'{{"branch_link": ["K"], "target": [{_digits_past_the_limit()}], "phi": [[1]]}}'],
    ),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_INPUT))
def test_undecodable_input_is_bad_input(capsys, tmp_path, case):
    content, command, rest = UNDECODABLE_INPUT[case]()
    path = tmp_path / "presentation.json"
    path.write_bytes(content)
    code, out = run(capsys, command, str(path), *rest)
    assert (code, out["error"]) == (2, "bad_input")


# (presentation, subcommand, arguments after the file): a valid input whose answer has an integer
# longer than the digit limit, so it cannot be printed
TOO_LARGE = {
    # the longitude's meridian coefficient is (a + 2)^2
    "info-longitude": lambda a: ([[a, 0], [0, a]], [[a + 2, 0]], "info", []),
    "longitude": lambda a: ([[a, 0], [0, a]], [[a + 2, 0]], "longitude", ["K"]),
    # the invariant factor is det Lambda = a (a + 2) - 1
    "info-h1": lambda a: ([[a, 1], [1, a + 2]], [[1, 0]], "info", []),
}


@pytest.mark.parametrize("case", sorted(TOO_LARGE))
def test_an_answer_too_long_to_print_is_too_large(capsys, tmp_path, case):
    # 10^k + 1 has k + 1 digits, within the limit, so the file loads; products of two have 2k, past it
    matrix, lk_with_surgery, command, rest = TOO_LARGE[case](10 ** (_digit_limit() * 3 // 5) + 1)
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(presentation(matrix, lk_with_surgery, surgery=("L1", "L2"))))
    code, out = run(capsys, command, str(path), *rest)
    assert (code, out["error"]) == (2, "too_large")


def test_other_value_errors_still_propagate(monkeypatch, hopf_path):
    from idelink.presentation import Manifold

    def broken(self, a, b):
        raise ValueError("not a digit-limit error")

    monkeypatch.setattr(Manifold, "linking_number", broken)
    with pytest.raises(ValueError, match="not a digit-limit error"):
        run_command(["lk", hopf_path, "K1", "K2"])


# (expected error code, words in its detail, argv with {file} for the Hopf presentation and {missing}
# for a path that does not exist): the file is read first, then the sublink, then the flags in order
FIRST_FAULT = {
    "missing-file-before-bad-a": ("bad_input", "presentation file", ["is-principal", "{missing}", "--a", "not json"]),
    "unknown-link-knot-before-bad-a": ("unknown_knot", "K9", ["is-principal", "{file}", "--link", "K9", "--a", "not json"]),
    "bad-divisor-before-bad-modulus": ("bad_input", "divisor", ["kummer", "{file}", "--divisor", "K1", "--n", "1"]),
}


@pytest.mark.parametrize("case", sorted(FIRST_FAULT))
def test_a_call_with_several_faults_reports_the_first(capsys, tmp_path, hopf_path, case):
    expected, words, argv = FIRST_FAULT[case]
    argv = [arg.format(file=hopf_path, missing=str(tmp_path / "missing.json")) for arg in argv]
    code, out = run(capsys, *argv)
    assert (code, out["error"]) == (2, expected)
    assert words in out["detail"]


def test_the_stage_is_built_once_exactly_for_subcommands_that_declare_link(capsys, monkeypatch, hopf_path):
    from idelink import local

    loads, stages = [], []
    real_load, real_stage = cli._load_manifold, local.complement_homology
    monkeypatch.setattr(cli, "_load_manifold", lambda path: loads.append(path) or real_load(path))
    monkeypatch.setattr(local, "complement_homology", lambda man, link=None: stages.append(link) or real_stage(man, link))
    ideles = ["--a", '{"K1":[0,1],"K2":[-1,0]}', "--b", '{"K1":[-1,0],"K2":[0,1]}']
    phi = ["--phi", '{"branch_link":["K1","K2"],"target":[2],"phi":[[1],[0]]}']
    with_link = {
        "class-group": [],
        "principal-basis": [],
        "delta": ["--divisor", "K1=1"],
        "is-principal": ["--a", '{"K1":[1,0]}'],
        "pairing": ideles,
        "kummer": ["--divisor", "K1=1", "--n", "2"],
        "hilbert": ["K1", *ideles, "--n", "3"],
    }
    without_link = {
        "info": [],
        "lk": ["K1", "K2"],
        "longitude": ["K1"],
        "cover": phi,
        "symbol": [*phi, "--a", '{"K1":[1,0]}'],
        "decomp": ["K1", *phi],
    }
    for command, rest in {**with_link, **without_link}.items():
        loads.clear()
        stages.clear()
        link = ["--link", "K2,K1"] if command in with_link else []
        assert run_command([command, hopf_path, *link, *rest]) == 0
        assert loads == [hopf_path], command
        assert stages == ([["K2", "K1"]] if command in with_link else []), command
    capsys.readouterr()


def test_fuzz_exit_codes(capsys):
    code, out = run(capsys, "fuzz", "--trials", "10", "--seed", "4")
    assert code == 0
    assert out["failing_trials"] == 0

    code, out = run(capsys, "fuzz", "--trials", "4", "--seed", "4", "--corrupt", "pairing")
    assert code == 1
    assert out["failing_trials"] > 0
    assert out["first_failure"]["property"] == "pairing-reciprocity"


@pytest.mark.parametrize("flag", ["--max-surgery", "--max-link"])
def test_fuzz_past_the_size_limit_is_too_large_before_any_draw(capsys, flag):
    code, out = run(capsys, "fuzz", "--trials", "0", flag, "1000000")
    assert (code, out["error"]) == (2, "too_large")
    assert run(capsys, "fuzz", "--trials", "0", flag, "64")[0] == 0


def test_fuzz_stdout_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "idelink.cli", "fuzz", "--trials", "25", "--seed", "6"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.startswith(b'{"config"')
    # diagnostics go to stderr, never stdout
    assert b"trials in" in r1.stderr


def test_fuzz_report_is_pinned(capsys):
    """The seed-7, 300-trial report, byte for byte (the CI fuzz tiers pin sizes 12 and 24 the same way).

    The hash changes only when a change alters the report on purpose, which
    also changes perfbench's recorded ``fuzz-small`` digest.
    """
    assert run_command(["fuzz", "--trials", "300", "--seed", "7"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "3ed40c07f375037d4a026b393fc43d38b8ff326cd857f3f4bac9d6d2b1c4cc88"


def fresh_stdout(*argv) -> str:
    """Stdout of ``python -m idelink.cli *argv`` in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(idelink.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "idelink.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return done.stdout


def test_one_parser_tree_serves_every_call(capsys, monkeypatch, hopf_path, lens5_path):
    progs = []
    real_init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli._build_parser.cache_clear()
    ideles = ["--a", '{"K1":[0,1],"K2":[-1,0]}', "--b", '{"K1":[-1,0],"K2":[0,1]}']
    phi = ["--phi", '{"branch_link":["K1","K2"],"target":[2],"phi":[[1],[0]]}']
    calls = [
        ["info", lens5_path],
        ["lk", hopf_path, "K1", "K2"],
        ["longitude", lens5_path, "K"],
        ["class-group", hopf_path],
        ["principal-basis", hopf_path],
        ["delta", hopf_path, "--divisor", "K1=1"],
        ["is-principal", hopf_path, "--a", '{"K1":[1,0]}'],
        ["pairing", hopf_path, *ideles],
        ["cover", hopf_path, *phi],
        ["symbol", hopf_path, *phi, "--a", '{"K1":[1,0]}'],
        ["decomp", hopf_path, "K1", *phi],
        ["kummer", hopf_path, "--divisor", "K1=1", "--n", "2"],
        ["hilbert", hopf_path, "K1", *ideles, "--n", "3"],
    ]
    for argv in calls:
        assert run_command(argv) == 0, capsys.readouterr().out
    capsys.readouterr()
    # one root parser and one subparser per subcommand, each built once
    assert progs.count("idelink") == 1
    assert len(progs) == len(set(progs))
    assert {f"idelink {argv[0]}" for argv in calls} <= set(progs)


def test_reused_parser_carries_nothing_between_calls(capsys, hopf_path):
    calls = [
        ["class-group", hopf_path, "--link", "K1"],
        ["kummer", hopf_path, "--divisor", "K1=1"],  # argparse refuses: --n is required
        ["bogus-command", hopf_path],
        ["class-group", hopf_path],
    ]
    outs = []
    for argv in calls:
        run_command(argv)
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0])["link"] == ["K1"]
    assert json.loads(outs[1]) == {"error": "bad_input", "detail": "the following arguments are required: --n"}
    assert json.loads(outs[2])["error"] == "bad_input"
    assert json.loads(outs[3])["link"] == ["K1", "K2"]  # the earlier --link did not stick
    assert outs == [fresh_stdout(*argv) for argv in calls]
