"""Command-line surface: golden outputs, error codes, determinism, parser reuse."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import idelink
from idelink import abelian, cli, linalg
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


def test_h1_commands_read_one_inverse_each_and_no_smith_form(capsys, tmp_path, monkeypatch):
    rng = random.Random(9909)
    while True:
        man = random_manifold(rng, 6, 4, 5)
        if len(man.surgery_names) >= 4 and man.h1.invariant_factors and man.generates_h1(man.knot_names):
            break
    path = tmp_path / "m.json"
    path.write_text(json.dumps(presentation_to_dict(man.presentation)))
    calls = {"inverse": 0, "kernel": 0}
    real_inverse, real_kernel = linalg.leading_block_inverse, linalg.integer_kernel

    def inverse(a):
        calls["inverse"] += 1
        return real_inverse(a)

    def kernel(a):
        calls["kernel"] += 1
        return real_kernel(a)

    for module in (abelian, linalg):
        monkeypatch.setattr(module, "leading_block_inverse", inverse)
    monkeypatch.setattr(linalg, "integer_kernel", kernel)
    smith_inputs = record_smith_forms(monkeypatch)

    code, out = run(capsys, "info", str(path))
    assert code == 0 and out["admissible"] is True
    assert (calls["inverse"], calls["kernel"]) == (1, 0)
    order = out["knots"]["K1"]["order"]
    assert run(capsys, "class-group", str(path))[0] == 0
    assert calls["inverse"] == 1  # the cokernel needs only |det Lambda|
    assert calls["kernel"] > 0  # class-group takes the principal lattice
    assert smith_inputs == []  # whose invariant factors come modulo a maximal minor too
    assert run(capsys, "kummer", str(path), "--divisor", f"K1={order}", "--n", "3")[0] == 0
    assert calls["inverse"] == 2  # the 2-chain solve
    assert smith_inputs == []


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
    assert (code, out["error"]) == (2, "support_outside_link")
    assert out["detail"] == "component at 'K9' lies outside the sublink ['K1', 'K2']"

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
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_codes(capsys, tmp_path, case):
    expected, data, command, rest = ERROR_CASES[case]
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, command, str(path), *rest)
    assert (code, out["error"]) == (2, expected)


def _digits_past_the_limit() -> str:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    return "7" * (limit + 1)


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


def test_fuzz_exit_codes(capsys):
    code, out = run(capsys, "fuzz", "--trials", "10", "--seed", "4")
    assert code == 0
    assert out["failing_trials"] == 0

    code, out = run(capsys, "fuzz", "--trials", "4", "--seed", "4", "--corrupt", "pairing")
    assert code == 1
    assert out["failing_trials"] > 0
    assert out["first_failure"]["property"] == "pairing-reciprocity"


def test_fuzz_stdout_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "idelink.cli", "fuzz", "--trials", "25", "--seed", "6"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.startswith(b'{"config"')
    # diagnostics go to stderr, never stdout
    assert b"trials in" in r1.stderr


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
