"""Import footprint of the package and of each subcommand, and the lazy export surface.

Footprints are read from ``-X importtime`` in a fresh interpreter, which lists
every module a process imports, so these tests never depend on a timing.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idelink

SRC = Path(idelink.__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def fresh(*argv) -> subprocess.CompletedProcess:
    """Run ``python -X importtime *argv`` with the package under test importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def imported(done: subprocess.CompletedProcess) -> set[str]:
    """Names of the modules a ``-X importtime`` run imported."""
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rpartition("|")[2].strip() for line in lines[1:]}


def test_import_idelink_loads_no_submodule():
    done = fresh("-c", "import idelink")
    assert done.returncode == 0, done.stderr
    modules = imported(done)
    assert "idelink" in modules
    assert not {m for m in modules if m.startswith("idelink.")}


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (
            ["info", str(DATA / "lens5.json")],
            {"idelink.presentation", "idelink.local"},
            {"idelink.fuzz", "idelink.covers", "idelink.ideles", "fractions"},
        ),
        (["lk", str(DATA / "hopf.json"), "K1", "K2"], {"fractions"}, {"idelink.fuzz", "idelink.covers"}),
    ],
)
def test_subcommand_loads_only_its_layers(argv, loaded, absent):
    done = fresh("-m", "idelink.cli", *argv)
    assert done.returncode == 0, done.stderr
    modules = imported(done)
    assert loaded <= modules
    assert not absent & modules


def test_fuzz_subcommand_still_runs():
    done = fresh("-m", "idelink.cli", "fuzz", "--trials", "1")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["trials"], report["failing_trials"]) == (1, 0)
    assert "idelink.fuzz" in imported(done)


def test_every_export_is_its_home_modules_object():
    for name in idelink.__all__:
        obj = getattr(idelink, name)
        assert obj.__module__.startswith("idelink.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        # resolved once, then read from the package namespace like an eager import
        assert vars(idelink)[name] is obj


def test_every_export_is_in_its_home_modules_all():
    for module, names in idelink._EXPORTS.items():
        declared = getattr(importlib.import_module(f"idelink.{module}"), "__all__", None)
        if declared is not None:
            assert not set(names) - set(declared), module


def test_dir_lists_every_export_before_any_is_resolved():
    done = fresh("-c", "import idelink; print(sorted(set(idelink.__all__) - set(dir(idelink))))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        idelink.no_such_name
    assert not hasattr(idelink, "require_support")  # public in ``ideles``, not exported


def test_star_import_binds_every_export():
    script = "import idelink; ns = {}; exec('from idelink import *', ns); print([n for n in idelink.__all__ if n not in ns])"
    done = fresh("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_submodules_import_from_the_package():
    from idelink import abelian, cli, linalg

    assert abelian is sys.modules["idelink.abelian"]
    assert linalg is sys.modules["idelink.linalg"]
    assert cli.run_command is sys.modules["idelink.cli"].run_command
