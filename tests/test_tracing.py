"""The benchmark's tracer (``perfbench/tracing.py``) resolves every name it traces.

The tracer looks each traced name up in the package when it is installed, so
a refactor that renames or removes one breaks the traced benchmark run. This
test installs it against the package and uninstalls it again.
"""

import importlib
import importlib.util
from pathlib import Path

from idelink import local

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(span_name: str):
    """The function or method a span name traces, as the package binds it now."""
    layer, _, target = span_name.partition(".")
    owner, _, method = target.partition(".")
    obj = getattr(importlib.import_module(f"idelink.{layer}"), owner)
    if method:
        return obj.__dict__[method]
    return obj.__dict__["__init__"] if isinstance(obj, type) else obj


def test_the_tracer_installs_on_every_traced_name_and_uninstalls(hopf):
    tracing = load_tracing()
    originals = {name: resolve(name) for name in tracing.SPAN_NAMES}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, original in originals.items():
            assert resolve(name).__wrapped__ is original, name
        local.complement_homology(hopf)
        metrics = tracer.metrics()
        assert metrics["local.complement_homology.calls"] == 1
        assert metrics["abelian.FgAbelianGroup.calls"] == 1  # the stage is one group
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        assert resolve(name) is original, name
