"""Traced mode: spans around the public functions of every idelink layer.

The wrappers are installed from outside the package. A module-level function
is rebound under every name that points at it in any ``idelink`` module, so
calls that went through ``from .linalg import smith_normal_form`` are seen
too; methods are patched on their class, and a class constructor is traced
through its ``__init__``. Each call appends a span (name, start, end, parent)
to an in-memory list; the list is written out once, when the run ends.
Self time, repeat shares and the largest normal-form entry are derived from
what the spans and wrappers recorded. The tracer's own bookkeeping after a
call (hashing its input, scanning its output for bit lengths) runs on a
stopped clock: span times are read as ``perf_counter() - paused``, and the
bookkeeping time is added to ``paused``, so no span, the caller's included,
counts it.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

LAYERS = ("linalg", "abelian", "presentation", "local", "ideles", "covers", "fuzz", "cli")

TARGETS = {
    "linalg": (
        "smith_normal_form",
        "hermite_row_basis",
        "integer_kernel",
        "solve_integer",
        "solve_mod_subgroup",
        "solve_rational",
        "determinant",
    ),
    "abelian": ("FgAbelianGroup", "element_order", "subgroup_invariant_factors"),
    "presentation": (
        "load_and_validate",
        "Manifold.linking_number",
        "Manifold.knot_order",
        "Manifold.admissibility_of",
        "Manifold.generates_h1",
    ),
    "local": ("complement_homology", "preferred_longitude"),
    "ideles": (
        "delta_from_divisor",
        "is_principal",
        "principal_lattice_basis",
        "idele_class_group",
        "global_pairing",
    ),
    "covers": ("make_cover", "kummer_cover", "global_symbol", "local_symbol", "decomposition_data"),
    "fuzz": ("fuzz_suite", "check_trial"),
    "cli": ("run_command",),
}

SPAN_NAMES = tuple(f"{layer}.{t}" for layer, targets in TARGETS.items() for t in targets)

EXTRA_METRICS = (
    ("linalg.max_bits", "bits"),
    ("linalg.smith_normal_form.repeat_frac", "fraction"),
    ("local.complement_homology.repeat_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _max_bits_of(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _smith_bits(snf) -> int:
    return max(_max_bits_of(snf.u.entries), _max_bits_of(snf.d.entries), _max_bits_of(snf.v.entries))


def _rows_bits(rows) -> int:
    return max((_max_bits_of(r) for r in rows), default=0)


def _matrix_bits(m) -> int:
    return _max_bits_of(m.entries)


def _smith_key(a):
    return a


def _complement_key(manifold, link=None):
    chosen = manifold.knot_names if link is None else link
    return manifold.presentation, frozenset(chosen)


# outputs whose entries count toward linalg.max_bits, and inputs whose repeats are counted
_BITS = {
    "linalg.smith_normal_form": _smith_bits,
    "linalg.hermite_row_basis": _rows_bits,
    "linalg.integer_kernel": _matrix_bits,
}
_REPEAT_KEYS = {
    "linalg.smith_normal_form": _smith_key,
    "local.complement_homology": _complement_key,
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans: list[list] = []
        self.max_bits = 0
        self.paused = 0.0
        self._stack: list[int] = []
        self._seen = {name: set() for name in _REPEAT_KEYS}
        self._repeats = {name: 0 for name in _REPEAT_KEYS}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        bits = _BITS.get(name)
        key = _REPEAT_KEYS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter() - tracer.paused
            try:
                result = fn(*args, **kwargs)
            finally:
                stopped = perf_counter()
                span[2] = stopped - tracer.paused
                stack.pop()
            if key is not None:
                k = key(*args, **kwargs)
                if k in tracer._seen[name]:
                    tracer._repeats[name] += 1
                else:
                    tracer._seen[name].add(k)
            if bits is not None:
                tracer.max_bits = max(tracer.max_bits, bits(result))
            tracer.paused += perf_counter() - stopped
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module("idelink")]
        modules += [importlib.import_module(f"idelink.{layer}") for layer in LAYERS]
        for layer, targets in TARGETS.items():
            mod = importlib.import_module(f"idelink.{layer}")
            for target in targets:
                name = f"{layer}.{target}"
                owner_name, _, method = target.partition(".")
                obj = getattr(mod, owner_name)
                if method:
                    self._patch(obj, method, self._wrap(name, obj.__dict__[method]))
                elif isinstance(obj, type):
                    self._patch(obj, "__init__", self._wrap(name, obj.__dict__["__init__"]))
                else:
                    traced = self._wrap(name, obj)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        """calls, inclusive and self seconds per span name, plus the extras."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
        out = {}
        for name in SPAN_NAMES:
            calls, inclusive, self_s = agg[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = inclusive
            out[f"{name}.self_s"] = self_s
        out["linalg.max_bits"] = self.max_bits
        for name in _REPEAT_KEYS:
            calls = agg[name][0]
            out[f"{name}.repeat_frac"] = self._repeats[name] / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Dump the spans as compact JSON: one [name, start, end, parent] row each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh, separators=(",", ":"))
