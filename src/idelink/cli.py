"""Command-line surface: JSON in, JSON out, exact arithmetic throughout.

Every subcommand reads a surgery presentation from a JSON file and prints a
single JSON object on stdout. ``run_command`` loads the file once and, for a
subcommand that declares ``--link``, builds that stage; the handler receives
the manifold or the stage and decodes its own flags after it, so a call with
several faults reports the first. Validation failures of any kind exit with
status 2 and print {"error": <code>, "detail": <message>}; the fuzz
subcommand exits 1 when a property violation was found. A presentation file
that cannot be read or decoded as UTF-8, and JSON that is malformed, nested
too deep or holds an integer longer than the interpreter's digit limit, are
all ``bad_input``; an answer with an integer too long for that limit to print
is ``too_large``. Rationals are serialized as strings "p/q" in lowest terms
with positive denominator (plain "p" when integral) so no output ever passes
through floats.

Only what every subcommand needs is imported up front; each handler imports
its own layer, so a call loads just the modules its subcommand runs.

``run_command(argv)`` may be called repeatedly in one process: the argparse
tree is built once, on the first call, and every later call parses with it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from .errors import BadInput, IdelinkError, TooLarge
from .presentation import Manifold, load_and_validate, presentation_from_dict

__all__ = ["run_command", "main"]


def _load_manifold(path: str) -> Manifold:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInput(f"cannot read presentation file {path!r}: {exc}") from exc
    return load_and_validate(presentation_from_dict(_parse_json(text, f"presentation file {path!r}")))


def _inputs(args):
    """The manifold, or its stage when the subcommand declares ``--link``; None for fuzz."""
    if not hasattr(args, "presentation"):
        return None
    man = _load_manifold(args.presentation)
    if not hasattr(args, "link"):
        return man
    from .local import complement_homology

    return complement_homology(man, _parse_link(args.link))


def _parse_json(text: str, what: str):
    # JSONDecodeError is a ValueError, as is an integer literal past the digit limit
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise BadInput(f"{what} is not valid JSON: {exc}") from exc


def _parse_link(text: str | None) -> list[str] | None:
    if text is None:
        return None
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise BadInput("the link flag needs at least one knot name")
    return names


def _idele(args, flag: str):
    from .ideles import Idele

    return Idele.from_dict(_parse_json(getattr(args, flag), f"--{flag}"))


def _cover(man, args):
    from .covers import CoverSpec

    return CoverSpec.from_dict(man, _parse_json(args.phi, "--phi"))


def _decimal(text: str) -> int:
    """An integer flag value: [+-]?[0-9]+ after strip(), else ValueError.

    int() alone also reads "1_0" and non-ASCII digits such as Arabic-Indic ones.
    """
    digits = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", digits):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(digits)


def _parse_divisor(text: str):
    from .ideles import Divisor

    parts: dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise BadInput(f"divisor term {item!r} must look like KNOT=coefficient")
        try:
            c = _decimal(value)
        except ValueError as exc:
            raise BadInput(f"divisor coefficient in {item!r} must be an integer") from exc
        parts[name] = parts.get(name, 0) + c
    return Divisor.of(parts)


def _cmd_info(man, args):
    from .local import preferred_longitude

    knots = {}
    for k in man.knot_names:
        ld = preferred_longitude(man, k)
        knots[k] = {
            "order": ld.index,
            "lambda": [ld.lambda_class.meridian, ld.lambda_class.longitude],
            "basis": ld.is_basis,
        }
    payload = {
        "h1": [str(f) for f in man.h1.invariant_factors],
        "admissible": man.generates_h1(man.knot_names),
        "knots": knots,
    }
    return payload, 0


def _cmd_lk(man, args):
    return {"lk": str(man.linking_number(args.knot_a, args.knot_b))}, 0


def _cmd_longitude(man, args):
    from .local import preferred_longitude

    ld = preferred_longitude(man, args.knot)
    payload = {
        "knot": args.knot,
        "lambda": [ld.lambda_class.meridian, ld.lambda_class.longitude],
        "index": ld.index,
        "basis": ld.is_basis,
    }
    return payload, 0


def _cmd_class_group(comp, args):
    from .ideles import idele_class_group

    data = idele_class_group(comp)
    payload = {
        "link": list(comp.link),
        "class_group": [str(f) for f in data.class_invariants],
        "cokernel": [str(f) for f in data.coker_invariants],
    }
    return payload, 0


def _cmd_principal_basis(comp, args):
    from .ideles import principal_lattice_basis

    basis = principal_lattice_basis(comp)
    return {"link": list(comp.link), "basis": [b.to_dict() for b in basis]}, 0


def _cmd_delta(comp, args):
    from .ideles import delta_from_divisor

    idele = delta_from_divisor(comp, _parse_divisor(args.divisor))
    return {"idele": idele.to_dict()}, 0


def _cmd_is_principal(comp, args):
    from .ideles import is_principal

    return {"principal": is_principal(comp, _idele(args, "a"))}, 0


def _cmd_pairing(comp, args):
    from .ideles import global_pairing

    a, b = _idele(args, "a"), _idele(args, "b")
    comp.require_support(a.support, b.support)
    return {"iota": str(global_pairing(a, b))}, 0


def _cmd_cover(man, args):
    cover = _cover(man, args)
    return {"cover": cover.to_dict(), "surjective": cover.is_surjective()}, 0


def _cmd_symbol(man, args):
    from .covers import global_symbol, local_symbol

    cover, a = _cover(man, args), _idele(args, "a")
    payload = {
        "symbol": list(global_symbol(a, cover)),
        "local_symbols": {
            k: list(local_symbol(a.component(k), cover)) for k in cover.link
        },
    }
    return payload, 0


def _cmd_decomp(man, args):
    from .covers import decomposition_data

    cover = _cover(man, args)
    dd = decomposition_data(cover, args.knot)
    payload = {
        "knot": args.knot,
        "ramification": dd.ramification_index,
        "residue_degree": dd.residue_degree,
        "components": dd.component_count,
    }
    return payload, 0


def _cmd_kummer(comp, args):
    from .covers import kummer_cover

    kc = kummer_cover(comp, _parse_divisor(args.divisor), args.n)
    return {"cover": kc.cover.to_dict(), "branch_locus": list(kc.branch_locus)}, 0


def _cmd_hilbert(comp, args):
    from .covers import hilbert_symbol

    a, b = _idele(args, "a"), _idele(args, "b")
    comp.require_support(a.support, b.support)
    comp.require(args.knot)
    return {"symbol": hilbert_symbol(a, b, args.knot, args.n)}, 0


def _cmd_fuzz(_, args):
    from dataclasses import fields

    from .fuzz import FuzzConfig, fuzz_suite

    cfg = FuzzConfig(**{f.name: getattr(args, f.name) for f in fields(FuzzConfig)})
    report = fuzz_suite(cfg)
    print(f"fuzz: {report.trials} trials in {report.wall_time:.3f}s", file=sys.stderr)
    return report.to_json(), (1 if report.failing_trials else 0)


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so every bad input becomes a JSON error object
    def error(self, message):
        raise BadInput(message)


def _add_common(sub, name, handler, help_text, *, link_flag=False):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("presentation", help="path to a surgery presentation JSON file")
    if link_flag:
        p.add_argument("--link", help="comma-separated sublink (default: every marked knot)")
    p.set_defaults(handler=handler)
    return p


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; a parse keeps no state in the tree
    parser = _Parser(
        prog="idelink",
        description="Exact idelic class field theory for surgery presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    _add_common(sub, "info", _cmd_info, "homology, admissibility, and per-knot invariants")

    p = _add_common(sub, "lk", _cmd_lk, "rational linking number of two marked knots")
    p.add_argument("knot_a")
    p.add_argument("knot_b")

    p = _add_common(sub, "longitude", _cmd_longitude, "preferred longitude of a marked knot")
    p.add_argument("knot")

    _add_common(sub, "class-group", _cmd_class_group, "idele class group of a stage", link_flag=True)
    _add_common(sub, "principal-basis", _cmd_principal_basis, "lattice basis of principal ideles", link_flag=True)

    p = _add_common(sub, "delta", _cmd_delta, "principal idele with given boundary divisor", link_flag=True)
    p.add_argument("--divisor", required=True, help='e.g. "K1=1,K2=-2"')

    p = _add_common(sub, "is-principal", _cmd_is_principal, "test whether an idele is principal", link_flag=True)
    p.add_argument("--a", required=True, help="inline JSON idele")

    p = _add_common(sub, "pairing", _cmd_pairing, "global intersection pairing of two ideles", link_flag=True)
    p.add_argument("--a", required=True, help="inline JSON idele")
    p.add_argument("--b", required=True, help="inline JSON idele")

    p = _add_common(sub, "cover", _cmd_cover, "validate a finite abelian cover")
    p.add_argument("--phi", required=True, help="inline JSON cover")

    p = _add_common(sub, "symbol", _cmd_symbol, "global and local norm residue symbols")
    p.add_argument("--phi", required=True, help="inline JSON cover")
    p.add_argument("--a", required=True, help="inline JSON idele")

    p = _add_common(sub, "decomp", _cmd_decomp, "ramification, residue degree, components over a knot")
    p.add_argument("knot")
    p.add_argument("--phi", required=True, help="inline JSON cover")

    p = _add_common(sub, "kummer", _cmd_kummer, "cyclic Kummer cover of a principal divisor", link_flag=True)
    p.add_argument("--divisor", required=True, help='e.g. "K1=1"')
    p.add_argument("--n", required=True, type=_decimal, help="modulus, at least 2")

    p = _add_common(sub, "hilbert", _cmd_hilbert, "local Hilbert symbol of two ideles at a knot", link_flag=True)
    p.add_argument("knot")
    p.add_argument("--a", required=True, help="inline JSON idele")
    p.add_argument("--b", required=True, help="inline JSON idele")
    p.add_argument("--n", required=True, type=_decimal, help="modulus, at least 2")

    p = sub.add_parser("fuzz", help="randomized property harness with shrinking")
    p.add_argument("--trials", type=_decimal, default=100)
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--max-surgery", type=_decimal, default=4)
    p.add_argument("--max-link", type=_decimal, default=5)
    p.add_argument("--entry-bound", type=_decimal, default=5)
    p.add_argument("--coeff-bound", type=_decimal, default=9)
    p.add_argument("--corrupt", choices=["pairing"], default=None, help="self-test: break an oracle on purpose")
    p.set_defaults(handler=_cmd_fuzz)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            payload, code = args.handler(_inputs(args), args)
            text = json.dumps(payload)
        except ValueError as exc:
            # str() of an int past sys.get_int_max_str_digits(); every input decoder catches its own
            if "integer string conversion" not in str(exc):
                raise
            raise TooLarge(f"an answer cannot be printed: {exc}") from exc
    except IdelinkError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 2
    print(text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
