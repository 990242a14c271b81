"""Randomized property harness with deterministic replay and shrinking.

Instances are random surgery presentations (symmetric matrix, nonzero
determinant) with random marked links. Every trial checks the full list of
structural properties below; witnesses are drawn from a per-trial RNG so a
run is a pure function of (seed, config) and reports are reproducible
byte for byte. On the lowest-index failing trial the instance is shrunk
(drop components, then move entries toward zero, always keeping the
determinant nonzero) and the minimal failing instance is embedded in the
report in the same JSON shape the loaders accept. An exception that a
library call raises inside a trial is reported the same way, as a failure
of the property being checked, never as a traceback or an input error.

The ``corrupt`` config field deliberately breaks the pairing oracle used by
the reciprocity check so the harness can prove it catches violations.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from math import gcd, prod

from .abelian import element_order
from .covers import decomposition_data, global_symbol, kummer_cover, local_symbol, make_cover
from .errors import BadInput, DivisorNotPrincipal, IdelinkError, TooLarge, json_int
from .ideles import (
    Divisor,
    Idele,
    delta_from_divisor,
    embed_local,
    global_pairing,
    is_principal,
    principal_lattice_basis,
)
from .linalg import IntMatrix, determinant, smith_normal_form
from .local import PeripheralClass, complement_homology, local_intersection, preferred_longitude, valuation
from .presentation import Manifold, SurgeryPresentation, load_and_validate, presentation_to_dict

__all__ = ["FuzzConfig", "Report", "fuzz_suite", "PROPERTY_NAMES"]

PROPERTY_NAMES = (
    "pairing-reciprocity",
    "pairing-antisymmetry",
    "pairing-bilinearity",
    "key-equality",
    "product-formula",
    "symbol-compatibility",
    "decomposition-identity",
    "kummer-consistency",
    "bounding-linking",
    "local-intersection",
    "valuation-sequence",
    "longitude-kernel",
    "linking-symmetry",
    "slide-invariance",
)

_CORRUPT_CHOICES = (None, "pairing")

# the largest s = r at which every CLI subcommand has been timed (3.2 s for one
# call of each, in process, on a 2-vCPU VM); a larger max_surgery or max_link
# is refused before any draw, instead of hanging on the first huge instance
MAX_SIZE = 64


@dataclass(frozen=True)
class FuzzConfig:
    """Reproducible harness configuration; a run is a function of this alone."""

    trials: int
    seed: int
    max_surgery: int = 4
    max_link: int = 5
    entry_bound: int = 5
    coeff_bound: int = 9
    corrupt: str | None = None

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "max_surgery", "max_link", "entry_bound", "coeff_bound"):
            value = getattr(self, name)
            if value.__class__ is not int:
                json_int(value, name)
        if self.trials < 0:
            raise BadInput("trials must be nonnegative")
        for name in ("max_surgery", "max_link", "entry_bound", "coeff_bound"):
            if getattr(self, name) < 1:
                raise BadInput(f"{name} must be at least 1")
        for name in ("max_surgery", "max_link"):
            if getattr(self, name) > MAX_SIZE:
                raise TooLarge(f"{name} must be at most {MAX_SIZE}")
        if self.corrupt not in _CORRUPT_CHOICES:
            raise BadInput(f"corrupt must be one of {_CORRUPT_CHOICES[1:]}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    """Outcome of a fuzz run. ``to_json`` omits wall time so reports compare byte-equal."""

    config: FuzzConfig
    trials: int
    counts: dict
    failing_trials: int
    first_failure: dict | None
    wall_time: float

    def to_json(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "trials": self.trials,
            "properties": {name: dict(self.counts[name]) for name in PROPERTY_NAMES},
            "failing_trials": self.failing_trials,
            "first_failure": self.first_failure,
        }


def _mix(seed: int, trial: int, salt: int) -> int:
    return (seed * 1_000_003 + trial) * 4 + salt


def _sample_presentation(rng: random.Random, cfg: FuzzConfig) -> SurgeryPresentation:
    s = rng.randint(0, cfg.max_surgery)
    r = rng.randint(1, cfg.max_link)
    e = cfg.entry_bound
    for _ in range(200):
        rows = [[0] * s for _ in range(s)]
        for i in range(s):
            for j in range(i, s):
                v = rng.randint(-e, e)
                rows[i][j] = v
                rows[j][i] = v
        if s == 0 or determinant(IntMatrix.from_rows(rows)) != 0:
            break
    else:
        rows = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    lk_ws = [[rng.randint(-e, e) for _ in range(s)] for _ in range(r)]
    lk_mut = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            v = rng.randint(-e, e)
            lk_mut[i][j] = v
            lk_mut[j][i] = v
    return SurgeryPresentation.build(
        [f"L{i + 1}" for i in range(s)],
        rows,
        [f"K{i + 1}" for i in range(r)],
        lk_ws,
        lk_mut,
    )


def _random_idele(link, rng: random.Random, bound: int) -> Idele:
    parts = {}
    for k in link:
        if rng.getrandbits(1):
            parts[k] = (rng.randint(-bound, bound), rng.randint(-bound, bound))
    return Idele.of(parts)


def _random_combo(basis, rng: random.Random, bound: int) -> Idele:
    acc = Idele.zero()
    for b in basis:
        c = rng.randint(-bound, bound)
        if c:
            acc = acc + c * b
    return acc


def _random_divisor(link, rng: random.Random, bound: int) -> Divisor:
    parts = {}
    for k in link:
        if rng.getrandbits(1):
            parts[k] = rng.randint(-bound, bound)
    return Divisor.of(parts)


def _sample_cover(comp, rng: random.Random):
    """Random finite abelian target with a uniformly sampled well-defined cover."""
    orders = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 2)))
    snf = smith_normal_form(comp.relations)
    g = comp.generator_count
    diag = snf.diagonal
    images = []
    for i in range(g):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            images.append(tuple(rng.randrange(n) for n in orders))
        else:
            images.append(tuple(rng.randrange(gcd(d, n)) * (n // gcd(d, n)) for n in orders))
    u = snf.u
    values = []
    for j in range(g):
        acc = [0] * len(orders)
        for i in range(g):
            uij = u[i, j]
            if uij:
                for p in range(len(orders)):
                    acc[p] += uij * images[i][p]
        values.append(acc)
    return make_cover(comp, orders, values)


def _divisor_class_is_zero(man: Manifold, divisor: Divisor) -> bool:
    total = man.h1.zero()
    for k in divisor.support:
        total = total + divisor.coefficient(k) * man.knot_class(k)
    return total.is_zero()


def check_trial(man: Manifold, rng: random.Random, cfg: FuzzConfig) -> list[tuple[str, str, dict | None]]:
    """Run every property on one instance; returns (name, status, witness) triples.

    An exception raised by the library is an internal fault: it fails the
    first property not yet recorded, with witness {"exception": <type name>,
    "detail": <message>}, and skips the rest, so the trial is shrunk and
    replayed like any other failure.
    """
    results: list[tuple[str, str, dict | None]] = []
    try:
        _check_properties(man, rng, cfg, results)
    except Exception as exc:
        # no traceback: it names files and lines, so reports would differ between installs;
        # the shrunk instance replays the fault
        recorded = {name for name, _, _ in results}
        pending = [name for name in PROPERTY_NAMES if name not in recorded]
        results.append((pending[0], "fail", {"exception": type(exc).__name__, "detail": str(exc)}))
        results.extend((name, "skip", None) for name in pending[1:])
    return results


def _check_properties(man: Manifold, rng: random.Random, cfg: FuzzConfig, results: list) -> None:
    """Append the (name, status, witness) triple of each property, in ``PROPERTY_NAMES`` order."""

    def rec(name: str, ok: bool, witness: dict | None = None) -> None:
        results.append((name, "pass" if ok else "fail", None if ok else witness))

    def skip(name: str) -> None:
        results.append((name, "skip", None))

    link = man.knot_names
    s = len(man.surgery_names)
    bound = cfg.coeff_bound
    comp = complement_homology(man, link)
    basis = principal_lattice_basis(comp)

    if cfg.corrupt == "pairing":
        def pair(a, b):
            return global_pairing(a, b) + 1
    else:
        pair = global_pairing

    a = _random_combo(basis, rng, bound)
    b = _random_combo(basis, rng, bound)
    rec("pairing-reciprocity", pair(a, b) == 0, {"a": a.to_dict(), "b": b.to_dict()})

    u = _random_idele(link, rng, bound)
    v = _random_idele(link, rng, bound)
    w = _random_idele(link, rng, bound)
    rec(
        "pairing-antisymmetry",
        global_pairing(u, v) == -global_pairing(v, u),
        {"u": u.to_dict(), "v": v.to_dict()},
    )
    rec(
        "pairing-bilinearity",
        global_pairing(u + w, v) == global_pairing(u, v) + global_pairing(w, v)
        and global_pairing(u, v + w) == global_pairing(u, v) + global_pairing(u, w),
        {"u": u.to_dict(), "v": v.to_dict(), "w": w.to_dict()},
    )

    d0 = _random_divisor(link, rng, bound)
    trivial = _divisor_class_is_zero(man, d0)
    try:
        delta = delta_from_divisor(comp, d0)
        ok_key = (
            trivial
            and is_principal(comp, delta)
            and all(delta.component(k).longitude == d0.coefficient(k) for k in link)
        )
    except DivisorNotPrincipal:
        ok_key = not trivial
    for belt in basis:
        bd = Divisor.of({k: belt.component(k).longitude for k in link})
        ok_key = ok_key and _divisor_class_is_zero(man, bd) and is_principal(comp, belt)
    rec("key-equality", ok_key, {"divisor": d0.to_dict()})

    cover = _sample_cover(comp, rng)
    total = [0] * len(cover.orders)
    for k in u.support:
        total = [x + y for x, y in zip(total, local_symbol(u.component(k), cover))]
    rec(
        "product-formula",
        global_symbol(u, cover) == cover.reduce(total) and not any(global_symbol(a, cover)),
        {"idele": u.to_dict(), "principal": a.to_dict(), "cover": cover.to_dict()},
    )

    pk = rng.choice(link)
    pc = PeripheralClass(pk, rng.randint(-bound, bound), rng.randint(-bound, bound))
    rec(
        "symbol-compatibility",
        global_symbol(embed_local(pc), cover) == local_symbol(pc, cover),
        {"knot": pk, "class": [pc.meridian, pc.longitude], "cover": cover.to_dict()},
    )

    ok_dec = True
    for k in link:
        dd = decomposition_data(cover, k)
        ok_dec = ok_dec and (
            dd.ramification_index * dd.residue_degree * dd.component_count == cover.target.order()
        )
        ok_dec = ok_dec and ((dd.ramification_index == 1) == (not any(cover.meridian_image(k))))
    rec("decomposition-identity", ok_dec, {"cover": cover.to_dict()})

    if comp.cokernel.is_trivial():
        n = rng.randint(2, 7)
        da = Divisor.of({k: a.component(k).longitude for k in link})
        kc = kummer_cover(comp, da, n)
        ok_kum = set(kc.branch_locus) == {k for k in link if da.coefficient(k) % n != 0}
        for k in link:
            for x, y in ((1, 0), (0, 1)):
                gamma = embed_local(PeripheralClass(k, x, y))
                lhs = global_symbol(gamma, kc.cover)[0]
                rhs = global_pairing(gamma, kc.boundary_idele) % n
                ok_kum = ok_kum and lhs == rhs
            dd = decomposition_data(kc.cover, k)
            ok_kum = ok_kum and ((k in kc.branch_locus) == (dd.ramification_index > 1))
        rec("kummer-consistency", ok_kum, {"divisor": da.to_dict(), "modulus": n})
    else:
        skip("kummer-consistency")

    if s == 0:
        d1 = _random_divisor(link, rng, bound)
        outside = [k for k in link if k not in d1.support]
        if outside:
            j = outside[0]
            delt = delta_from_divisor(comp, d1)  # H1(S^3) = 0, always principal
            lhs = global_pairing(embed_local(PeripheralClass(j, 0, 1)), delt)
            rhs = sum(
                d1.coefficient(k) * man.presentation.lk_mutual[man.knot_index(j), man.knot_index(k)]
                for k in link
                if k != j
            )
            rec("bounding-linking", lhs == rhs, {"divisor": d1.to_dict(), "probe": j})
        else:
            skip("bounding-linking")
    else:
        skip("bounding-linking")

    kk = rng.choice(link)
    p1 = PeripheralClass(kk, rng.randint(-bound, bound), rng.randint(-bound, bound))
    p2 = PeripheralClass(kk, rng.randint(-bound, bound), rng.randint(-bound, bound))
    p3 = PeripheralClass(kk, rng.randint(-bound, bound), rng.randint(-bound, bound))
    rec(
        "local-intersection",
        local_intersection(p1, p2) == -local_intersection(p2, p1)
        and local_intersection(p1 + p2, p3)
        == local_intersection(p1, p3) + local_intersection(p2, p3)
        and local_intersection(PeripheralClass(kk, 1, 0), PeripheralClass(kk, 0, 1)) == 1,
        {"knot": kk, "classes": [[p1.meridian, p1.longitude], [p2.meridian, p2.longitude]]},
    )

    rec(
        "valuation-sequence",
        valuation(p1) == p1.longitude
        and valuation(PeripheralClass(kk, p1.meridian, 0)) == 0
        and valuation(PeripheralClass(kk, 0, 1)) == 1
        and ((valuation(p1) == 0) == (p1 - PeripheralClass(kk, p1.meridian, 0)).is_zero()),
        {"knot": kk},
    )

    ok_long = True
    for k in link:
        ld = preferred_longitude(man, k)
        # the order through the generic element route, not the solve the longitude reads
        n_k = element_order(man.knot_class(k))
        comp_k = complement_homology(man, (k,))
        ok_long = ok_long and comp_k.class_of(ld.lambda_class).is_zero()
        ok_long = ok_long and valuation(ld.lambda_class) == n_k
        ok_long = ok_long and ld.index == ld.lambda_class.longitude and ld.index >= 1
        ok_long = ok_long and ld.is_basis == (ld.index == 1)
    rec("longitude-kernel", ok_long, None)

    h1_order = man.h1.order()
    # |det Lambda| from the elimination against the Smith diagonal modulo it
    ok_pres = h1_order == prod(man.h1.invariant_factors)
    if len(link) >= 2:
        j1 = rng.choice(link)
        k1 = rng.choice([k for k in link if k != j1])
        ok_pres = ok_pres and man.linking_number(j1, k1) == man.linking_number(k1, j1)
    for k in link:
        ok_pres = ok_pres and h1_order % man.knot_order(k) == 0
    rec("linking-symmetry", ok_pres, None)

    if s >= 1:
        kx = rng.choice(link)
        jx = rng.randrange(s)
        slid = _slide(man, kx, jx)
        ok_slide = slid.knot_class(kx) == man.knot_class(kx)
        ok_slide = ok_slide and slid.knot_order(kx) == man.knot_order(kx)
        for k2 in link:
            if k2 != kx:
                ok_slide = ok_slide and slid.linking_number(kx, k2) == man.linking_number(kx, k2)
        rec("slide-invariance", ok_slide, {"knot": kx, "surgery_component": jx})
    else:
        skip("slide-invariance")


def _slide(man: Manifold, knot: str, j: int) -> Manifold:
    """Slide a marked knot over surgery component j; invariants must not move."""
    pres = man.presentation
    i = man.knot_index(knot)
    lk_ws = pres.lk_with_surgery.to_rows()
    lk_ws[i] = [a + b for a, b in zip(lk_ws[i], pres.surgery_matrix.row(j))]
    # every other knot gains its linking with L_j; the knot's own entry stays 0
    gain = list(pres.lk_with_surgery.column(j))
    gain[i] = 0
    lk_mut = pres.lk_mutual.to_rows()
    lk_mut[i] = [a + b for a, b in zip(lk_mut[i], gain)]
    for row, g in zip(lk_mut, gain):
        row[i] += g
    return load_and_validate(
        SurgeryPresentation.build(
            list(pres.surgery_names),
            pres.surgery_matrix.to_rows(),
            list(pres.knot_names),
            lk_ws,
            lk_mut,
        )
    )


def _toward_zero(v: int) -> list[int]:
    if v == 0:
        return []
    out = [0]
    half = v // 2 if v > 0 else -((-v) // 2)
    if half != v and half != 0:
        out.append(half)
    step = v - 1 if v > 0 else v + 1
    if step not in out and step != v:
        out.append(step)
    return out


def _shrink_candidates(p: SurgeryPresentation):
    s = len(p.surgery_names)
    r = len(p.knot_names)
    surgery = p.surgery_matrix.to_rows()
    lk_ws = p.lk_with_surgery.to_rows()
    lk_mut = p.lk_mutual.to_rows()
    for j in range(s):
        keep = [i for i in range(s) if i != j]
        yield SurgeryPresentation.build(
            [p.surgery_names[i] for i in keep],
            [[surgery[a][c] for c in keep] for a in keep],
            list(p.knot_names),
            [[row[c] for c in keep] for row in lk_ws],
            lk_mut,
        )
    if r > 1:
        for a in range(r):
            keep = [i for i in range(r) if i != a]
            yield SurgeryPresentation.build(
                list(p.surgery_names),
                surgery,
                [p.knot_names[i] for i in keep],
                [lk_ws[i] for i in keep],
                [[lk_mut[x][y] for y in keep] for x in keep],
            )
    # one entry moves toward zero; in the symmetric Lambda and lk_mutual its mirror moves with it
    mats = (surgery, lk_ws, lk_mut)
    cells = [(0, i, j) for i in range(s) for j in range(i, s)]
    cells += [(1, i, j) for i in range(r) for j in range(s)]
    cells += [(2, i, j) for i in range(r) for j in range(i + 1, r)]
    for m, i, j in cells:
        for nv in _toward_zero(mats[m][i][j]):
            new = list(mats)
            new[m] = [row[:] for row in mats[m]]
            new[m][i][j] = nv
            if m != 1:
                new[m][j][i] = nv
            yield SurgeryPresentation.build(list(p.surgery_names), new[0], list(p.knot_names), new[1], new[2])


def _failing_results(p: SurgeryPresentation, witness_seed: int, cfg: FuzzConfig):
    try:
        man = load_and_validate(p)
    except IdelinkError:
        return None
    results = check_trial(man, random.Random(witness_seed), cfg)
    if any(status == "fail" for _, status, _ in results):
        return results
    return None


def _shrink(p: SurgeryPresentation, trial: int, cfg: FuzzConfig):
    witness_seed = _mix(cfg.seed, trial, 1)
    current = p
    current_results = _failing_results(p, witness_seed, cfg)
    if current_results is None:
        raise RuntimeError(f"fuzz trial {trial} failed but passed when replayed for shrinking")
    budget = 400
    improved = True
    while improved and budget > 0:
        improved = False
        for cand in _shrink_candidates(current):
            budget -= 1
            res = _failing_results(cand, witness_seed, cfg)
            if res is not None:
                current, current_results = cand, res
                improved = True
                break
            if budget <= 0:
                break
    return current, current_results


def fuzz_suite(cfg: FuzzConfig) -> Report:
    """Run the harness; the report is a pure function of the config."""
    start = time.perf_counter()
    counts = {name: {"pass": 0, "fail": 0, "skip": 0} for name in PROPERTY_NAMES}
    failing_trials = 0
    first_failure = None
    for trial in range(cfg.trials):
        pres = _sample_presentation(random.Random(_mix(cfg.seed, trial, 0)), cfg)
        man = load_and_validate(pres)
        results = check_trial(man, random.Random(_mix(cfg.seed, trial, 1)), cfg)
        failed = False
        for name, status, _ in results:
            counts[name][status] += 1
            failed = failed or status == "fail"
        if failed:
            failing_trials += 1
            if first_failure is None:
                shrunk, shrunk_results = _shrink(pres, trial, cfg)
                name, _, witness = next(r for r in shrunk_results if r[1] == "fail")
                first_failure = {
                    "trial": trial,
                    "property": name,
                    "witness": witness,
                    **presentation_to_dict(shrunk),
                }
    wall = time.perf_counter() - start
    return Report(
        config=cfg,
        trials=cfg.trials,
        counts=counts,
        failing_trials=failing_trials,
        first_failure=first_failure,
        wall_time=wall,
    )
