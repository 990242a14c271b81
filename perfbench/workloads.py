"""The three benchmark workloads, each a closed loop with one caller.

A workload is built from the run seed (generation and expected answers are
not timed), then ``setup`` does the program-facing set-up that a user would
pay once: parsing and validating the inputs and building the derived objects
the loop reuses. ``measure`` runs the timed loop for a given number of
seconds and checks every answer, calling ``between`` after each operation,
outside its timer; ``round`` runs a fixed amount of the same work once, for
the traced comparison. Every operation checked adds to
``attempted``, and every wrong or failed one to ``failed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from fractions import Fraction
from math import gcd
from time import perf_counter

from gen import Oracle, sample_instance

# ladder manifolds are fixed per rung so that rung times measure the program,
# not the draw: at s = r = 20 one pass costs from 2.7 s to 41 s across
# generator seeds. The run seed picks every argument of every call.
LADDER_RUNGS = ((12, 12), (16, 16), (20, 20))  # (s = r, generator seed)
LADDER_MIN_PASSES = 2
QUERIES_SIZE = 12
QUERIES_MANIFOLD_SEED = 12  # fixed for the same reason; the run seed drives the query stream
QUERY_DIGEST_COUNT = 1000
# sublink sizes are fixed so the per-query cost does not depend on the draw;
# the run seed picks which knots each sublink holds
SUBLINK_SIZES = (1, 2, 3, 4, 6, 8, 10, 12)
FUZZ_BATCH = 20
FUZZ_DIGEST_BATCHES = 10
FUZZ_ROUND_BATCHES = 10


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _divisor_arg(d: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in d.items())


def _principal_divisor(rng: random.Random, oracle: Oracle, link) -> dict:
    """Nonzero multiples of knot orders on one or two knots: always principal."""
    knots = rng.sample(list(link), min(len(link), rng.randint(1, 2)))
    return {k: rng.choice((-3, -2, -1, 1, 2, 3)) * oracle.knot_order(k) for k in sorted(knots, key=oracle.index.get)}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digest = None  # digest of the default-seed prefix, set by ``measure``

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def fresh(self) -> None:
        """Set up from scratch, replacing whatever an earlier set-up kept."""
        self.setup()

    def write_instance(self, inst, stem: str):
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(inst.to_dict()), encoding="utf-8")
        return path


class FuzzSmall(Workload):
    """Batches of ``fuzz_suite`` at the default bounds, FUZZ_BATCH trials each."""

    name = "fuzz-small"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        import idelink.fuzz

        self.fuzz = idelink.fuzz

    def setup(self) -> None:
        """Nothing to load: ``fuzz_suite`` builds its instances from the config."""

    def _batch(self, i: int) -> tuple[float, str]:
        cfg = self.fuzz.FuzzConfig(trials=FUZZ_BATCH, seed=self.seed * 100_003 + i)
        t0 = perf_counter()
        report = self.fuzz.fuzz_suite(cfg)
        dt = perf_counter() - t0
        payload = report.to_json()
        ok = report.failing_trials == 0 and report.trials == FUZZ_BATCH
        ok = ok and all(sum(c.values()) == FUZZ_BATCH for c in payload["properties"].values())
        self.check(ok)
        return dt, json.dumps(payload, sort_keys=True)

    def measure(self, seconds: float, between) -> dict:
        per_trial, reports = [], []
        busy, i = 0.0, 0
        t0 = perf_counter()
        while perf_counter() - t0 < seconds or i < FUZZ_DIGEST_BATCHES:
            dt, text = self._batch(i)
            between()
            busy += dt
            per_trial.append(dt / FUZZ_BATCH)
            if i < FUZZ_DIGEST_BATCHES:
                reports.append(text)
            i += 1
        self.digest = _digest(reports)
        return {"latencies": per_trial, "ops": i * FUZZ_BATCH, "busy": busy}

    def round(self) -> tuple[float, str]:
        busy, texts = 0.0, []
        for i in range(FUZZ_ROUND_BATCHES):
            dt, text = self._batch(i)
            busy += dt
            texts.append(text)
        return busy, _digest(texts)


class LadderLarge(Workload):
    """Every stage-taking CLI subcommand, in-process, on one manifold per rung.

    One operation is one rung: the eleven subcommands on its manifold. So
    op_p50_ms is the s = 16 rung and op_p99_ms is within 2% of the s = 20 rung.
    """

    name = "ladder-large"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from idelink import cli

        self.cli = cli
        self.rungs = []
        self.calls = []  # per rung: [(label, argv, check(payload) -> bool)]
        for size, gen_seed in LADDER_RUNGS:
            inst = sample_instance(gen_seed, size, size, need_admissible=True)
            path = self.write_instance(inst, f"ladder-s{size}")
            self.rungs.append(path)
            rng = random.Random(self.seed * 1_000 + size)
            self.calls.append(self._calls(f"s{size}", str(path), inst, Oracle(inst), rng))

    def _calls(self, tag, path, inst, oracle, rng):
        knots = inst.knots
        a, b = rng.sample(knots, 2)
        k = rng.choice(knots)

        d = _principal_divisor(rng, oracle, knots)
        idele = oracle.delta(knots, d)
        probe = dict(idele)
        add_meridian = rng.random() < 0.5
        if add_meridian:
            q = rng.choice(knots)
            x, y = probe.get(q, [0, 0])
            probe[q] = [x + 1, y]
        n = rng.randint(2, 7)
        kd = _principal_divisor(rng, oracle, knots)
        kummer = oracle.kummer(knots, kd, n)
        cover = kummer["cover"]
        cover_arg = json.dumps(cover)
        boundary = oracle.delta(knots, kd)
        decomp_knot = rng.choice(knots)

        def principal_basis_ok(p):
            return p["link"] == knots and len(p["basis"]) == len(knots) and all(
                oracle.is_principal(knots, e) for e in p["basis"]
            )

        def class_group_ok(p):
            return p["link"] == knots and p["class_group"].count("0") == len(knots) and p["cokernel"] == []

        def kummer_ok(p):
            branch = [q for q in knots if kd.get(q, 0) % n]
            return p == kummer and p["branch_locus"] == branch

        def symbol_ok(p):
            local = {
                q: [Oracle.pairing({q: idele.get(q, [0, 0])}, boundary) % n] for q in knots
            }
            total = sum(v[0] for v in local.values()) % n
            return p["symbol"] == [0] and p["local_symbols"] == local and total == 0

        def decomp_ok(p):
            e, f, g = Oracle.decomposition(n, kd.get(decomp_knot, 0) % n, -boundary.get(decomp_knot, [0, 0])[0] % n)
            return p == {"knot": decomp_knot, "ramification": e, "residue_degree": f, "components": g} and e * f * g == n

        surjective = gcd(n, *(v[0] for v in cover["phi"])) == 1
        lam = oracle.longitude(k)
        return [
            (f"{tag}.info", ["info", path], lambda p: p["admissible"] is True and oracle.info_ok(p)),
            (f"{tag}.lk", ["lk", path, a, b], lambda p: p == {"lk": _fmt_rational(oracle.linking_number(a, b))}),
            (
                f"{tag}.longitude",
                ["longitude", path, k],
                lambda p: p == {"knot": k, "lambda": list(lam), "index": lam[1], "basis": lam[1] == 1},
            ),
            (f"{tag}.class-group", ["class-group", path], class_group_ok),
            (f"{tag}.principal-basis", ["principal-basis", path], principal_basis_ok),
            (
                f"{tag}.delta",
                ["delta", path, "--divisor", _divisor_arg(d)],
                lambda p: p == {"idele": idele} and all(idele.get(q, [0, 0])[1] == d.get(q, 0) for q in knots),
            ),
            (
                f"{tag}.is-principal",
                ["is-principal", path, "--a", json.dumps(probe)],
                lambda p: p == {"principal": not add_meridian},
            ),
            (f"{tag}.kummer", ["kummer", path, "--divisor", _divisor_arg(kd), "--n", str(n)], kummer_ok),
            (f"{tag}.cover", ["cover", path, "--phi", cover_arg], lambda p: p == {"cover": cover, "surjective": surjective}),
            (f"{tag}.symbol", ["symbol", path, "--phi", cover_arg, "--a", json.dumps(idele)], symbol_ok),
            (f"{tag}.decomp", ["decomp", path, decomp_knot, "--phi", cover_arg], decomp_ok),
        ]

    def setup(self) -> None:
        from idelink.presentation import load_and_validate, presentation_from_dict

        for path in self.rungs:
            load_and_validate(presentation_from_dict(json.loads(path.read_text(encoding="utf-8"))))

    def _call(self, argv, check) -> tuple[float, str]:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run_command(argv)
        dt = perf_counter() - t0
        out = buf.getvalue()
        try:
            ok = code == 0 and check(json.loads(out))
        except (ValueError, KeyError, TypeError):
            ok = False
        self.check(ok)
        return dt, out

    def _calls_of(self, calls, digests, between=None) -> float:
        """Seconds spent in ``calls``; keeps the digest of each label's first stdout."""
        total = 0.0
        for label, argv, check in calls:
            dt, out = self._call(argv, check)
            if between is not None:
                between()
            total += dt
            digests.setdefault(label, _digest([out]))
        return total

    def measure(self, seconds: float, between) -> dict:
        """Passes over the largest rung; after each of its calls, one run of every smaller rung.

        So the smaller rungs are timed many times, spread over the whole run,
        and each reports its median. There are at least LADDER_MIN_PASSES
        passes, and another one only if it fits in ``seconds``.
        """
        *small, large = self.calls
        times = [[] for _ in self.calls]
        digests = {}
        t0 = perf_counter()
        last_pass = 0.0
        while len(times[-1]) < LADDER_MIN_PASSES or perf_counter() - t0 + last_pass <= seconds:
            started, total = perf_counter(), 0.0
            for call in large:
                total += self._calls_of([call], digests, between)
                for i, rung in enumerate(small):
                    times[i].append(self._calls_of(rung, digests, between))
            times[-1].append(total)
            last_pass = perf_counter() - started
        self.digest = digests
        per_rung = [statistics.median(t) for t in times]
        return {"latencies": per_rung, "ops": len(per_rung), "busy": sum(per_rung)}

    def round(self) -> tuple[float, str]:
        digests = {}
        total = sum(self._calls_of(rung, digests) for rung in self.calls)
        return total, _digest(f"{k}={v}" for k, v in digests.items())


class QueriesRepeat(Workload):
    """A seeded stream of cheap library queries against one loaded manifold."""

    name = "queries-repeat"
    # per 100 queries: the direct calls of each kind that fuzz.check_trial
    # makes, counted over the 200 trials of the seed-1 fuzz-small traced round
    # (892 linking_number, 1468 knot_order, 577 preferred_longitude,
    # 675 is_principal, 236 delta_from_divisor, 1686 global_symbol and
    # 1120 decomposition_data calls), rounded to whole percent
    KINDS = (("lk", 13), ("order", 22), ("longitude", 9), ("principal", 10), ("delta", 4), ("symbol", 25), ("decomp", 17))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        import idelink

        self.lib = idelink
        self.inst = sample_instance(QUERIES_MANIFOLD_SEED, QUERIES_SIZE, QUERIES_SIZE, need_admissible=True)
        self.path = self.write_instance(self.inst, "queries")
        self.oracle = Oracle(self.inst)
        rng = random.Random(self.seed * 7_919 + 3)
        knots = self.inst.knots
        self.cover_divisor = _principal_divisor(rng, self.oracle, knots)
        self.cover_n = rng.randint(2, 7)
        self.cover_boundary = self.oracle.delta(knots, self.cover_divisor)
        self.sublinks = []
        for size in SUBLINK_SIZES:
            chosen = set(rng.sample(knots, size))
            self.sublinks.append(tuple(k for k in knots if k in chosen))
        self.man = self.cover = None

    def setup(self) -> None:
        """Load the manifold and build the cover. Only the first set-up's objects
        are kept, so later timed set-ups do not reset what the loop has built."""
        lib = self.lib
        pres = lib.presentation_from_dict(json.loads(self.path.read_text(encoding="utf-8")))
        man = lib.load_and_validate(pres)
        comp = lib.complement_homology(man)
        cover = lib.kummer_cover(comp, lib.Divisor.of(self.cover_divisor), self.cover_n).cover
        if self.man is None:
            self.man, self.cover = man, cover

    def fresh(self) -> None:
        self.man = self.cover = None
        self.setup()

    def _query(self, rng: random.Random, kind: str):
        """One query of ``kind``: (call, expected answer), expected from the oracle."""
        lib, man, o = self.lib, self.man, self.oracle
        knots = self.inst.knots
        if kind == "lk":
            a, b = rng.sample(knots, 2)
            return lambda: man.linking_number(a, b), o.linking_number(a, b)
        if kind == "order":
            k = rng.choice(knots)
            return lambda: man.knot_order(k), o.knot_order(k)
        if kind == "longitude":
            k = rng.choice(knots)

            def longitude():
                ld = lib.preferred_longitude(man, k)
                return ld.lambda_class.meridian, ld.lambda_class.longitude

            return longitude, o.longitude(k)
        if kind in ("principal", "delta"):
            link = rng.choice(self.sublinks)
            d = _principal_divisor(rng, o, link)
            idele = o.delta(link, d)
            if kind == "delta":
                return lambda: lib.delta_from_divisor(lib.complement_homology(man, link), lib.Divisor.of(d)).to_dict(), idele
            if rng.random() < 0.5:
                q = rng.choice(link)
                x, y = idele.get(q, [0, 0])
                idele = {**idele, q: [x + 1, y]}
            a = lib.Idele.from_dict(idele)
            return lambda: lib.is_principal(lib.complement_homology(man, link), a), o.is_principal(link, idele)
        n = self.cover_n
        if kind == "symbol":
            gamma = {k: [rng.randint(-9, 9), rng.randint(-9, 9)] for k in rng.sample(knots, rng.randint(1, 3))}
            a = lib.Idele.from_dict(gamma)
            return lambda: lib.global_symbol(a, self.cover), (Oracle.pairing(gamma, self.cover_boundary) % n,)
        k = rng.choice(knots)
        efg = Oracle.decomposition(n, self.cover_divisor.get(k, 0) % n, -self.cover_boundary.get(k, [0, 0])[0] % n)

        def decomp():
            dd = lib.decomposition_data(self.cover, k)
            return dd.ramification_index, dd.residue_degree, dd.component_count

        return decomp, efg

    def _run(self, rng, count=None, seconds=None, between=None):
        """Queries in blocks of 100 that hold each kind exactly its weight times, shuffled."""
        times, answers, deck = [], [], []
        t0 = perf_counter()
        while (count is not None and len(times) < count) or (seconds is not None and perf_counter() - t0 < seconds):
            if not deck:
                deck = [kind for kind, weight in self.KINDS for _ in range(weight)]
                rng.shuffle(deck)
            kind = deck.pop()
            call, expected = self._query(rng, kind)
            start = perf_counter()
            try:
                got = call()
            except self.lib.IdelinkError:
                got = None
            times.append(perf_counter() - start)
            self.check(got == expected)
            if between is not None:
                between()
            if len(answers) < QUERY_DIGEST_COUNT:
                answers.append(f"{kind}:{got!r}")
        return times, answers

    def measure(self, seconds: float, between) -> dict:
        times, answers = self._run(random.Random(self.seed), count=QUERY_DIGEST_COUNT, seconds=seconds, between=between)
        self.digest = _digest(answers)
        return {"latencies": times, "ops": len(times), "busy": sum(times)}

    def round(self) -> tuple[float, str]:
        times, answers = self._run(random.Random(self.seed), count=QUERY_DIGEST_COUNT)
        return sum(times), _digest(answers)


WORKLOADS = {w.name: w for w in (FuzzSmall, LadderLarge, QueriesRepeat)}
