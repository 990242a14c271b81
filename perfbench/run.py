"""Benchmark entry point: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload fuzz-small --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src``. With
``--trace 0`` the run measures the end-to-end metrics with tracing off; with
``--trace 1`` it runs a fixed round of the workload twice, untraced and then
traced, and reports the per-layer metrics (see ``perfbench/README.md``).
Generated inputs and span dumps go to ``.perfbench_work`` in the root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_SAMPLES = 24
CLI_COLD_LAUNCHES = 40
CHILD_TIMEOUT_S = 60
IMPORT_PROBE = "import time; t = time.perf_counter(); import idelink; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "cli_cold_ms": "ms",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _child(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return perf_counter() - t0, done


def setup_once(workload) -> float:
    """A fresh-interpreter ``import idelink`` plus the workload set-up, in s."""
    _, done = _child(["-c", IMPORT_PROBE])
    import_s = float(done.stdout)
    t0 = perf_counter()
    workload.setup()
    return import_s + perf_counter() - t0


def cli_cold_case(workload):
    """A small s = r = 3 instance for the cold runs: its path and its oracle."""
    from gen import Oracle, sample_instance

    inst = sample_instance(workload.seed, 3, 3)
    return str(workload.write_instance(inst, "cli-cold")), Oracle(inst)


def cli_cold_once(workload, case) -> float:
    """Wall time of one fresh ``python -m idelink.cli info`` process, in ms; checks its answer."""
    path, oracle = case
    dt, done = _child(["-m", "idelink.cli", "info", path])
    try:
        ok = done.returncode == 0 and oracle.info_ok(json.loads(done.stdout))
    except (ValueError, KeyError, TypeError):
        ok = False
    workload.check(ok)
    return dt * 1000


class Sampler:
    """Set-up and cold-CLI samples, spread evenly over the timed loop.

    On shared hosts the speed of the CPU drifts over tens of seconds, so
    samples taken in one burst all see the same moment. The workload calls
    the sampler between operations, outside their timers, and it takes one
    sample of each kind whenever the next is due; ``finish`` tops both up
    after the loop.
    """

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.case = cli_cold_case(workload)
        self.every = seconds / CLI_COLD_LAUNCHES
        self.due = 0.0
        self.setup: list[float] = []
        self.cold: list[float] = []

    def __call__(self) -> None:
        if perf_counter() >= self.due:
            self.sample()
            self.due = perf_counter() + self.every

    def sample(self) -> None:
        if len(self.setup) < SETUP_SAMPLES:
            self.setup.append(setup_once(self.workload))
        if len(self.cold) < CLI_COLD_LAUNCHES:
            self.cold.append(cli_cold_once(self.workload, self.case))

    def finish(self) -> None:
        while len(self.setup) < SETUP_SAMPLES or len(self.cold) < CLI_COLD_LAUNCHES:
            self.sample()


def end_to_end(workload, seconds: float) -> dict:
    sampler = Sampler(workload, seconds)
    sampler()  # the first set-up builds what the loop uses
    sample = workload.measure(seconds, sampler)
    sampler.finish()
    lat_ms = sorted(x * 1000 for x in sample["latencies"])
    pct = statistics.quantiles(lat_ms, n=100, method="inclusive") if len(lat_ms) > 1 else lat_ms * 99
    values = {
        "setup_s": statistics.median(sampler.setup),
        "ops_per_s": sample["ops"] / sample["busy"],
        "op_p50_ms": pct[49],
        "op_p99_ms": pct[98],
        "cli_cold_ms": statistics.median(sampler.cold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(workload) -> dict:
    from tracing import Tracer, metric_units

    workload.fresh()
    plain_s, plain_digest = workload.round()
    workload.fresh()  # the traced round starts from new objects too, not from the ones the first round used
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_digest = workload.round()
    finally:
        tracer.uninstall()
    workload.check(plain_digest == traced_digest)
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced_s / plain_s - 1
    tracer.write(workload.workdir / f"spans-{workload.name}-{workload.seed}.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_units().items()}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "idelink" / "__init__.py").is_file():
        print(f"error: no idelink package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import idelink

    if Path(idelink.__file__).resolve().parent != SRC / "idelink":
        print(f"error: imported idelink from {idelink.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    metrics = per_layer(workload) if args.trace else end_to_end(workload, args.seconds)

    digests_ok = True
    if args.seed == DEFAULT_SEED and workload.digest is not None:
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        if recorded.get(workload.name) != workload.digest:
            print(f"digest mismatch on {workload.name}: {workload.digest} != {recorded.get(workload.name)}", file=sys.stderr)
            digests_ok = False
    result = {
        "correct": workload.failed == 0 and digests_ok,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
