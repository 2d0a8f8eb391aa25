"""The parbelos benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all            # every workload in turn

With ``--trace 0`` a run measures the end-to-end metrics of one workload with
tracing off; with ``--trace 1`` it measures the workload untraced for half
the time and traced for the other half, and prints the per-layer metrics and
the tracing overhead.  Every operation passes a correctness gate.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when the
gate held.  Workloads, metrics and the layer -> end-to-end predictions are
in BENCHMARK.json and benchmarks/predictions.json.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")  # keep bytecode out of src/
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


# --- environment and set-up ---------------------------------------------------


def environment(seed: int) -> dict:
    cpus = os.cpu_count()
    affinity = len(os.sched_getaffinity(0))
    # ProcessPoolExecutor() starts this many workers when not told otherwise.
    pool_workers = getattr(os, "process_cpu_count", os.cpu_count)() or 1
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "parbelos").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": cpus,
        "affinity": affinity,
        "pool_workers": pool_workers,
        "pool_oversubscribed": pool_workers > affinity,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _wall(argv: list[str]) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=workloads.child_env(), check=True)
    return perf_counter() - start


def _scaled_wall(argv: list[str]) -> float:
    before = workloads.calibrate()
    wall = _wall(argv)
    return workloads.scale(wall, (before + workloads.calibrate()) / 2)


def measure_setup(probes: int) -> dict:
    """Start fresh interpreters: bare, and importing ``parbelos.cli``.

    The first import also compiles the bytecode cache (the build); it is not
    timed.  ``setup_s`` is the median import start, the time a user waits
    before the CLI can parse its first argument.  Each start is scaled by a
    calibration taken just before it (see ``workloads.calibrate``).
    """
    bare = [sys.executable, "-c", "pass"]
    imported = [sys.executable, "-c", "import parbelos.cli"]
    _wall(imported)
    bare_s, imported_s = [], []
    for _ in range(probes):
        bare_s.append(_scaled_wall(bare))
        imported_s.append(_scaled_wall(imported))
    start_s, import_s = statistics.median(bare_s), statistics.median(imported_s)
    return {"setup_s": import_s, "start_ms": 1000 * start_s, "import_ms": 1000 * (import_s - start_s), "n": probes}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


# --- measuring ------------------------------------------------------------------


class Gate:
    """Counts gated checks and keeps what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)


def gated_op(gate: Gate, work, op, i: int):
    """Run and gate one operation; returns its seconds.  A crash is a failed operation."""
    start = perf_counter()
    try:
        result = op(i)
    except Exception:
        gate.record(traceback.format_exc(limit=3))
        return perf_counter() - start
    elapsed = perf_counter() - start
    gate.record(work.check(i, result))
    return elapsed


def scaled(work, seconds: float, cal: float) -> float:
    if isinstance(work, workloads.FuzzWorkload):
        return work.scaled(seconds, cal)
    return workloads.scale(seconds, cal)


def timed_loop(gate: Gate, work, op, seconds: float) -> tuple[list[float], list[float]]:
    """Operations back to back for ``seconds``, between calibrations.

    One more starts only while an operation of the mean length so far would
    end in time (at least one runs).  Returns wall seconds and scaled seconds.
    """
    raw: list[float] = []
    fair: list[float] = []
    cals = [workloads.calibrate(work.big_cal)]
    deadline = perf_counter() + seconds
    while not raw or perf_counter() + statistics.fmean(raw) <= deadline:
        raw.append(gated_op(gate, work, op, len(raw)))
        cals.append(workloads.calibrate(work.big_cal))
        fair.append(scaled(work, raw[-1], (cals[-2] + cals[-1]) / 2))
    return raw, fair


def percentile(times: list[float], q: int) -> float:
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def end_to_end(gate: Gate, work, seconds: float, setup: dict) -> tuple[dict, dict]:
    raw, fair = timed_loop(gate, work, work.run, seconds)
    n = len(fair)
    p90 = percentile(fair, 90)
    metrics = {
        "setup_s": setup["setup_s"],
        "op_ms_p50": 1000 * statistics.median(fair),
        "op_ms_p90": 1000 * p90,
        "ops_per_s": n / sum(fair),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of n={setup['n']} interpreter starts",
        "op_ms_p50": f"n={n}; unscaled wall {1000 * statistics.median(raw):.6g} ms",
        "op_ms_p90": f"n={n}, {sum(1 for t in fair if t > p90)} beyond; unscaled wall {1000 * percentile(raw, 90):.6g} ms",
        "ops_per_s": f"n={n}; unscaled wall {n / sum(raw):.6g} 1/s",
        "peak_rss_mb": "largest of this process and its children",
    }
    return metrics, notes


# Per workload, the tags the traced operations alternate through; the first
# is the workload's own operation, which the overhead compares with the
# untraced half and the per-operation metrics come from.  The fuzz workload
# also traces run_all on the process pool, for each suite's parallel time
# and speedup; spans inside pool workers are not collected.
TRACED_TAGS = {
    "cli": ("cli",),
    "figures": ("figure",),
    "figures-tall": ("figure",),
    "fuzz": ("serial", "parallel"),
}


def tagged_op(work, tag: str, tracer: tracing.Tracer | None = None):
    """The operation for ``tag``; with a tracer, a CLI call is a ``cli.main.<command>`` span."""
    if isinstance(work, workloads.FuzzWorkload):
        # Scaled as a whole, traced or not, so that the two halves compare.
        return lambda i: work.run(i, parallel=tag == "parallel", segmented=False)
    if tracer is None:
        return work.run_in_process
    return lambda i: tracer.call(f"cli.main.{work.label(i)}", work.run_in_process, i)


def per_layer(gate: Gate, name: str, work, seconds: float, setup: dict, env: dict) -> tuple[dict, dict]:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    tags = TRACED_TAGS[name]
    _, untraced = timed_loop(gate, work, tagged_op(work, tags[0]), seconds / 2)
    tracer = tracing.Tracer()
    ops = [tagged_op(work, tag, tracer) for tag in tags]
    tracer.install()
    try:
        raw, fair = timed_loop(
            gate, work, lambda i: tracer.op(tags[i % len(tags)], ops[i % len(tags)], i), seconds / 2
        )
    finally:
        tracer.remove()
    for op, (wall, scaled_wall) in enumerate(zip(raw, fair)):
        tracer.op_factors[op] = scaled_wall / wall

    primary_ops = tracer.op_ids(tags[0])
    n_ops = len(primary_ops)
    inclusive, exclusive, calls = tracer.totals(primary_ops)
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}

    def put(metric: str, value: float, note: str = "") -> None:
        metrics[metric] = value
        notes[metric] = note

    def per_call_ms(metric: str, *spans: str) -> None:
        """Inclusive ms per call of spans[0]; later spans are called once with each."""
        count = calls[spans[0]]
        put(metric, 1000 * sum(inclusive[s] for s in spans) / count if count else 0.0, f"per call, n={count}")

    def per_op(metric: str, counter: str) -> None:
        put(metric, calls[counter] / n_ops, f"per operation, n={n_ops}")

    put("interpreter.start_ms", setup["start_ms"], f"median of n={setup['n']} bare interpreter starts")
    put("cli.import_ms", setup["import_ms"], f"median of n={setup['n']} import starts minus the bare median")
    for command in ("figure", "check", "render"):
        per_call_ms(f"cli.main_ms.{command}", f"cli.main.{command}")
    for span in ("dsl.parse_script", "dsl.evaluate", "svg.bindings_scene", "figure.build_parbelos"):
        per_call_ms(f"{span}_ms", span)
    # A check pass is a sondow_checks call and the corollary_checks call made with it.
    per_call_ms("figure.checks_ms", "figure.sondow_checks", "figure.corollary_checks")
    per_op("figure.checks_calls", "figure.sondow_checks")
    for span in ("jsonio.verification_json", "svg.figure_scene", "svg.render_svg"):
        per_call_ms(f"{span}_ms", span)
    for layer, names in tracing.COUNTED.items():
        for fn in names:
            per_op(f"{layer}.{fn}_calls", f"{layer}.{fn}")
    put("rational.input_bits_max", tracer.input_bits, "cusps passed to build_parbelos")
    put("rational.output_bits_max", tracer.output_bits, "every coordinate of each figure built")
    per_call_ms("theorems.converse_lambert_ms", "theorems.converse_lambert")
    per_op("theorems.converse_lambert_calls", "theorems.converse_lambert")
    per_call_ms("theorems.lambert_circumcircle_check_ms", "theorems.lambert_circumcircle_check")

    parallel_inclusive, _, parallel_calls = tracer.totals(tracer.op_ids("parallel"))
    for fn in tracing.FUZZ_RUNS:
        span = f"fuzz.{fn}"
        serial_s = inclusive[span] / calls[span] if calls[span] else 0.0
        parallel_s = parallel_inclusive[span] / parallel_calls[span] if parallel_calls[span] else 0.0
        put(f"fuzz.{fn}_s", serial_s, f"per call, n={calls[span]}")
        put(f"fuzz.{fn}_parallel_s", parallel_s, f"per call, n={parallel_calls[span]}")
        put(f"fuzz.{fn}_speedup", serial_s / parallel_s if parallel_s else 0.0, "serial over parallel")

    self_s = dict.fromkeys(tracing.SPAN_LAYERS, 0.0)
    for span, seconds_self in exclusive.items():
        layer = span.split(".")[0]
        if layer in self_s:
            self_s[layer] += seconds_self
    for layer, total in self_s.items():
        put(f"self_ms.{layer}", 1000 * total / n_ops, f"per operation, n={n_ops}")

    untraced_mean = statistics.fmean(untraced)
    overhead = statistics.fmean(fair[:: len(tags)]) - untraced_mean
    counts = ", ".join(f"{len(fair[k :: len(tags)])} traced {tag}" for k, tag in enumerate(tags))
    put("trace.overhead_ms", 1000 * overhead, f"mean of {len(untraced)} untraced vs {counts} operations")
    put("trace.overhead_pct", 100 * overhead / untraced_mean)

    path = workloads.BUILD / "trace" / f"{name}-seed{work.seed}.json"
    tracer.dump(path, {"workload": name, "env": env, "metrics": metrics})
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics, notes


# --- one workload -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.FULL) -> dict:
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    if env["pool_oversubscribed"]:
        print(f"warning: the process pool starts {env['pool_workers']} workers on {env['affinity']} usable CPUs")
    setup = measure_setup(sizes.probes)
    work = workloads.make(name, seed, sizes)
    print(f"inputs: {work.height}")
    gate = Gate()
    for outcome in work.prepare():
        gate.record(outcome)
    if isinstance(work, workloads.FigureWorkload):
        print(f"input coordinates up to {workloads.triple_bits(work.triples)} bits")
    if trace:
        metrics, notes = per_layer(gate, name, work, seconds, setup, env)
    else:
        metrics, notes = end_to_end(gate, work, seconds, setup)
    failed = len(gate.failures)
    for metric, value in metrics.items():
        print(f"  {metric:<40} {value:>14.6g} {UNITS[metric]:<6} {notes[metric]}".rstrip())
    print(f"  {'failed_ratio':<40} {failed / gate.attempted:>14.6g} {'ratio':<6} {failed}/{gate.attempted}")
    for problem in gate.failures[:10]:
        print("gate: " + problem.strip().replace("\n", " | "))
    return {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own interpreter, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv: list[str] | None = None, sizes=workloads.FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (workloads.SRC / "parbelos" / "cli.py", workloads.SONDOW, workloads.GOLDEN) if not p.is_file()]
    if missing:
        print(f"error: {missing[0].relative_to(ROOT)} is missing: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
