"""Self-test of the benchmark at a tiny size.

    python3 benchmarks/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload prints
every metric it names (end-to-end untraced, per-layer traced) and passes its
gate, that the gate fires on corrupted output (the negative controls), and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import run
import workloads
from parbelos import fuzz

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def tiny_run(workload: str, trace: int) -> tuple[int, str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "70", "--seconds", "0.3", "--trace", str(trace)], sizes=workloads.TINY
        )
    out = buf.getvalue()
    return code, out, json.loads(out.strip().splitlines()[-1])


def check_format() -> None:
    bench = run.BENCHMARK
    expect(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        expect(bool(NAME.match(name)), f"name {name!r} uses characters outside [A-Za-z0-9_.-] or is too long")
    expect(len(names) == len(set(names)), "a name is used twice")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(bool(UNIT.match(m["unit"])), f"unit of {m['name']}")
        expect(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s must carry the largest bound")
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    with open(workloads.ROOT / "benchmarks" / "predictions.json", encoding="utf-8") as handle:
        predictions = json.load(handle)
    expect(
        set(predictions["per_layer"]) == {m["name"] for m in bench["per_layer"]},
        "predictions.json must predict every per-layer metric",
    )
    expect(set(predictions["workloads"]) == set(run.WORKLOADS), "predictions.json must describe every workload")


def check_metrics_printed() -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"] for m in run.BENCHMARK[group]}
        for workload in run.WORKLOADS:
            code, out, result = tiny_run(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(code == 0 and result["correct"] and result["failed"] == 0, f"{where}: gate fired: {out[-800:]}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
            expect(set(result["metrics"]) == wanted, f"{where}: metrics {set(result['metrics']) ^ wanted}")
            for name in wanted:
                expect(f"  {name} " in out, f"{where}: {name} missing from the printed table")


@contextlib.contextmanager
def patched(module, name: str, value):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def check_negative_controls() -> None:
    import parbelos.cli

    render = parbelos.cli.render_svg
    with patched(parbelos.cli, "render_svg", lambda scene: render(scene).replace("<svg", "<svg ", 1)):
        code, out, result = tiny_run("figures", 0)
    expect(code == 1 and not result["correct"] and result["failed"] > 0, "figures: corrupted SVG passed the gate")

    with patched(fuzz, "sondow_checks", lambda fig: [("forced", "forced failure", False)]):
        code, out, result = tiny_run("fuzz", 0)
    expect(code == 1 and not result["correct"], "fuzz: a failing suite passed the gate")
    fake = [fuzz.SuiteResult(n, c, []) for n, c in workloads.fuzz_case_counts(10).items()]
    expect(workloads.fuzz_gate(fake, 10) is None, "fuzz gate rejects a correct result")
    expect(workloads.fuzz_gate(fake[:-1], 10) is not None, "fuzz gate accepts a missing suite")

    cli = workloads.CliWorkload(0)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    code, stdout = cli.run_in_process(0)
    svg = (workloads.OUT / "cli-figure.svg").read_bytes()
    expect(workloads.cli_gate("figure", code, stdout, svg, cli.expected, cli.golden) is None, "cli gate rejects the canonical figure")
    corrupted = svg.replace(b"<svg", b"<svg ", 1)
    expect(workloads.cli_gate("figure", code, stdout, corrupted, cli.expected, cli.golden) is not None, "cli gate accepts a corrupted SVG")
    expect(workloads.cli_gate("figure", 1, stdout, svg, cli.expected, cli.golden) is not None, "cli gate accepts exit code 1")
    expect(
        workloads.cli_gate("figure", code, stdout.replace("1/2", "1/3", 1), svg, cli.expected, cli.golden) is not None,
        "cli gate accepts corrupted JSON",
    )


def check_refuses_without_program() -> None:
    """In a directory holding only BENCHMARK.json and benchmarks/, it fails without a result."""
    bare = workloads.BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(workloads.ROOT / "benchmarks", bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
            check=False,
        )
        expect(done.returncode != 0 and '"correct"' not in done.stdout, "runs without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_format()
    check_negative_controls()
    check_metrics_printed()
    check_refuses_without_program()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failures"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
