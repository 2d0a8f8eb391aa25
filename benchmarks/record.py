"""Record the output digests the benchmark's correctness gate compares against.

    python3 benchmarks/record.py

Run it only when a change is meant to alter the program's output bytes, and
say why in the change.  It rewrites benchmarks/expected.json: the digests of
the three CLI commands, and for each recorded seed the digest of the JSON and
SVG of the first REFERENCE figures of both figure workloads.  Before writing
it checks every verdict and that the canonical SVG equals the golden file.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402

import workloads  # noqa: E402
from parbelos.cli import main as main_of_cli  # noqa: E402


def main() -> int:
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    cli = workloads.CliWorkload(0)
    expected = {"cli": {}}
    for i, (label, _) in enumerate(cli.commands):
        code, stdout = cli.run(i)
        if code != 0:
            sys.exit(f"{label}: exit code {code}")
        if label == "render":
            expected["cli"]["render_svg"] = workloads.digest([(workloads.OUT / "cli-render.svg").read_bytes()])
        else:
            expected["cli"][f"{label}_json"] = workloads.digest([stdout.encode()])
    cli.expected = expected["cli"]
    for i in range(len(cli.commands)):
        problem = cli.check(i, cli.run(i))
        if problem:
            sys.exit(problem)
    for name, digits in (("figures", 4), ("figures-tall", 1000)):
        work = workloads.FigureWorkload(name, digits, 0, 0)
        work.main = main_of_cli
        expected[name] = {}
        for seed in range(workloads.RECORDED_SEEDS):
            outcomes, value = work.reference_digest(seed)
            failed = [o for o in outcomes if o]
            if failed:
                sys.exit(f"{name} seed {seed}: {failed}")
            expected[name][str(seed)] = value
    with open(workloads.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
