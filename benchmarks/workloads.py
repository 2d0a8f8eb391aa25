"""Workload inputs, operations and correctness gates for the parbelos benchmark.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come from the benchmark's own
seeded generator, never from ``parbelos.fuzz``, so a change to the program's
fuzz generators cannot change what is measured.  Every operation passes
through a gate; a miss is counted, never skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SONDOW = SRC / "parbelos" / "data" / "sondow.geo"
GOLDEN = ROOT / "tests" / "data" / "parbelos_p13.svg"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
OUT = BUILD / "out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# What the installed ``parbelos`` console script runs.
ENTRY = "import sys; from parbelos.cli import main; sys.exit(main())"
CANONICAL = ["--c1", "0,0", "--c2", "1,0", "--c3", "4,0"]

# Outputs of the first REFERENCE inputs of each seed in RECORDED_SEEDS are
# pinned by digest in expected.json; any other seed is checked against the
# reference of ``seed % RECORDED_SEEDS`` as well, so the check always runs.
REFERENCE = 4
RECORDED_SEEDS = 64


@dataclass(frozen=True)
class Sizes:
    figures: int = 64  # distinct cusp triples per run, height 10**4
    figures_tall: int = 24  # distinct cusp triples per run, height 10**1000
    fuzz_cases: int = 200  # the CLI's default ``fuzz --cases``
    probes: int = 7  # fresh interpreters started to time set-up


FULL = Sizes()
TINY = Sizes(figures=REFERENCE, figures_tall=REFERENCE, fuzz_cases=10, probes=1)


# Seconds either calibration loop takes on the reference host (the 2-vCPU
# host these workloads were sized on, in its fast state).  See ``calibrate``.
REF_CAL_S = 0.001


# About 3330 and 3320 bits: the coordinate height of figures-tall.
_P, _Q = 3**2100, 5**1430


def calibrate(big: bool = False) -> float:
    """Seconds a fixed loop of Fraction arithmetic takes now (stdlib only).

    Timed operations are scaled by REF_CAL_S / calibrate(), measured around
    them: the host's speed swings by up to 1.7x for spells of seconds to
    minutes (other tenants, both vCPUs, CPU time as well as wall time), and
    the loop slows with it, while a change to parbelos leaves it alone.
    Interpreter-bound and bignum-bound code slow by different factors, so a
    workload calibrates with arithmetic at its own height: small fractions,
    or (``big``) products of 3300-bit ones.
    """
    start = perf_counter()
    if big:
        for k in range(5):
            Fraction(_P + k, _Q) * Fraction(_Q + k, _P) + Fraction(_P - k, _Q + k)
    else:
        total = Fraction(0)
        for k in range(1, 450):
            total += Fraction(1, k)
    return perf_counter() - start


# Longest stretch of serial fuzz cases scaled by one calibration.
SEGMENT_S = 0.05


def scale(seconds: float, cal: float) -> float:
    return seconds * REF_CAL_S / cal


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources, with a bytecode cache.

    An installed program starts from cached bytecode, so the cache is written
    even where PYTHONDONTWRITEBYTECODE is set; it lives under PYCACHE, never
    in src/.  The first interpreter of a run fills it (the build).
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": str(PYCACHE)}


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def run_main(main, argv: list[str]) -> tuple[int, str]:
    """``parbelos.cli.main`` in this process, its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _verdicts_pass(doc: dict) -> bool:
    checks = doc.get("checks", {})
    return doc.get("overall") is True and bool(checks) and all(
        ok is True for group in checks.values() for ok in group.values()
    )


# --- cusp triples -----------------------------------------------------------


def _text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# Directions of the cusp line.  Axis-parallel and diagonal lines are left
# out: their figures cost 20-40% less, so a seed's share of them would move
# the median operation.
DIRECTIONS = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if x and y and abs(x) != abs(y)]


def cusp_triples(seed: int, digits: int, count: int) -> list[tuple]:
    """Collinear cusps on random rational lines, numerators and denominators below 10**digits.

    C1 = B, C2 = B + (k1/m) d, C3 = B + (k2/m) d with 0 < k1 < k2 <= 2m, so C2
    is strictly inside C1C3.  With |B| = |u|/v, u, v, m <= s and |d_i| <= 3 a
    coordinate numerator is at most s*s + 2s*3*s = 7 s^2 < 10**digits.  The
    denominators are drawn from [s/2, s], so heights sit near the cap.
    """
    rng = random.Random(f"parbelos-benchmark/{digits}/{seed}")
    s = math.isqrt(10**digits // 8)

    def coordinate() -> Fraction:
        return Fraction(rng.randint(-s, s), rng.randint(s // 2, s))

    triples = []
    for _ in range(count):
        bx, by = coordinate(), coordinate()
        dx, dy = rng.choice(DIRECTIONS)
        m = rng.randint(s // 2, s)
        k1 = rng.randint(1, m)
        k2 = k1 + rng.randint(1, m)
        c2 = (bx + Fraction(k1, m) * dx, by + Fraction(k1, m) * dy)
        c3 = (bx + Fraction(k2, m) * dx, by + Fraction(k2, m) * dy)
        triples.append(((bx, by), c2, c3, rng.choice(("left", "right"))))
    return triples


def triple_bits(triples) -> int:
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for c1, c2, c3, _ in triples
        for v in (*c1, *c2, *c3)
    )


def figure_argv(triple, svg_path: Path) -> list[str]:
    c1, c2, c3, side = triple
    argv = [f"--{flag}={_text(x)},{_text(y)}" for flag, (x, y) in zip(("c1", "c2", "c3"), (c1, c2, c3))]
    return argv + ["--side", side, "--json", "--svg", str(svg_path)]


# --- workloads ----------------------------------------------------------------


class CliWorkload:
    """Subprocess calls of the CLI cycling through three commands."""

    height = "fixed inputs: the canonical figure and data/sondow.geo"
    big_cal = False

    def __init__(self, seed: int):
        self.seed = seed
        commands = [
            ("figure", CANONICAL + ["--json", "--svg", str(OUT / "cli-figure.svg")]),
            ("check", ["check", str(SONDOW), "--json"]),
            ("render", ["render", str(SONDOW), "--svg", str(OUT / "cli-render.svg")]),
        ]
        start = seed % len(commands)
        self.commands = commands[start:] + commands[:start]
        self.expected = load_expected()["cli"]
        self.golden = GOLDEN.read_bytes()
        self.main = None

    def label(self, i: int) -> str:
        return self.commands[i % len(self.commands)][0]

    def _clear(self) -> None:
        for name in ("cli-figure.svg", "cli-render.svg"):
            (OUT / name).unlink(missing_ok=True)

    def run(self, i: int):
        """One invocation in a fresh interpreter, as a user runs it."""
        self._clear()
        argv = self.commands[i % len(self.commands)][1]
        done = subprocess.run(
            [sys.executable, "-c", ENTRY, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            check=False,
        )
        return done.returncode, done.stdout

    def run_in_process(self, i: int):
        """The same invocation through ``main`` in this process (traced runs)."""
        self._clear()
        if self.main is None:
            from parbelos.cli import main

            self.main = main
        return run_main(self.main, self.commands[i % len(self.commands)][1])

    def check(self, i: int, result) -> str | None:
        code, stdout = result
        label = self.label(i)
        try:
            svg = (OUT / f"cli-{label}.svg").read_bytes() if label != "check" else b""
        except OSError:
            return f"{label}: no SVG written"
        return cli_gate(label, code, stdout, svg, self.expected, self.golden)

    def prepare(self) -> list[str | None]:
        OUT.mkdir(parents=True, exist_ok=True)
        return []


def cli_gate(label: str, code: int, stdout: str, svg: bytes, expected: dict, golden: bytes) -> str | None:
    """Exit code, verdicts, golden SVG and recorded digests of one CLI call."""
    if code != 0:
        return f"{label}: exit code {code}"
    if label == "render":
        if digest([svg]) != expected["render_svg"]:
            return "render: SVG differs from the recorded digest"
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{label}: standard output is not JSON"
    if label == "check":
        if doc.get("overall") is not True or not all(a.get("pass") is True for a in doc.get("assertions", [])):
            return "check: an assertion failed"
        if digest([stdout.encode()]) != expected["check_json"]:
            return "check: JSON differs from the recorded digest"
        return None
    if not _verdicts_pass(doc):
        return "figure: a check verdict failed"
    if svg != golden:
        return "figure: SVG differs from tests/data/parbelos_p13.svg"
    if digest([stdout.encode()]) != expected["figure_json"]:
        return "figure: JSON differs from the recorded digest"
    return None


class FigureWorkload:
    """The CLI's ``--json --svg`` path in process, on seeded cusp triples."""

    def __init__(self, name: str, digits: int, seed: int, count: int):
        self.name = name
        self.digits = digits
        self.seed = seed
        self.height = f"cusp coordinates of height below 10^{digits}"
        self.big_cal = digits >= 100
        self.svg_path = OUT / f"{name}.svg"
        self.triples = cusp_triples(seed, digits, count)
        self.inputs = [figure_argv(t, self.svg_path) for t in self.triples]
        self.pinned: list[str] = []
        self.main = None

    def label(self, i: int) -> str:
        return "figure"

    def run(self, i: int):
        self.svg_path.unlink(missing_ok=True)
        return run_main(self.main, self.inputs[i % len(self.inputs)])

    run_in_process = run

    def _outputs(self, result) -> tuple[str | None, bytes]:
        code, stdout = result
        if code != 0:
            return f"exit code {code}", b""
        try:
            doc = json.loads(stdout)
            svg = self.svg_path.read_bytes()
        except (json.JSONDecodeError, OSError) as exc:
            return f"unreadable output: {exc}", b""
        if not _verdicts_pass(doc):
            return "a check verdict failed", b""
        return None, stdout.encode() + svg

    def check(self, i: int, result) -> str | None:
        problem, data = self._outputs(result)
        if problem is None and digest([data]) != self.pinned[i % len(self.inputs)]:
            problem = "output differs from the first pass over the same input"
        return problem and f"figure {i % len(self.inputs)}: {problem}"

    def reference_digest(self, seed: int) -> tuple[list[str | None], str]:
        """Gate outcomes and the digest of the first REFERENCE outputs for ``seed``."""
        outcomes, chunks = [], []
        for j, triple in enumerate(cusp_triples(seed, self.digits, REFERENCE)):
            self.svg_path.unlink(missing_ok=True)
            problem, data = self._outputs(run_main(self.main, figure_argv(triple, self.svg_path)))
            outcomes.append(problem and f"reference {j}: {problem}")
            chunks.append(data)
        return outcomes, digest(chunks)

    def prepare(self) -> list[str | None]:
        """One untimed pass over the inputs: warms caches, pins each output, checks the digest.

        Returns one gate outcome per check made: None for a pass, else what failed.
        """
        from parbelos.cli import main

        self.main = main
        OUT.mkdir(parents=True, exist_ok=True)
        outcomes = []
        for i in range(len(self.inputs)):
            problem, data = self._outputs(self.run(i))
            outcomes.append(problem and f"figure {i}: {problem}")
            self.pinned.append(digest([data]))
        reference_seed = self.seed % RECORDED_SEEDS
        reference, got = self.reference_digest(reference_seed)
        want = load_expected()[self.name].get(str(reference_seed))
        outcomes += reference
        outcomes.append(None if got == want else f"digest of seed {reference_seed} is {got}, recorded {want}")
        return outcomes


def fuzz_case_counts(cases: int) -> dict[str, int]:
    """Cases each suite of ``run_all(cases)`` must report."""
    pairs = max(1, cases // 10)
    return {
        "sondow+corollaries": cases,
        "tangent/secant criterion": cases,
        "lambert circumcircle": cases,
        "converse lambert": pairs + max(1, pairs // 20),
        "diagonal proof replay": cases,
        "similarity invariance": max(1, cases // 2),
        "pi/4 latus angle": cases,
        "FT = HT": cases,
    }


def fuzz_gate(results, cases: int) -> str | None:
    got = {r.name: r.cases for r in results}
    if got != fuzz_case_counts(cases):
        return f"suite case counts {got} differ from {fuzz_case_counts(cases)}"
    failed = [f"{r.name}: {r.failures[0]}" for r in results if r.failures]
    return f"fuzz failures: {failed}" if failed else None


class FuzzWorkload:
    """``fuzz.run_all`` at the CLI's default case count (traced runs also run it on the process pool)."""

    height = "fuzz generator default, cusp height below 10^4"
    big_cal = False

    def __init__(self, seed: int, cases: int):
        self.seed = seed
        self.cases = cases
        self.segments: list[list[float]] = []

    def run(self, i: int, parallel: bool = False, segmented: bool = True):
        """One ``run_all``.

        A serial run lasts seconds, longer than a spell of host speed, so its
        cases are timed and scaled in segments: the module's ``_*_case``
        functions are wrapped while it runs, recalibrating every SEGMENT_S.
        A parallel run passes the cases to pool workers, which the wrappers
        could not be pickled to, so it is scaled as a whole; so is a traced
        run (``segmented=False``), whose spans must not hold calibrations.
        """
        from parbelos import fuzz

        self.segments = []
        cases = {} if parallel or not segmented else {
            name: fn for name, fn in vars(fuzz).items() if name.startswith("_") and name.endswith("_case")
        }
        for name, fn in cases.items():
            setattr(fuzz, name, self._timed(fn))
        try:
            return fuzz.run_all(self.cases, self.seed, parallel=parallel)
        finally:
            for name, fn in cases.items():
                setattr(fuzz, name, fn)

    run_in_process = run

    def _timed(self, fn):
        def case(args):
            if not self.segments or self.segments[-1][2] >= SEGMENT_S:
                self.segments.append([calibrate(), 0.0, 0.0])  # calibration, scaled, wall
            start = perf_counter()
            try:
                return fn(args)
            finally:
                segment = self.segments[-1]
                elapsed = perf_counter() - start
                segment[1] += scale(elapsed, segment[0])
                segment[2] += elapsed

        return case

    def scaled(self, seconds: float, cal: float) -> float:
        """Cases scaled segment by segment; the rest of the run by ``cal``."""
        rest = seconds - sum(c + wall for c, _, wall in self.segments)
        return sum(fair for _, fair, _ in self.segments) + scale(rest, cal)

    def check(self, i: int, result) -> str | None:
        return fuzz_gate(result, self.cases)

    def prepare(self) -> list[str | None]:
        return []


def make(name: str, seed: int, sizes: Sizes):
    if name == "cli":
        return CliWorkload(seed)
    if name == "figures":
        return FigureWorkload(name, 4, seed, sizes.figures)
    if name == "figures-tall":
        return FigureWorkload(name, 1000, seed, sizes.figures_tall)
    if name == "fuzz":
        return FuzzWorkload(seed, sizes.fuzz_cases)
    raise ValueError(f"unknown workload {name!r}")
