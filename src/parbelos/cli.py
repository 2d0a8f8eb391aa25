"""Command-line interface.

Subcommands:

    parbelos --c1 X,Y --c2 X,Y --c3 X,Y [--side left|right] [--json] [--svg OUT.svg]
        Build the figure from three cusps, run every tangency and corollary
        check, print the exact report.  Exit 0 iff all checks pass, 1 when
        one fails, 2 on degenerate cusps or an unwritable --svg path.
        (The subcommand name may be omitted: ``parbelos --c1 ...`` works.)

    check FILE.geo [--json]
        Parse and evaluate a construction script.  Exit 0 when all
        assertions pass, 1 when an assertion fails, 2 on a parse or
        evaluation error.

    fuzz [--cases N] [--seed S] [--max-height H] [--parallel]
        Seeded randomized invariant suites.  Exit 0 iff zero failures,
        2 when N or H is not positive.

    render FILE.geo --svg OUT.svg [--width W] [--height H] [--margin M] [--digits D]
        Evaluate a script and render its drawable bindings.  Exit 0 when
        OUT.svg is written, 2 on a parse or evaluation error, an empty
        scene, an unwritable OUT.svg, a W or H that is not positive, a
        margin that leaves no drawing area, or a negative D.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dsl import DslError, evaluate, parse_script, report_json
from .errors import GeometryError
from .euclid import Point
from .figure import build_parbelos, corollary_checks, sondow_checks
from .fuzz import DEFAULT_MAX_HEIGHT, run_all
from .jsonio import verification_json
from .rational import format_rational, parse_rational
from .svg import bindings_scene, figure_scene, render_svg

SUBCOMMANDS = ("parbelos", "check", "fuzz", "render")


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected X,Y with rational parts, got {text!r}")
    try:
        return Point(parse_rational(parts[0]), parse_rational(parts[1]))
    except (ValueError, GeometryError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parbelos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parbelos parbelos", description="build and verify a parbelos figure"
    )
    parser.add_argument("--c1", type=_parse_point, required=True, metavar="X,Y")
    parser.add_argument("--c2", type=_parse_point, required=True, metavar="X,Y")
    parser.add_argument("--c3", type=_parse_point, required=True, metavar="X,Y")
    parser.add_argument("--side", choices=("left", "right"), default="left")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--svg", metavar="OUT.svg", help="also render the figure")
    return parser


def _cmd_parbelos(argv: list[str]) -> int:
    args = _parbelos_parser().parse_args(argv)
    try:
        fig = build_parbelos(args.c1, args.c2, args.c3, args.side)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = verification_json(fig)
        overall = doc["overall"]
        print(json.dumps(doc, indent=2))
    else:
        checks = sondow_checks(fig) + corollary_checks(fig)
        overall = all(ok for _, _, ok in checks)
        print(f"parbelos figure (side={args.side})")
        named = (
            ("C1", fig.C1),
            ("C2", fig.C2),
            ("C3", fig.C3),
            ("T1", fig.T1),
            ("T2", fig.T2),
            ("T3", fig.T3),
            ("F", fig.focus_F),
            ("O", fig.center_O),
            ("contact", fig.contact_T),
            ("H", fig.H),
            ("A1", fig.A1),
            ("A3", fig.A3),
        )
        for label, p in named:
            print(f"  {label} = {p}")
        print(f"  radius_sq = {format_rational(fig.circumcircle_K.radius_sq)}")
        print("checks:")
        for label, _, ok in checks:
            print(f"  [{'pass' if ok else 'FAIL'}] {label}")
        print(f"overall: {'pass' if overall else 'FAIL'}")
    if args.svg:
        document = render_svg(figure_scene(fig))
        try:
            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if overall else 1


def _cmd_check(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="parbelos check", description="evaluate a construction script"
    )
    parser.add_argument("file", metavar="FILE.geo")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = evaluate(parse_script(source))
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report_json(report), indent=2))
    else:
        for result in report.assertions:
            status = "pass" if result.passed else "FAIL"
            print(f"  [{status}] line {result.line}: {result.pred}")
        print(f"overall: {'pass' if report.overall else 'FAIL'}")
    if not report.overall:
        failure = report.first_failure()
        print(f"assertion failed at line {failure.line}: {failure.pred}", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="parbelos fuzz", description="seeded randomized invariant suites"
    )
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-height", type=int, default=DEFAULT_MAX_HEIGHT)
    parser.add_argument("--parallel", action="store_true")
    args = parser.parse_args(argv)
    for flag, value in (("--cases", args.cases), ("--max-height", args.max_height)):
        if value <= 0:
            print(f"error: {flag} must be positive, got {value}", file=sys.stderr)
            return 2
    results = run_all(args.cases, args.seed, args.max_height, args.parallel)
    total_cases = sum(r.cases for r in results)
    total_failures = sum(len(r.failures) for r in results)
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"  [{status}] {result.name}: {result.cases} cases, {len(result.failures)} failures")
        for failure in result.failures[:10]:
            print(f"      {failure}")
    print(f"overall: {total_failures} failures in {total_cases} cases")
    return 0 if total_failures == 0 else 1


def _cmd_render(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="parbelos render", description="render a script's constructions to SVG"
    )
    parser.add_argument("file", metavar="FILE.geo")
    parser.add_argument("--svg", required=True, metavar="OUT.svg")
    parser.add_argument("--width", type=int, default=800)
    parser.add_argument("--height", type=int, default=600)
    parser.add_argument("--margin", type=int, default=40)
    parser.add_argument("--digits", type=int, default=12)
    args = parser.parse_args(argv)
    drawable = min(args.width, args.height) - 2 * args.margin
    for bad, problem in (
        (args.width <= 0, f"--width must be positive, got {args.width}"),
        (args.height <= 0, f"--height must be positive, got {args.height}"),
        (drawable <= 0, f"--margin {args.margin} leaves no drawing area"),
        (args.digits < 0, f"--digits must not be negative, got {args.digits}"),
    ):
        if bad:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
        report = evaluate(parse_script(source))
        document = render_svg(
            bindings_scene(report.bindings),
            width=args.width,
            height=args.height,
            margin=args.margin,
            decimal_digits=args.digits,
        )
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(document)
    except (OSError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.svg}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
    elif argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        command, rest = "parbelos", argv  # bare flags: the figure command
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    handlers = {
        "parbelos": _cmd_parbelos,
        "check": _cmd_check,
        "fuzz": _cmd_fuzz,
        "render": _cmd_render,
    }
    return handlers[command](rest)


if __name__ == "__main__":
    sys.exit(main())
