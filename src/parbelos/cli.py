"""Command-line interface.

Subcommands:

    parbelos --c1 X,Y --c2 X,Y --c3 X,Y [--side left|right] [--json] [--svg OUT.svg]
        Build the figure from three cusps, run every tangency and corollary
        check, print the exact report.  Exit 0 iff all checks pass, 1 when
        one fails, 2 on degenerate cusps or an unwritable --svg path.
        (The subcommand name may be omitted: ``parbelos --c1 ...`` works.)

    check FILE.geo [--json]
        Parse and evaluate a construction script.  Exit 0 when all
        assertions pass, 1 when an assertion fails, 2 on an unreadable or
        non-UTF-8 script or a parse or evaluation error.

    fuzz [--cases N] [--seed S] [--max-height H] [--parallel]
        Seeded randomized invariant suites; cusp coordinates have numerators
        and denominators of at most H (H >= 22).  Exit 0 iff zero failures,
        1 when a case fails (a kernel error inside a case is listed as that
        case's failure), 2 when N is not positive, H is below 22, or an OS
        error stops the run.

    render FILE.geo --svg OUT.svg [--width W] [--height H] [--margin M] [--digits D]
        Evaluate a script and render its drawable bindings.  Exit 0 when
        OUT.svg is written, 2 on an unreadable or non-UTF-8 script, a parse
        or evaluation error, an empty scene, an unwritable OUT.svg, a W or
        H that is not positive, a negative margin, a margin that leaves no
        drawing area, a negative D, or a D above the interpreter's limit on
        printed digits.
"""

from __future__ import annotations

import argparse
import sys

from .dsl import EvalReport, evaluate, parse_script, report_json
from .errors import GeometryError
from .euclid import Point
from .figure import NAMED_POINTS, build_parbelos, corollary_checks, sondow_checks
from .fuzz import DEFAULT_MAX_HEIGHT, MIN_MAX_HEIGHT, run_all
from .jsonio import dumps, verification
from .parabola import LEFT, RIGHT
from .rational import format_rational, parse_rational, too_long_to_print
from .svg import bindings_scene, figure_scene, render_svg


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected X,Y with rational parts, got {text!r}")
    try:
        return Point(parse_rational(parts[0]), parse_rational(parts[1]))
    except (ValueError, GeometryError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _figure_text(fig, side: str) -> tuple[str, bool]:
    """The text report and the overall verdict."""
    checks = sondow_checks(fig) + corollary_checks(fig)
    overall = all(ok for _, _, ok in checks)
    lines = [f"parbelos figure (side={side})"]
    lines += [f"  {label} = {getattr(fig, field)}" for label, field in NAMED_POINTS]
    lines.append(f"  radius_sq = {format_rational(fig.circumcircle_K.radius_sq)}")
    lines.append("checks:")
    lines += [f"  [{'pass' if ok else 'FAIL'}] {label}" for label, _, ok in checks]
    lines.append(f"overall: {'pass' if overall else 'FAIL'}")
    return "\n".join(lines), overall


def _open(path: str, mode: str, encoding: str):
    """``open``, with a path the OS cannot take (a NUL byte in it) refused as an ``OSError``."""
    try:
        return open(path, mode, encoding=encoding)
    except ValueError as exc:
        raise OSError(f"{path!r}: {exc}") from None


def _write(path: str, document: str) -> None:
    with _open(path, "w", "utf-8") as handle:
        handle.write(document)


def _cmd_parbelos(args: argparse.Namespace) -> int:
    fig = build_parbelos(args.c1, args.c2, args.c3, args.side)
    # The whole output is built, and the SVG written, before any of it is printed.
    try:
        if args.json:
            doc = verification(fig)
            text, overall = dumps(doc), doc["overall"]
        else:
            text, overall = _figure_text(fig, args.side)
        document = render_svg(figure_scene(fig)) if args.svg else None
    except ValueError:  # an int past the interpreter's digit limit turned into text
        raise GeometryError(too_long_to_print("the figure")) from None
    if document is not None:
        _write(args.svg, document)
    print(text)
    return 0 if overall else 1


def _evaluate_script(path: str) -> EvalReport:
    """Read, parse and evaluate a UTF-8 script.

    A leading byte-order mark, as some editors save UTF-8, is dropped.
    """
    try:
        with _open(path, "r", "utf-8-sig") as handle:
            source = handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return evaluate(parse_script(source))


def _cmd_check(args: argparse.Namespace) -> int:
    report = _evaluate_script(args.file)
    if args.json:
        print(dumps(report_json(report)))
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


def _cmd_fuzz(args: argparse.Namespace) -> int:
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


def _cmd_render(args: argparse.Namespace) -> int:
    report = _evaluate_script(args.file)
    try:
        scene = bindings_scene(report.bindings)
        document = render_svg(scene, args.width, args.height, args.margin, args.digits)
    except ValueError:  # an int past the interpreter's digit limit turned into text
        raise GeometryError(too_long_to_print("the drawing")) from None
    _write(args.svg, document)
    print(f"wrote {args.svg}")
    return 0


def _command(name: str, description: str, handler, *arguments, rules=lambda args: ()) -> tuple:
    """``name`` and its row of :data:`COMMANDS`: the parser of ``parbelos
    {name}``, built here once from ``arguments`` (each a flag and its
    ``add_argument`` options), the flag rules and the handler."""
    parser = argparse.ArgumentParser(prog=f"parbelos {name}", description=description)
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    return name, (parser, rules, handler)


_POINT = {"type": _parse_point, "required": True, "metavar": "X,Y"}
_SCRIPT = ("file", {"metavar": "FILE.geo"})
_SWITCH = {"action": "store_true"}

# One row per subcommand: (parser, flag rules, handler).  ``main`` alone parses;
# it refuses the first flag whose rule, a (bad, message) pair of the parsed
# flags, is bad before any work is done, and otherwise hands the parsed flags
# to the handler.
COMMANDS = dict([
    _command(
        "parbelos", "build and verify a parbelos figure", _cmd_parbelos,
        ("--c1", _POINT), ("--c2", _POINT), ("--c3", _POINT),
        ("--side", {"choices": (LEFT, RIGHT), "default": LEFT}),
        ("--json", {"action": "store_true", "help": "emit the JSON report"}),
        ("--svg", {"metavar": "OUT.svg", "help": "also render the figure"}),
    ),
    _command("check", "evaluate a construction script", _cmd_check, _SCRIPT, ("--json", _SWITCH)),
    _command(
        "fuzz", "seeded randomized invariant suites", _cmd_fuzz,
        ("--cases", {"type": int, "default": 200}), ("--seed", {"type": int, "default": 0}),
        ("--max-height", {"type": int, "default": DEFAULT_MAX_HEIGHT}), ("--parallel", _SWITCH),
        rules=lambda args: (
            (args.cases < 1, f"--cases must be at least 1, got {args.cases}"),
            (args.max_height < MIN_MAX_HEIGHT,
             f"--max-height must be at least {MIN_MAX_HEIGHT}, got {args.max_height}"),
        ),
    ),
    _command(
        "render", "render a script's constructions to SVG", _cmd_render,
        _SCRIPT, ("--svg", {"required": True, "metavar": "OUT.svg"}),
        ("--width", {"type": int, "default": 800}), ("--height", {"type": int, "default": 600}),
        ("--margin", {"type": int, "default": 40}), ("--digits", {"type": int, "default": 12}),
        # A coordinate rounded to more digits than the interpreter prints
        # (0: no limit) can never be written, so it is refused up front.
        rules=lambda args: (
            (args.width <= 0, f"--width must be positive, got {args.width}"),
            (args.height <= 0, f"--height must be positive, got {args.height}"),
            (args.margin < 0, f"--margin must not be negative, got {args.margin}"),
            (min(args.width, args.height) <= 2 * args.margin,
             f"--margin {args.margin} leaves no drawing area"),
            (args.digits < 0, f"--digits must not be negative, got {args.digits}"),
            (0 < sys.get_int_max_str_digits() < args.digits, too_long_to_print("the drawing")),
        ),
    ),
])


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        parser, rules, handler = COMMANDS[argv.pop(0)]
    elif argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser, rules, handler = COMMANDS["parbelos"]  # bare flags: the figure command
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    args = parser.parse_args(argv)
    problem = next((message for bad, message in rules(args) if bad), None)
    try:
        if problem is None:
            return handler(args)
    except (GeometryError, OSError) as exc:  # any subcommand's kernel or file error
        problem = exc
    print(f"error: {problem}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
