"""Declarative construction scripts over the exact kernel.

The language is line-oriented and single-assignment:

    # comment (to end of line)
    let NAME = constructor(arg, arg, ...)
    assert predicate(arg, arg, ...)

Arguments are rational literals (``3``, ``-1/2``), previously bound names,
dotted accesses into a bound parbelos figure (``P.T1``, ``P.outer``), or the
half-plane keywords ``left`` / ``right``.  There is no arithmetic and no
re-binding: a script is a dependency chain of kernel calls whose assertions
are the product.

The constructors, with their argument kinds, are the rows of
:data:`CONSTRUCTORS`.  The predicates are the rows of :data:`PREDICATES`,
which is ``figure.PREDICATES``: the one table of predicates, whose words the
figure's statements name too.  An assertion's verdict is the row's verdict,
and its witness the row's witness values, kernel values like the bindings;
``jsonio.dumps`` writes both in their JSON form.

All verdicts are exact; evaluation is deterministic and stops at the first
construction error, reporting the offending statement's position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import GeometryError, ZeroDenominator
from .euclid import (
    Circle,
    Line,
    Point,
    circle_through_points,
    circumcircle,
    line_intersection,
    line_through,
    pedal_point,
    perpendicular_through,
    second_intersection,
)
from .figure import NAMED_POINTS, PREDICATES, ParbelosFigure, build_parbelos
from .jsonio import dumps
from .parabola import LEFT, RIGHT, Parabola, parabola_from_latus_rectum, tangent_at
from .rational import format_rational, parse_rational, too_long_to_print


class DslError(GeometryError):
    """Base for script errors; carries a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class GeoSyntaxError(DslError):
    pass


class UnknownConstructor(DslError):
    pass


class UnknownPredicate(DslError):
    pass


class DuplicateName(DslError):
    pass


class UnboundName(DslError):
    pass


class EvalError(DslError):
    """A construction failed at runtime; wraps the kernel error."""


# --- AST ---


@dataclass(frozen=True)
class LiteralArg:
    """A rational literal (its Fraction) or a side keyword (its word)."""

    value: Fraction | str
    line: int
    col: int

    def text(self) -> str:
        return self.value if isinstance(self.value, str) else format_rational(self.value)


@dataclass(frozen=True)
class NameArg:
    name: str
    attr: str | None
    line: int
    col: int

    def text(self) -> str:
        return self.name if self.attr is None else f"{self.name}.{self.attr}"


Arg = Union[LiteralArg, NameArg]


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple[Arg, ...]
    line: int
    col: int

    def text(self) -> str:
        return f"{self.func}({', '.join(a.text() for a in self.args)})"


@dataclass(frozen=True)
class Let:
    name: str
    call: Call
    line: int
    col: int


@dataclass(frozen=True)
class Assertion:
    call: Call
    line: int
    col: int


@dataclass(frozen=True)
class Program:
    statements: tuple[Union[Let, Assertion], ...]


_SIDES = (LEFT, RIGHT)
_KEYWORDS = {"let", "assert", *_SIDES}

_TOKEN_RE = re.compile(
    r"(?P<rational>[+-]?[0-9]+(?:/[0-9]+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(),=.])|(?P<bad>\S)"
)

_Filter = Union[str, tuple[str, ...], None]


class _Line:
    """Cursor over one source line's (kind, text, col) tokens, comment stripped.

    The last token is ``("end", "", len(line) + 1)``, one column past the line.
    """

    def __init__(self, text: str, line_no: int):
        self.line_no = line_no
        self.pos = 0
        self.tokens = []
        for m in _TOKEN_RE.finditer(text.split("#", 1)[0]):
            if m.lastgroup == "bad":
                raise GeoSyntaxError(f"unexpected character {m.group()!r}", line_no, m.start() + 1)
            self.tokens.append((m.lastgroup, m.group(), m.start() + 1))
        self.tokens.append(("end", "", len(text) + 1))

    def peek(self) -> str:
        return self.tokens[self.pos][1]

    def take(self, expected: str, kind: _Filter = None, text: _Filter = None) -> tuple[str, str, int]:
        """The next token, if its kind is in ``kind`` and its text in ``text``.

        Each filter is one value or a tuple of them.  A one-value string is
        a token kind or a punctuation mark, none of which is part of
        another, so ``in`` it is equality.  Any other token, the end of the
        line among them, is a syntax error that names ``expected``.
        """
        token = tkind, ttext, col = self.tokens[self.pos]
        if tkind == "end":
            raise GeoSyntaxError(f"unexpected end of line (expected {expected})", self.line_no, col)
        if (kind and tkind not in kind) or (text and ttext not in text):
            raise GeoSyntaxError(f"expected {expected}, got {ttext!r}", self.line_no, col)
        self.pos += 1
        return token


def _parse_arg(p: _Line, bound: set[str]) -> Arg:
    kind, text, col = p.take("an argument", ("rational", "ident"))
    if kind == "rational":
        try:
            return LiteralArg(parse_rational(text), p.line_no, col)
        except ZeroDenominator:
            message = "rational literal has a zero denominator"
        except ValueError:  # more digits than the interpreter converts to an int
            message = f"rational literal too long ({len(text)} characters)"
        raise GeoSyntaxError(message, p.line_no, col)
    if text in _SIDES:
        return LiteralArg(text, p.line_no, col)
    if text in _KEYWORDS:
        raise GeoSyntaxError(f"{text!r} is a reserved word", p.line_no, col)
    attr = None
    if p.peek() == ".":
        p.take("'.'", text=".")
        attr = p.take("an attribute name", "ident")[1]
    if text not in bound:
        raise UnboundName(f"name {text!r} is not bound", p.line_no, col)
    return NameArg(text, attr, p.line_no, col)


def _parse_call(p: _Line, bound: set[str], table: dict, unknown_error) -> Call:
    """The rest of the line: one call, then nothing but the end of the line."""
    _, func, col = p.take("a constructor or predicate name", "ident")
    if func not in table:
        raise unknown_error(f"unknown name {func!r}", p.line_no, col)
    p.take("'('", text="(")
    args: list[Arg] = []
    while p.peek() != ")":
        if args:
            p.take("',' or ')'", text=",")
        args.append(_parse_arg(p, bound))
    p.take("')'", text=")")
    arity = len(table[func][0])
    if len(args) != arity:
        raise GeoSyntaxError(f"{func} expects {arity} arguments, got {len(args)}", p.line_no, col)
    kind, text, tcol = p.tokens[p.pos]
    if kind != "end":
        raise GeoSyntaxError(f"trailing input {text!r}", p.line_no, tcol)
    return Call(func, tuple(args), p.line_no, col)


def parse_script(text: str) -> Program:
    r"""Parse a script; positions are 1-based (line, column).

    Binding discipline is enforced here: names bind once, and every
    referenced name must be bound on an earlier line.  Lines end only at
    ``\r\n``, ``\r`` and ``\n``, the line ends of a universal-newline read.
    """
    statements: list[Union[Let, Assertion]] = []
    bound: set[str] = set()
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        p = _Line(raw, line_no)
        if p.peek() == "":
            continue
        _, head, col = p.take("'let' or 'assert'", text=("let", "assert"))
        if head == "let":
            _, name, ncol = p.take("a name", "ident")
            if name in _KEYWORDS:
                raise GeoSyntaxError(f"{name!r} is a reserved word", line_no, ncol)
            if name in bound:
                raise DuplicateName(f"name {name!r} is already bound", line_no, ncol)
            p.take("'='", text="=")
            call = _parse_call(p, bound, CONSTRUCTORS, UnknownConstructor)
            statements.append(Let(name, call, line_no, col))
            bound.add(name)
        else:
            statements.append(Assertion(_parse_call(p, bound, PREDICATES, UnknownPredicate), line_no, col))
    return Program(tuple(statements))


# --- evaluation ---


@dataclass
class AssertionResult:
    line: int
    pred: str
    passed: bool
    witness: dict


@dataclass
class EvalReport:
    bindings: dict[str, object]
    assertions: list[AssertionResult]

    @property
    def overall(self) -> bool:
        return all(result.passed for result in self.assertions)

    def first_failure(self) -> AssertionResult | None:
        return next((r for r in self.assertions if not r.passed), None)


_FIGURE_ALIASES = {**dict(NAMED_POINTS), "K": "circumcircle_K"}


def _resolve(arg: Arg, env: dict[str, object]):
    if not isinstance(arg, NameArg):
        return arg.value
    value = env[arg.name]
    if arg.attr is None:
        return value
    if not isinstance(value, ParbelosFigure):
        raise EvalError(
            f"{arg.name!r} is not a figure, cannot access {arg.attr!r}", arg.line, arg.col
        )
    field = _FIGURE_ALIASES.get(arg.attr, arg.attr)
    if field not in ParbelosFigure.__dataclass_fields__:
        raise EvalError(f"figure has no field {arg.attr!r}", arg.line, arg.col)
    return getattr(value, field)


# Every value a script can hold, by its kind's name in the script's words.
# A figure is taken only as ``any``; its ``square_R`` is a ``square``.
_KINDS = {
    "point": Point, "line": Line, "circle": Circle, "parabola": Parabola, "rational": Fraction,
    "side": str, "figure": ParbelosFigure, "square": tuple,
}

# The constructors: name -> (argument kinds, kernel constructor).  Each row of
# this table and of PREDICATES starts with the argument kinds; the parser
# takes each arity from there.  ``side`` accepts ``left``/``right``.
CONSTRUCTORS = {
    "point": (("rational", "rational"), Point),
    "line": (("point", "point"), line_through),
    "circle3": (("point", "point", "point"), circumcircle),
    "circle2": (("point", "point", "rational"), circle_through_points),
    "parabola_latus": (("point", "point", "side"), parabola_from_latus_rectum),
    "tangent_at": (("parabola", "point"), tangent_at),
    "pedal": (("point", "line"), pedal_point),
    "perp": (("line", "point"), perpendicular_through),
    "intersect": (("line", "line"), line_intersection),
    "second_intersect": (("line", "circle", "point"), second_intersection),
    "parbelos": (("point", "point", "point", "side"), build_parbelos),
}


def _apply(table: dict, call: Call, values: list) -> list:
    """Check each value against its kind, left to right, then call each
    function of the row on the values: [constructed value] for a
    constructor, [verdict, witness] for a predicate."""
    kinds, *functions = table[call.func]
    for value, kind in zip(values, kinds):
        if kind == "any" or isinstance(value, _KINDS[kind]):
            continue
        if kind == "side":
            raise EvalError("side must be left or right", call.line, call.col)
        got = next(k for k, c in _KINDS.items() if isinstance(value, c))
        raise EvalError(f"{call.func} expects a {kind}, got {got}", call.line, call.col)
    return [function(*values) for function in functions]


def evaluate(program: Program) -> EvalReport:
    """Execute statements in order; stop at the first construction error.

    Assertion failures are verdicts in the report, not errors; kernel errors
    (degenerate constructions and the like) raise :class:`EvalError` carrying
    the statement position.  So does a binding or witness with an integer too
    long to print (see :func:`~parbelos.rational.too_long_to_print`), so that
    :func:`report_json` can always be printed.
    """
    env: dict[str, object] = {}
    assertions: list[AssertionResult] = []
    for stmt in program.statements:
        try:
            values = [_resolve(arg, env) for arg in stmt.call.args]
            if isinstance(stmt, Let):
                [value] = _apply(CONSTRUCTORS, stmt.call, values)
                dumps(value)
                env[stmt.name] = value
            else:
                passed, witness = _apply(PREDICATES, stmt.call, values)
                dumps(witness)
                assertions.append(AssertionResult(stmt.line, stmt.call.text(), passed, witness))
        except DslError:
            raise
        except GeometryError as exc:
            raise EvalError(str(exc), stmt.line, stmt.col) from exc
        except ValueError:
            # The only ValueError here: an int past the interpreter's digit
            # limit turned into text, by ``dumps`` of the witness or the binding.
            is_let = isinstance(stmt, Let)
            what = f"binding {stmt.name}" if is_let else f"assertion {stmt.call.func}"
            raise EvalError(too_long_to_print(what), stmt.line, stmt.col) from None
    return EvalReport(bindings=env, assertions=assertions)


def report_json(report: EvalReport) -> dict:
    """The bindings, the assertions' results and the overall verdict: the
    raw document that ``parbelos check --json`` prints through ``dumps``."""
    return {
        "bindings": report.bindings,
        "assertions": [
            {"line": r.line, "pred": r.pred, "pass": r.passed, "witness": r.witness}
            for r in report.assertions
        ],
        "overall": report.overall,
    }
