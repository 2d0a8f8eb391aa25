import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expected_json
from parbelos.dsl import (
    Assertion,
    DslError,
    DuplicateName,
    EvalError,
    EvalReport,
    GeoSyntaxError,
    Let,
    UnboundName,
    UnknownConstructor,
    UnknownPredicate,
    evaluate,
    parse_script,
    report_json,
)
from parbelos.euclid import Circle, Line, Point, point
from parbelos.figure import ParbelosFigure
from parbelos.jsonio import dumps

F = Fraction

P13_SCRIPT = """\
let C1 = point(0, 0)
let C2 = point(1, 0)
let C3 = point(4, 0)
let P = parbelos(C1, C2, C3, left)
assert tangent(P.outer, P.diagonal)
assert concyclic(P.circumcircle_K, P.H)
"""


def test_parse_single_let():
    program = parse_script("let A = point(0,0)")
    assert len(program.statements) == 1
    stmt = program.statements[0]
    assert isinstance(stmt, Let) and stmt.name == "A"
    assert stmt.call.func == "point" and len(stmt.call.args) == 2


def test_parse_positions_and_comments():
    program = parse_script("# heading\n\nlet A = point(1/2, -3)  # trailing\nassert eq(1, 1)\n")
    assert [s.line for s in program.statements] == [3, 4]
    assert isinstance(program.statements[1], Assertion)


def test_parse_full_script():
    program = parse_script(P13_SCRIPT)
    assert len(program.statements) == 6
    lets = [s for s in program.statements if isinstance(s, Let)]
    assert [s.name for s in lets] == ["C1", "C2", "C3", "P"]


def test_unbound_name_position():
    with pytest.raises(UnboundName) as exc:
        parse_script("let G = parabola_latus(A, B, left)\nassert tangent(G, L)")
    assert exc.value.line == 1
    assert "'A'" in str(exc.value)


def test_duplicate_name():
    with pytest.raises(DuplicateName) as exc:
        parse_script("let A = point(0,0)\nlet A = point(1,1)")
    assert exc.value.line == 2


# Characters at which str.splitlines() breaks a line but a universal-newline
# read does not: inside a comment each stays part of that comment's line.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
def test_only_cr_and_lf_end_a_line(char):
    with pytest.raises(DuplicateName) as exc:
        parse_script(f"# caf{char} note\nlet A = point(0, 0)\nlet A = point(1, 1)\n")
    assert (exc.value.line, exc.value.col) == (3, 5)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_line_numbers_under_each_line_end(end):
    lines = ["# heading", "", "let A = point(1/2, -3)  # trailing", "assert eq(1, 1)", ""]
    assert [s.line for s in parse_script(end.join(lines)).statements] == [3, 4]
    with pytest.raises(DuplicateName) as exc:
        parse_script(end.join(["let A = point(0, 0)", "", "let A = point(1, 1)"]))
    assert (exc.value.line, exc.value.col) == (3, 5)


def test_unknown_constructor_and_predicate():
    with pytest.raises(UnknownConstructor):
        parse_script("let A = mystery(1, 2)")
    with pytest.raises(UnknownPredicate):
        parse_script("let A = point(0,0)\nassert mystery(A)")


@pytest.mark.parametrize(
    "source",
    [
        "let",
        "let A",
        "let A =",
        "let A = point(1, 2",
        "let A = point(1 2)",
        "let A = point(1, 2) extra",
        "assert",
        "point(1, 2)",
        "let left = point(0, 0)",
        "let A = point(1, 2); let B = point(0, 0)",
    ],
)
def test_syntax_errors(source):
    with pytest.raises(GeoSyntaxError):
        parse_script(source)


def test_arity_checked_at_parse_time():
    with pytest.raises(GeoSyntaxError) as exc:
        parse_script("let A = point(1, 2, 3)")
    assert "expects 2 arguments" in str(exc.value)


def test_evaluate_canonical_script():
    report = evaluate(parse_script(P13_SCRIPT))
    assert report.overall
    assert isinstance(report.bindings["P"], ParbelosFigure)
    assert [a.passed for a in report.assertions] == [True, True]


def test_evaluate_constructors():
    source = """\
let A = point(0, 0)
let B = point(4, 0)
let C = point(1, 0)
let L = line(A, B)
let M = perp(L, C)
let X = intersect(L, M)
assert eq(X, C)
let G = parabola_latus(A, B, left)
let TL = tangent_at(G, A)
assert tangent(G, TL)
let P = pedal(C, TL)
let E = point(1/2, -1/2)
assert eq(P, E)
"""
    report = evaluate(parse_script(source))
    assert report.overall
    assert report.bindings["X"] == point(1, 0)
    assert report.bindings["TL"] == Line(1, 1, 0)
    assert report.bindings["P"] == Point(F(1, 2), F(-1, 2))


def test_evaluate_eq_rationals():
    report = evaluate(parse_script("assert eq(1/2, 2/4)"))
    assert report.overall
    report = evaluate(parse_script("assert eq(1/2, 1/3)"))
    assert not report.overall


def test_second_intersect_and_circle2():
    source = """\
let F = point(2, 0)
let T2 = point(2, -2)
let K = circle2(F, T2, -1/2)
let C1 = point(0, 0)
let TL = line(C1, T2)
let H1 = second_intersect(TL, K, T2)
let T1 = point(1/2, -1/2)
assert eq(H1, T1)
"""
    report = evaluate(parse_script(source))
    assert report.overall
    assert report.bindings["K"] == Circle(Point(F(3, 2), F(-1)), F(5, 4))
    assert report.bindings["H1"] == Point(F(1, 2), F(-1, 2))


def test_eval_error_carries_position():
    source = "let A = point(0,0)\nlet B = point(1,1)\nlet C = point(2,2)\nlet K = circle3(A, B, C)"
    with pytest.raises(EvalError) as exc:
        evaluate(parse_script(source))
    assert exc.value.line == 4


def test_eval_type_error():
    with pytest.raises(EvalError):
        evaluate(parse_script("let A = point(0,0)\nlet B = point(1,0)\nlet L = line(A, B)\nlet X = intersect(A, L)"))


def test_dotted_access_and_aliases():
    source = """\
let C1 = point(0, 0)
let C2 = point(1, 0)
let C3 = point(4, 0)
let P = parbelos(C1, C2, C3, left)
let F = point(2, 0)
assert eq(P.focus_F, F)
assert eq(P.F, F)
assert eq(P.contact, P.contact_T)
assert eq(P.O, P.center_O)
assert concyclic(P.K, P.A1)
"""
    report = evaluate(parse_script(source))
    assert report.overall


def test_eq_on_the_square_has_its_corners_as_witness():
    """The one tuple field, square_R, gets a list witness like any other value."""
    source = (
        "let C1 = point(0, 0)\nlet C2 = point(1, 0)\nlet C3 = point(4, 0)\n"
        "let P = parbelos(C1, C2, C3, left)\n"
        "assert eq(P.square_R, P.square_R)\nassert eq(P.square_R, C1)\n"
    )
    report = evaluate(parse_script(source))
    corners = [
        {"x": "1/2", "y": "0"},
        {"x": "5/2", "y": "0"},
        {"x": "5/2", "y": "-2"},
        {"x": "1/2", "y": "-2"},
    ]
    same, other = report.assertions
    assert same.passed and expected_json(same.witness) == {"left": corners, "right": corners}
    assert not other.passed and expected_json(other.witness) == {"left": corners, "right": {"x": "0", "y": "0"}}
    dumps(report_json(report))


def test_unknown_figure_field():
    source = "let C1 = point(0,0)\nlet C2 = point(1,0)\nlet C3 = point(4,0)\nlet P = parbelos(C1, C2, C3, left)\nassert eq(P.nope, C1)"
    with pytest.raises(EvalError) as exc:
        evaluate(parse_script(source))
    assert exc.value.line == 5


def test_dotted_access_on_non_figure():
    with pytest.raises(EvalError):
        evaluate(parse_script("let A = point(0,0)\nlet B = point(1,0)\nassert eq(A.x, B)"))


def test_report_json_schema_and_determinism():
    program = parse_script(P13_SCRIPT)
    doc = report_json(evaluate(program))
    assert set(doc) == {"bindings", "assertions", "overall"}
    assert doc["overall"] is True
    entry = doc["assertions"][0]
    assert set(entry) == {"line", "pred", "pass", "witness"}
    assert entry["pred"] == "tangent(P.outer, P.diagonal)"
    assert expected_json(doc["bindings"]["C1"]) == {"x": "0", "y": "0"}
    # byte-identical across evaluations
    again = report_json(evaluate(parse_script(P13_SCRIPT)))
    assert dumps(doc) == dumps(again)


def test_witnesses_are_exact():
    report = evaluate(parse_script("let A = point(0,0)\nlet B = point(3,4)\nlet C = point(6,8)\nassert collinear(A, B, C)\nassert equidistant(B, A, C)"))
    coll, equi = report.assertions
    assert coll.passed and expected_json(coll.witness) == {"determinant": "0"}
    assert equi.passed and expected_json(equi.witness) == {"dist_sq_first": "25", "dist_sq_second": "25"}


def test_equidistant_verdict_is_the_kernel_predicate(monkeypatch):
    from parbelos import euclid
    from parbelos.dsl import PREDICATES

    kinds, verdict, witness = PREDICATES["equidistant"]
    assert verdict is euclid.equidistant
    source = "let A = point(0,0)\nlet B = point(3,4)\nlet C = point(6,8)\nassert equidistant(B, A, C)"
    assert evaluate(parse_script(source)).assertions[0].passed
    monkeypatch.setitem(PREDICATES, "equidistant", (kinds, lambda p, a, b: False, witness))
    result = evaluate(parse_script(source)).assertions[0]
    assert not result.passed
    assert expected_json(result.witness) == {"dist_sq_first": "25", "dist_sq_second": "25"}


# The two words the figure's statements added, on the canonical figure and
# with one of their points moved by (1, 0): the contact (1, -3/4) and T2 (2, -2).
NEW_WORDS_SCRIPT = P13_SCRIPT + """\
let Contact = point(2, -3/4)
let T2 = point(3, -2)
assert on_line(P.bisector, P.contact)
assert on_line(P.bisector, Contact)
assert square(P.square_R, P.O, P.C2, P.T1, P.T2, P.T3)
assert square(P.square_R, P.O, P.C2, P.T1, T2, P.T3)
"""


def test_on_line_and_square_hold_on_the_figure_and_fail_on_a_moved_point():
    on_line, moved_contact, square, moved_t2 = evaluate(parse_script(NEW_WORDS_SCRIPT)).assertions[2:]
    # The bisector is x - 1 = 0.
    assert on_line.passed and expected_json(on_line.witness) == {"value": "0"}
    assert not moved_contact.passed and expected_json(moved_contact.witness) == {"value": "1"}
    # R = (1/2, 0), (5/2, 0), (5/2, -2), (1/2, -2), centered at O = (3/2, -1).
    assert square.passed and expected_json(square.witness) == {
        "sides_sq": ["4", "4", "4", "4"],
        "corner_dots": ["0", "0", "0", "0"],
        "diagonal_midpoints": [{"x": "3/2", "y": "-1"}] * 4,
    }
    # The diagonal C2 T2 of r no longer has its midpoint at O.
    assert not moved_t2.passed
    assert expected_json(moved_t2.witness["diagonal_midpoints"][2]) == {"x": "2", "y": "-1"}
    assert expected_json(moved_t2.witness["sides_sq"]) == expected_json(square.witness["sides_sq"])


@pytest.mark.parametrize("literal", ["1/0", "-3/0", "7" * 4301, "1/" + "7" * 4301])
def test_bad_literal_is_a_syntax_error_at_its_position(literal):
    with pytest.raises(GeoSyntaxError) as exc:
        parse_script(f"let A = point(0, 0)\nassert eq(A, {literal})")
    assert (exc.value.line, exc.value.col) == (2, 14)
    assert len(str(exc.value)) < 100


@pytest.mark.parametrize("literal, col", [("\u0663", 14), ("1\u0663", 15)])
def test_non_ascii_digit_is_an_unexpected_character_at_its_column(literal, col):
    # ARABIC-INDIC THREE is a Unicode digit, but a literal is ASCII 0-9 only
    with pytest.raises(GeoSyntaxError) as exc:
        parse_script(f"let A = point(0, 0)\nassert eq(A, {literal})")
    assert str(exc.value) == f"line 2, col {col}: unexpected character '\u0663'"


# Valid literals whose products outgrow the 4300 digits Python prints.
WIDE = "9" * 3000
UNPRINTABLE_SCRIPTS = {
    # the collinear witness is a determinant of about 6000 digits
    "witness": f"let A = point(0, 0)\nlet B = point({WIDE}, 1)\nlet C = point(1, {WIDE})\n"
    "assert collinear(A, B, C)\n",
    # the circumcentre has a numerator of about 6000 digits
    "binding": f"let A = point(0, 0)\nlet B = point({WIDE}, 1)\nlet C = point(1, {WIDE})\n"
    "let K = circle3(A, B, C)\n",
    # the perpendicular witness is a plain int of about 6000 digits
    "int witness": f"let A = point(0, 0)\nlet B = point(1, {WIDE})\nlet C = point(-1, {WIDE})\n"
    "let L1 = line(A, B)\nlet L2 = line(A, C)\nassert perpendicular(L1, L2)\n",
    # the kernel's error names the cusp ratio t, of about 6000 digits
    "kernel message": f"let A = point(0, 0)\nlet B = point({WIDE}, 0)\nlet C = point(1/{WIDE}, 0)\n"
    "let P = parbelos(A, B, C, left)\n",
}


@pytest.mark.parametrize("source", UNPRINTABLE_SCRIPTS.values(), ids=list(UNPRINTABLE_SCRIPTS))
def test_unprintable_value_is_an_eval_error_at_its_statement(source):
    program = parse_script(source)
    with pytest.raises(EvalError) as exc:
        evaluate(program)
    stmt = program.statements[-1]
    assert (exc.value.line, exc.value.col) == (stmt.line, stmt.col)
    assert "more than 4300 digits" in str(exc.value)
    assert len(str(exc.value)) < 120


# Argument kinds of every constructor and predicate, written out here so the
# tables in the module are checked against an independent listing.
CONSTRUCTOR_KINDS = {
    "point": ("rational", "rational"),
    "line": ("point", "point"),
    "circle3": ("point", "point", "point"),
    "circle2": ("point", "point", "rational"),
    "parabola_latus": ("point", "point", "side"),
    "tangent_at": ("parabola", "point"),
    "pedal": ("point", "line"),
    "perp": ("line", "point"),
    "intersect": ("line", "line"),
    "second_intersect": ("line", "circle", "point"),
    "parbelos": ("point", "point", "point", "side"),
}

PREDICATE_KINDS = {
    "collinear": ("point", "point", "point"),
    "concyclic": ("circle", "point"),
    "on_parabola": ("parabola", "point"),
    "tangent": ("parabola", "line"),
    "equidistant": ("point", "point", "point"),
    "perpendicular": ("line", "line"),
    "on_line": ("line", "point"),
    "square": ("square", "point", "point", "point", "point", "point"),
    "eq": ("any", "any"),
}

SIGNATURES = [("let X = ", name, kinds) for name, kinds in CONSTRUCTOR_KINDS.items()] + [
    ("assert ", name, kinds) for name, kinds in PREDICATE_KINDS.items()
]

# One bound value of each kind; the preamble is 8 lines long.
KIND_PREAMBLE = """\
let Pa = point(0, 0)
let Pb = point(1, 0)
let Pc = point(0, 1)
let L = line(Pa, Pb)
let K = circle3(Pa, Pb, Pc)
let G = parabola_latus(Pa, Pb, left)
let Pd = point(4, 0)
let P = parbelos(Pa, Pb, Pd, left)
"""
GOOD_ARG = {
    "point": "Pa", "line": "L", "circle": "K", "parabola": "G", "rational": "1/2", "side": "left",
    "square": "P.square_R", "any": "Pa",
}


def test_signature_tables_match_listing():
    from parbelos.dsl import CONSTRUCTORS, PREDICATES

    assert {name: kinds for name, (kinds, _) in CONSTRUCTORS.items()} == CONSTRUCTOR_KINDS
    assert {name: kinds for name, (kinds, *_) in PREDICATES.items()} == PREDICATE_KINDS


@pytest.mark.parametrize("head, name, kinds", SIGNATURES, ids=[s[1] for s in SIGNATURES])
def test_wrong_kind_names_function_and_kind(head, name, kinds):
    for index, kind in enumerate(kinds):
        if kind == "any":
            continue
        bad, got = ("L", "line") if kind == "point" else ("Pa", "point")
        args = [bad if i == index else GOOD_ARG[k] for i, k in enumerate(kinds)]
        program = parse_script(KIND_PREAMBLE + f"{head}{name}({', '.join(args)})\n")
        with pytest.raises(EvalError) as exc:
            evaluate(program)
        expected = "side must be left or right" if kind == "side" else f"{name} expects a {kind}, got {got}"
        assert str(exc.value) == f"line 9, col {len(head) + 1}: {expected}"


@pytest.mark.parametrize(
    "statement, col, message",
    [
        ("let X = point(left, 0)", 9, "point expects a rational, got side"),
        ("let X = intersect(P, P)", 9, "intersect expects a line, got figure"),
        ("assert collinear(P.square_R, Pa, Pb)", 8, "collinear expects a point, got square"),
    ],
    ids=["side", "figure", "square"],
)
def test_wrong_kind_names_the_value_in_the_scripts_words(statement, col, message):
    with pytest.raises(EvalError) as exc:
        evaluate(parse_script(KIND_PREAMBLE + statement + "\n"))
    assert str(exc.value) == f"line 9, col {col}: {message}"


@pytest.mark.parametrize(
    "source, col",
    [("let A = point(", 15), ("let A = point(1,", 17)],
    ids=["after-open-paren", "after-comma"],
)
def test_end_of_line_where_an_argument_is_due_names_an_argument(source, col):
    with pytest.raises(GeoSyntaxError) as exc:
        parse_script(source)
    assert str(exc.value) == f"line 1, col {col}: unexpected end of line (expected an argument)"


@pytest.mark.parametrize("head, name, kinds", SIGNATURES, ids=[s[1] for s in SIGNATURES])
def test_wrong_count_is_a_syntax_error(head, name, kinds):
    for count in (len(kinds) - 1, len(kinds) + 1):
        args = ", ".join(["Pa"] * count)
        with pytest.raises(GeoSyntaxError) as exc:
            parse_script(KIND_PREAMBLE + f"{head}{name}({args})\n")
        assert f"{name} expects {len(kinds)} arguments, got {count}" in str(exc.value)


SCRIPT_NAMES = ("A", "B", "C", "D")

# Valid literals of 2000 to 4300 digits, whose products cannot be printed.
WIDE_LITERALS = st.one_of(
    st.builds(lambda digit, count: str(digit) * count, st.integers(1, 9), st.integers(2000, 4300)),
    st.builds("1/{}".format, st.integers(2000, 4300).map(lambda count: "7" * count)),
)

SMALL_LITERALS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
)

SCRIPT_ARGS = st.one_of(
    st.sampled_from(SCRIPT_NAMES),
    st.builds(
        "{}.{}".format,
        st.sampled_from(SCRIPT_NAMES),
        st.sampled_from(("T1", "outer", "diagonal", "F", "K", "square_R", "nope")),
    ),
    st.sampled_from(("left", "right")),
    SMALL_LITERALS,
    st.integers(-9, 9).map("{}/0".format),
    st.integers(4301, 4310).map(lambda digits: "3" * digits),
    WIDE_LITERALS,
)


# The ends of a line's tokens: literals, names and single punctuation marks.
TOKEN_ENDS = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|\S")


def ill_formed_lines(draw):
    """Statements of any row with arguments of any kind, count or spelling."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(sorted(CONSTRUCTOR_KINDS) + sorted(PREDICATE_KINDS)))
        arity = len(CONSTRUCTOR_KINDS.get(name) or PREDICATE_KINDS[name])
        count = arity if draw(st.integers(0, 4)) else draw(st.integers(0, 5))
        call = f"{name}({', '.join(draw(st.lists(SCRIPT_ARGS, min_size=count, max_size=count)))})"
        # One statement in ten puts a predicate after `let` or a constructor after `assert`.
        is_let = (name in CONSTRUCTOR_KINDS) != (draw(st.integers(0, 9)) == 0)
        line = f"let {draw(st.sampled_from(SCRIPT_NAMES))} = {call}" if is_let else f"assert {call}"
        # One line in two is cut at a token boundary, so it ends where more is due.
        if draw(st.booleans()):
            line = line[: draw(st.sampled_from([m.end() for m in TOKEN_ENDS.finditer(line)]))]
        lines.append(line)
    return lines


# The kind each constructor binds, and the fields a bound figure offers per kind.
CONSTRUCTOR_RESULTS = {
    "point": "point",
    "line": "line",
    "circle3": "circle",
    "circle2": "circle",
    "parabola_latus": "parabola",
    "tangent_at": "line",
    "pedal": "point",
    "perp": "line",
    "intersect": "point",
    "second_intersect": "point",
    "parbelos": "figure",
}
FIGURE_FIELDS = {
    "point": ("C1", "C3", "T1", "F", "contact"),
    "line": ("diagonal", "tangent_at_C1"),
    "circle": ("K",),
    "parabola": ("outer", "inner1"),
    "square": ("square_R",),
}


def well_typed_lines(draw):
    """Statements of rows whose arguments have the row's kinds.

    Each argument is an earlier binding of its kind (a figure's field among
    them), a small literal or a side, so a script fails only where the kernel
    refuses a construction.  A row's arguments of one kind are distinct
    bindings while there are enough of them.
    """
    bound = {kind: [] for kind in FIGURE_FIELDS}
    lines = []
    for i in range(draw(st.integers(1, 8))):
        every = [name for names in bound.values() for name in names]
        choices = {
            "rational": SMALL_LITERALS,
            "side": st.sampled_from(("left", "right")),
            "any": st.one_of(SMALL_LITERALS, *([st.sampled_from(every)] if every else [])),
            **{kind: st.sampled_from(names) for kind, names in bound.items() if names},
        }
        rows = [row for row in SIGNATURES if set(row[2]) <= set(choices)]
        head, name, kinds = draw(st.sampled_from(rows))
        unused = {kind: draw(st.permutations(names)) for kind, names in bound.items() if names}
        args = [unused[kind].pop() if unused.get(kind) else draw(choices[kind]) for kind in kinds]
        call = f"{name}({', '.join(args)})"
        if head.startswith("assert"):
            lines.append(f"assert {call}")
            continue
        lines.append(f"let X{i} = {call}")
        if CONSTRUCTOR_RESULTS[name] == "figure":
            for kind, fields in FIGURE_FIELDS.items():
                bound[kind] += [f"X{i}.{field}" for field in fields]
        else:
            bound[CONSTRUCTOR_RESULTS[name]].append(f"X{i}")
    return lines


@st.composite
def scripts(draw):
    """Well-typed scripts in three draws of four, the rest ill-formed."""
    lines = well_typed_lines(draw) if draw(st.integers(0, 3)) else ill_formed_lines(draw)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_any_script_ends_in_report_or_dsl_error(source):
    def check_position_and_words(exc: DslError) -> None:
        # An error points into its line or one column past its end, and
        # names what it expected and found in the script's words.
        assert 1 <= exc.col <= len(source.split("\n")[exc.line - 1]) + 1
        assert "None" not in str(exc)

    try:
        program = parse_script(source)
    except DslError as exc:
        check_position_and_words(exc)
        return
    try:
        report = evaluate(program)
    except DslError as exc:
        check_position_and_words(exc)
        return
    assert isinstance(report, EvalReport)
    dumps(report_json(report))


# Rows whose arguments can all be drawn without earlier bindings but points.
POINT_ROWS = [row for row in SIGNATURES if set(row[2]) <= {"point", "rational", "side"}]


@st.composite
def wide_scripts(draw):
    """Well-typed scripts over points with coordinates of up to 4300 digits."""
    coordinates = st.one_of(SMALL_LITERALS, WIDE_LITERALS)
    lines = [f"let P{i} = point({draw(coordinates)}, {draw(coordinates)})" for i in range(3)]
    choices = {
        "point": st.sampled_from(("P0", "P1", "P2")),
        "rational": coordinates,
        "side": st.sampled_from(("left", "right")),
    }
    rows = draw(st.lists(st.sampled_from(POINT_ROWS), min_size=1, max_size=3))
    for i, (head, name, kinds) in enumerate(rows):
        args = ", ".join(draw(choices[kind]) for kind in kinds)
        lines.append(f"{head.replace('X', f'X{i}')}{name}({args})")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(wide_scripts())
def test_wide_literal_scripts_end_in_printable_report_or_eval_error(source):
    program = parse_script(source)
    try:
        report = evaluate(program)
    except EvalError:
        return
    dumps(report_json(report))
