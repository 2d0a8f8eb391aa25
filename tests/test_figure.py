import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from parbelos.dsl import _FIGURE_ALIASES, _KINDS
from parbelos.errors import (
    CuspNotInterior,
    CuspsNotCollinear,
    DegenerateSide,
    GeometryError,
    InvalidRotation,
)
from parbelos.euclid import (
    Circle,
    Line,
    Point,
    _common,
    circumcircle,
    dist_sq,
    is_perpendicular,
    line_intersection,
    line_through,
    midpoint,
    on_circle,
    pedal_point,
    perpendicular_through,
    point,
)
from parbelos.figure import (
    COROLLARIES,
    NAMED_POINTS,
    PREDICATES,
    SONDOW,
    ParbelosFigure,
    _checks,
    build_parbelos,
    corollary_checks,
    similarity,
    sondow_checks,
)
from parbelos.fuzz import height_scale, rand_cusps
from parbelos.jsonio import figure_json, verification_json
from parbelos.parabola import (
    LEFT,
    RIGHT,
    contains_point,
    is_tangent,
    parabola_from_latus_rectum,
    tangent_at,
)
from parbelos.svg import _certified_arc, figure_scene
from parbelos.theorems import converse_lambert

F = Fraction


def xy(pair) -> Point:
    return Point(pair[0], pair[1])


def build_axis_aligned(a, b, side=LEFT):
    return build_parbelos(point(0, 0), Point(F(a), F(0)), Point(F(a) + F(b), F(0)), side)


P13 = build_axis_aligned(1, 3)


def holds(fig) -> bool:
    """Every statement of both tables holds on fig."""
    return all(ok for _, _, ok in sondow_checks(fig) + corollary_checks(fig))


def is_parallel(l1, l2) -> bool:
    """Reference parallelism of two lines: their normals are dependent."""
    return l1.a * l2.b - l2.a * l1.b == 0


def first_failure(checks):
    """The failure text of the first check that fails, or None."""
    return next((failure for _, failure, ok in checks if not ok), None)


def test_canonical_instance_against_closed_forms():
    """Frozen coordinates from the hand-derived closed forms at a=1, b=3."""
    forms = oracles.parbelos_closed_forms(1, 3)
    assert xy(forms["T1"]) == Point(F(1, 2), F(-1, 2)) == P13.T1
    assert xy(forms["T2"]) == Point(F(2), F(-2)) == P13.T2
    assert xy(forms["T3"]) == Point(F(5, 2), F(-3, 2)) == P13.T3
    assert xy(forms["F"]) == Point(F(2), F(0)) == P13.focus_F
    assert xy(forms["O"]) == Point(F(3, 2), F(-1)) == P13.center_O
    assert forms["radius_sq"] == F(5, 4) == P13.circumcircle_K.radius_sq
    assert P13.circumcircle_K.center == P13.center_O
    assert xy(forms["contact"]) == Point(F(1), F(-3, 4)) == P13.contact_T
    assert xy(forms["H"]) == Point(F(1), F(-2)) == P13.H
    assert xy(forms["A1"]) == Point(F(1, 2), F(-3, 2)) == P13.A1
    assert xy(forms["A3"]) == Point(F(5, 2), F(-1, 2)) == P13.A3
    assert P13.diagonal == Line(2, 4, 1)
    assert P13.square_R == (
        Point(F(1, 2), F(0)),
        Point(F(5, 2), F(0)),
        Point(F(5, 2), F(-2)),
        Point(F(1, 2), F(-2)),
    )


def test_canonical_instance_verifies():
    assert first_failure(sondow_checks(P13)) is None
    assert first_failure(corollary_checks(P13)) is None
    assert dist_sq(P13.focus_F, P13.contact_T) == dist_sq(P13.H, P13.contact_T) == F(25, 16)
    assert dist_sq(P13.focus_F, P13.T1) == F(5, 2) == dist_sq(P13.A1, P13.C2)


# The statements in order, (label, failure text) per group, listed apart
# from the tables.
STATEMENTS = {
    "sondow": [
        ("diagonal tangent to outer", "diagonal not tangent to outer"),
        ("contact on parabola", "contact not on parabola"),
        ("contact on bisector", "contact not on bisector"),
        ("FT equals HT", "FT differs from HT"),
        ("focus on circumcircle", "focus not on circumcircle"),
        ("R is a square centered with r", "R is not a square centered with r"),
    ],
    "corollaries": [
        ("F equidistant from T1 and T3", "F not equidistant from T1 and T3"),
        ("H on circumcircle", "H not on circumcircle"),
        ("H equidistant from T1 and T3", "H not equidistant from T1 and T3"),
        ("A1 and A3 on circumcircle", "A1 or A3 not on circumcircle"),
        ("A1 and A3 equidistant from C2 and T2", "A1 or A3 not equidistant from C2 and T2"),
    ],
}


def test_tables_match_listing():
    tables = {"sondow": SONDOW, "corollaries": COROLLARIES}
    checks = {"sondow": sondow_checks(P13), "corollaries": corollary_checks(P13)}
    json_checks = verification_json(P13)["checks"]
    assert list(json_checks) == list(STATEMENTS)
    for group, statements in STATEMENTS.items():
        assert [(label, failure) for label, failure, *_ in tables[group]] == statements
        assert [(label, failure) for label, failure, _ in checks[group]] == statements
        assert list(json_checks[group]) == [label for label, _ in statements]
    field_names = {field.name for field in dataclasses.fields(ParbelosFigure)}
    for _, _, key, *arguments in SONDOW + COROLLARIES:
        assert key in PREDICATES and arguments
        assert all(set(names) <= field_names for names in arguments)


def kind_of(value) -> str:
    """A value's kind in the construction language's words."""
    return next(kind for kind, cls in _KINDS.items() if isinstance(value, cls))


def test_each_row_names_a_predicate_whose_kinds_fit_its_fields():
    used = set()
    for label, _, key, *arguments in SONDOW + COROLLARIES:
        kinds = PREDICATES[key][0]
        for names in arguments:
            assert tuple(kind_of(getattr(P13, name)) for name in names) == kinds, label
        used.add(key)
    assert used == {"tangent", "on_parabola", "on_line", "equidistant", "concyclic", "square"}


def test_figure_paths_never_compute_a_witness(monkeypatch):
    """Witnesses are for a reader of an assertion: the figure's checks, its
    JSON, its drawing and the fuzz suites that run the statements read only
    the verdict column of the predicate table."""
    from parbelos import fuzz
    from parbelos.svg import figure_scene

    def no_witness(*args):
        raise AssertionError("a witness was computed")

    for key, (kinds, verdict, _) in list(PREDICATES.items()):
        monkeypatch.setitem(PREDICATES, key, (kinds, verdict, no_witness))
    assert holds(P13)
    assert verification_json(P13)["overall"] is True
    assert figure_scene(P13).points
    for suite in ("sondow+corollaries", "diagonal proof replay"):
        result = fuzz.run_suite(suite, 20, 0)
        assert result.cases == 20 and result.failures == []


P16 = build_axis_aligned(1, 5)
R1, R2, R3, R4 = P16.square_R

# One field changed per mutant of P16 (cusps (0,0), (1,0), (6,0)), with the
# labels of the statements that must fail on it, and no others.
MUTANTS = {
    "diagonal x=1": (
        {"diagonal": Line(1, 0, -1)},
        {"diagonal tangent to outer"},
    ),
    "contact_T moved": (
        {"contact_T": P16.contact_T + point(0, 1)},
        {"contact on parabola", "FT equals HT"},
    ),
    "bisector x=2": (
        {"bisector": Line(1, 0, -2)},
        {"contact on bisector"},
    ),
    "H moved": (
        {"H": P16.H + point(1, 0)},
        {"FT equals HT", "H on circumcircle", "H equidistant from T1 and T3"},
    ),
    "focus_F moved": (
        {"focus_F": P16.focus_F + point(1, 0)},
        {"FT equals HT", "focus on circumcircle", "F equidistant from T1 and T3"},
    ),
    "square_R[3] moved": (
        {"square_R": (R1, R2, R3, R4 + point(0, 1))},
        {"R is a square centered with r"},
    ),
    "A1 moved": (
        {"A1": P16.A1 + point(0, 1)},
        {"A1 and A3 on circumcircle", "A1 and A3 equidistant from C2 and T2"},
    ),
    "A3 moved": (
        {"A3": P16.A3 + point(0, 1)},
        {"A1 and A3 on circumcircle", "A1 and A3 equidistant from C2 and T2"},
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_exactly_its_statements(name):
    changes, failing = MUTANTS[name]
    mutant = dataclasses.replace(P16, **changes)
    checks = sondow_checks(mutant) + corollary_checks(mutant)
    assert {label for label, _, ok in checks if not ok} == failing


def test_every_statement_fails_under_some_mutant():
    failing = set().union(*(labels for _, labels in MUTANTS.values()))
    assert failing == {label for label, *_ in SONDOW + COROLLARIES}


def test_each_half_of_a_compound_row_can_fail_it():
    """A compound row tries its tuples of fields in order: moving A1 fails the
    first, moving A3 passes the first and fails the second."""
    compound = [row for row in COROLLARIES if len(row) > 4]
    assert [label for label, *_ in compound] == [
        "A1 and A3 on circumcircle",
        "A1 and A3 equidistant from C2 and T2",
    ]
    for _, _, key, *arguments in compound:
        predicate = PREDICATES[key][1]
        for k, name in enumerate(("A1", "A3")):
            changes, _ = MUTANTS[f"{name} moved"]
            mutant = dataclasses.replace(P16, **changes)
            verdicts = [predicate(*[getattr(mutant, n) for n in names]) for names in arguments]
            assert verdicts == [k != 0, k != 1]


def test_figure_certified_by_kernel_predicates():
    """Each derived value re-certified through an exact predicate."""
    assert P13.focus_F == P13.outer.focus
    assert contains_point(P13.outer, P13.contact_T)
    assert is_tangent(P13.outer, P13.diagonal)
    assert P13.outer.directrix.contains(P13.H)
    for p in (P13.C2, P13.T1, P13.T2, P13.T3, P13.focus_F, P13.H, P13.A1, P13.A3):
        assert on_circle(P13.circumcircle_K, p)


def test_symmetric_instance_contact_at_vertex():
    fig = build_axis_aligned(1, 1)
    assert fig.contact_T == fig.outer.vertex
    assert fig.bisector == fig.outer.axis
    assert holds(fig)


def test_shared_cusp_tangents():
    """Each outer-cusp tangent is also the inner parabola's tangent there."""
    assert P13.tangent_at_C1 == tangent_at(P13.inner1, P13.C1)
    assert P13.tangent_at_C3 == tangent_at(P13.inner2, P13.C3)


def reference_build(c1, c2, c3, side=LEFT):
    """The figure through kernel operations, as ``build_parbelos`` built it
    before its integer frame: the tangents at the cusps by ``tangent_at``,
    T1, T2 and T3 as their intersections, the square from the cusp line's
    parallel and perpendiculars, F as a pedal and O as a midpoint.  A bad
    side is refused by ``parabola_from_latus_rectum``, after the cusps pass."""
    if c1 == c3:
        raise CuspNotInterior("outer cusps coincide")
    _, [(ux, uy), (vx, vy)] = _common(c2 - c1, c3 - c1)
    if ux * vy - uy * vx != 0:
        raise CuspsNotCollinear("{}, {}, {} are not collinear", c1, c2, c3)
    uv, vv = ux * vx + uy * vy, vx * vx + vy * vy
    if not 0 < uv < vv:
        raise CuspNotInterior("C2 must lie strictly between C1 and C3 (got t={})", F(uv, vv))
    inner1 = parabola_from_latus_rectum(c1, c2, side)
    inner2 = parabola_from_latus_rectum(c2, c3, side)
    outer = parabola_from_latus_rectum(c1, c3, side)
    tangent_at_c1 = tangent_at(outer, c1)
    tangent_at_c3 = tangent_at(outer, c3)
    tangent_at_c2_left = tangent_at(inner1, c2)
    tangent_at_c2_right = tangent_at(inner2, c2)
    t1 = line_intersection(tangent_at_c1, tangent_at_c2_left)
    t3 = line_intersection(tangent_at_c3, tangent_at_c2_right)
    t2 = line_intersection(tangent_at_c1, tangent_at_c3)
    cusp_line = line_through(c1, c3)
    side_t2 = Line(cusp_line.a, cusp_line.b, -(t2.x * cusp_line.a + t2.y * cusp_line.b))
    side_t1 = perpendicular_through(cusp_line, t1)
    side_t3 = perpendicular_through(cusp_line, t3)
    square = (
        line_intersection(side_t1, cusp_line),
        line_intersection(side_t3, cusp_line),
        line_intersection(side_t3, side_t2),
        line_intersection(side_t1, side_t2),
    )
    diagonal = line_through(t1, t3)
    bisector = perpendicular_through(cusp_line, c2)
    return ParbelosFigure(
        C1=c1,
        C2=c2,
        C3=c3,
        inner1=inner1,
        inner2=inner2,
        outer=outer,
        tangent_at_C1=tangent_at_c1,
        tangent_at_C3=tangent_at_c3,
        tangent_at_C2_left=tangent_at_c2_left,
        tangent_at_C2_right=tangent_at_c2_right,
        T1=t1,
        T2=t2,
        T3=t3,
        square_R=square,
        center_O=midpoint(c2, t2),
        circumcircle_K=circumcircle(c2, t1, t2),
        focus_F=pedal_point(t2, cusp_line),
        diagonal=diagonal,
        contact_T=line_intersection(diagonal, bisector),
        bisector=bisector,
        H=line_intersection(bisector, outer.directrix),
        A1=line_intersection(inner1.axis, inner2.directrix),
        A3=line_intersection(inner2.axis, inner1.directrix),
    )


def seeded_cusps(rng, bits):
    """C1, C2 = C1 + t*d and C3 = C1 + d, with C1, d and t of about ``bits``
    bits and d slanted (both components nonzero)."""

    def coordinate():
        return F(rng.choice((-1, 1)) * rng.randint(1, 2**bits), rng.randint(1, 2**bits))

    c1, d = Point(coordinate(), coordinate()), Point(coordinate(), coordinate())
    m = rng.randint(2, 2**bits)
    t = F(rng.randint(1, m - 1), m)
    return c1, Point(c1.x + t * d.x, c1.y + t * d.y), c1 + d


@pytest.mark.parametrize("bits, count", [(13, 40), (3300, 3)])
def test_build_matches_reference_build(bits, count):
    """The integer frame gives the kernel construction's figure, field by
    field; each cusp tangent is its own parabola's tangent at that cusp, and
    T1, T2 and T3 are where those tangents meet."""
    rng = random.Random(bits)
    for _ in range(count):
        cusps = seeded_cusps(rng, bits)
        for side in (LEFT, RIGHT):
            fig = build_parbelos(*cusps, side)
            reference = reference_build(*cusps, side)
            for field in dataclasses.fields(ParbelosFigure):
                assert getattr(fig, field.name) == getattr(reference, field.name), field.name
            assert fig.tangent_at_C1 == tangent_at(fig.outer, fig.C1)
            assert fig.tangent_at_C3 == tangent_at(fig.outer, fig.C3)
            assert fig.tangent_at_C2_left == tangent_at(fig.inner1, fig.C2)
            assert fig.tangent_at_C2_right == tangent_at(fig.inner2, fig.C2)
            assert fig.T1 == line_intersection(fig.tangent_at_C1, fig.tangent_at_C2_left)
            assert fig.T2 == line_intersection(fig.tangent_at_C1, fig.tangent_at_C3)
            assert fig.T3 == line_intersection(fig.tangent_at_C3, fig.tangent_at_C2_right)


def test_rectangle_right_angles():
    assert is_perpendicular(P13.tangent_at_C2_left, P13.tangent_at_C2_right)
    assert is_perpendicular(P13.tangent_at_C1, P13.tangent_at_C2_left)
    assert is_perpendicular(P13.tangent_at_C3, P13.tangent_at_C2_right)
    assert is_parallel(P13.tangent_at_C1, P13.tangent_at_C2_right)
    assert is_parallel(P13.tangent_at_C3, P13.tangent_at_C2_left)


def test_square_sides_are_axes_and_directrix():
    """R is bounded by the inner axes, the cusp line, and the outer directrix."""
    r1, r2, r3, r4 = P13.square_R
    assert line_through(r1, r2) == line_through(P13.C1, P13.C3)
    assert line_through(r3, r4) == P13.outer.directrix
    sides = {line_through(r2, r3), line_through(r4, r1)}
    assert sides == {P13.inner1.axis, P13.inner2.axis}


def test_build_rejects_bad_cusps():
    with pytest.raises(CuspsNotCollinear):
        build_parbelos(point(0, 0), point(1, 1), point(4, 0), LEFT)
    with pytest.raises(CuspNotInterior):
        build_parbelos(point(0, 0), point(0, 0), point(4, 0), LEFT)
    with pytest.raises(CuspNotInterior):
        build_parbelos(point(0, 0), point(5, 0), point(4, 0), LEFT)
    with pytest.raises(CuspNotInterior):
        build_parbelos(point(0, 0), point(4, 0), point(4, 0), LEFT)
    with pytest.raises(CuspNotInterior):
        build_parbelos(point(0, 0), point(1, 0), point(0, 0), LEFT)
    with pytest.raises(DegenerateSide):
        build_parbelos(point(0, 0), point(1, 0), point(4, 0), "up")
    # The side is checked in one place, where the latus rectum is built, so
    # bad cusps are refused first.
    with pytest.raises(CuspsNotCollinear):
        build_parbelos(point(0, 0), point(1, 1), point(4, 0), "up")


BAD_CUSPS = [
    (point(0, 0), point(1, 1), point(4, 0), LEFT),
    (point(0, 0), point(0, 0), point(4, 0), LEFT),
    (point(0, 0), point(5, 0), point(4, 0), LEFT),
    (point(0, 0), point(4, 0), point(4, 0), LEFT),
    (point(0, 0), point(1, 0), point(0, 0), LEFT),
    (point(0, 0), point(1, 0), point(4, 0), "up"),
    (point(1, 1), point(2, 5), point(1, 1), "up"),
    (point(1, 1), point(2, 5), point(1, 1), RIGHT),
    (Point(F(1, 3), F(2, 7)), Point(F(4, 3), F(-5, 7)), Point(F(7, 3), F(-11, 7)), RIGHT),
    (Point(F(1, 3), F(2, 7)), Point(F(-2, 3), F(9, 7)), Point(F(7, 3), F(-12, 7)), RIGHT),
]


@pytest.mark.parametrize("cusps", BAD_CUSPS)
def test_build_errors_match_reference_build(cusps):
    """Bad cusps raise the kernel construction's error class and message."""
    with pytest.raises(Exception) as expected:
        reference_build(*cusps)
    with pytest.raises(expected.type) as raised:
        build_parbelos(*cusps)
    assert type(raised.value) is expected.type
    assert str(raised.value) == str(expected.value)


def test_mutated_contact_fails_with_detail():
    mutated = dataclasses.replace(P13, contact_T=point(1, -1))
    assert first_failure(sondow_checks(mutated)) == "contact not on parabola"


def test_mutated_a1_fails_corollaries():
    # on a wider instance the shifted point leaves the circumcircle (item 4)
    fig = build_axis_aligned(1, 5)
    mutated = dataclasses.replace(fig, A1=fig.A1 + point(0, 1))
    assert first_failure(corollary_checks(mutated)) == "A1 or A3 not on circumcircle"
    # on the canonical instance the same shift happens to land on T1, which is
    # on the circle, so the equidistance check (item 5) is what trips instead
    mutated = dataclasses.replace(P13, A1=P13.A1 + point(0, 1))
    assert first_failure(corollary_checks(mutated)) == "A1 or A3 not equidistant from C2 and T2"


def test_mutated_square_fails():
    r1, r2, r3, r4 = P13.square_R
    mutated = dataclasses.replace(P13, square_R=(r1, r2, r3, r4 + point(0, 1)))
    assert first_failure(sondow_checks(mutated)) == "R is not a square centered with r"


def test_axis_aligned_family_1000_instances():
    """Random positive (a, b) of bounded height: the closed forms match, the
    tangency and corollary checks all pass, and the rectangle angles hold."""
    rng = random.Random(61)
    for _ in range(1000):
        a = F(rng.randint(1, 60), rng.randint(1, 20))
        b = F(rng.randint(1, 60), rng.randint(1, 20))
        fig = build_parbelos(point(0, 0), Point(a, F(0)), Point(a + b, F(0)), LEFT)
        forms = oracles.parbelos_closed_forms(a, b)
        assert fig.contact_T == xy(forms["contact"])
        assert fig.T1 == xy(forms["T1"])
        assert fig.T2 == xy(forms["T2"])
        assert fig.T3 == xy(forms["T3"])
        assert fig.focus_F == xy(forms["F"])
        assert fig.center_O == xy(forms["O"])
        assert fig.circumcircle_K.radius_sq == forms["radius_sq"]
        assert fig.H == xy(forms["H"])
        assert fig.A1 == xy(forms["A1"])
        assert fig.A3 == xy(forms["A3"])
        assert dist_sq(fig.focus_F, fig.contact_T) == forms["FT_sq"]
        assert all(ok for _, _, ok in sondow_checks(fig) + corollary_checks(fig))
        assert is_perpendicular(fig.tangent_at_C2_left, fig.tangent_at_C2_right)
        assert is_perpendicular(fig.tangent_at_C1, fig.tangent_at_C2_left)
        assert is_perpendicular(fig.tangent_at_C3, fig.tangent_at_C2_right)


def slanted_cusps():
    """(C1, C3, t) with C1, C3 on a line of any slope and 0 < t < 1."""
    coordinates = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    xys = st.tuples(coordinates, coordinates)
    unit = st.integers(2, 10**4).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: F(n, d)))
    return st.tuples(xys, xys, unit).filter(lambda draw: draw[0] != draw[1])


@settings(max_examples=100, deadline=None)
@given(slanted_cusps(), st.sampled_from((LEFT, RIGHT)))
def test_figure_matches_closed_forms_on_every_cusp_line(cusps, side):
    """The kernel's figure against the closed forms moved onto the cusp line."""
    (x1, y1), (x3, y3), t = cusps
    c1, c3 = Point(x1, y1), Point(x3, y3)
    c2 = Point(x1 + t * (x3 - x1), y1 + t * (y3 - y1))
    fig = build_parbelos(c1, c2, c3, side)
    forms = oracles.transported_closed_forms((x1, y1), (x3, y3), t, side)
    for name, field in NAMED_POINTS[3:]:
        assert getattr(fig, field) == xy(forms[name]), name
    assert fig.circumcircle_K.radius_sq == forms["radius_sq"]
    assert dist_sq(fig.focus_F, fig.contact_T) == forms["FT_sq"]
    # The outer cusp tangents are the inner parabolas' too, so T1 pairs C1
    # with C2-left at a right angle, and T3 pairs C3 with C2-right.
    assert fig.tangent_at_C1 == tangent_at(fig.inner1, fig.C1)
    assert fig.tangent_at_C3 == tangent_at(fig.inner2, fig.C3)
    assert is_perpendicular(fig.tangent_at_C1, fig.tangent_at_C2_left)


def test_similarity_examples():
    turn = similarity(point(3, 4), point(0, 0))  # z -> (3 + 4i) z
    assert turn(point(1, 0)) == point(3, 4)
    assert turn(point(0, 1)) == point(-4, 3)
    assert turn((point(1, 0), point(0, 0))) == (point(3, 4), point(0, 0))
    halve = similarity(Point(F(1, 2), F(0)), point(1, 1))
    assert halve(point(4, 0)) == point(3, 1)
    assert halve(Circle(point(0, 0), F(4))) == Circle(point(1, 1), F(1))
    # |1 + i| = sqrt(2) is irrational; the image is rational all the same.
    tilt = similarity(point(1, 1), Point(F(1, 3), F(0)))
    assert tilt(Line(0, 1, 0)) == line_through(tilt(point(0, 0)), tilt(point(1, 0)))
    assert tilt(Circle(point(1, 0), F(1, 2))) == Circle(Point(F(4, 3), F(1)), F(1))
    parabola = P13.outer
    moved = tilt(parabola)
    assert moved.focus == tilt(parabola.focus)
    assert moved.directrix == tilt(parabola.directrix)
    for bad in (point(0, 0), Point(F(0), F(0, 5))):
        with pytest.raises(InvalidRotation, match="nonzero multiplier"):
            similarity(bad, point(1, 1))


def test_figure_commutes_with_similarity():
    """build_parbelos(T(cusps)) == T(build_parbelos(cusps)), every field, both sides."""
    maps = [
        (point(3, 4), point(0, 0)),
        (point(2, -1), point(-3, 7)),
        (Point(F(1, 3), F(5, 7)), Point(F(1, 2), F(9, 7))),
        (point(-1, 0), point(0, 0)),
    ]
    for side in (LEFT, RIGHT):
        fig = build_axis_aligned(1, 3, side)
        for m, shift in maps:
            t = similarity(m, shift)
            moved = build_parbelos(t(fig.C1), t(fig.C2), t(fig.C3), side)
            assert moved == t(fig)
            assert holds(moved)


def test_converse_lambert_replays_diagonal():
    constructed, report = converse_lambert(
        P13.outer, P13.tangent_at_C1, P13.tangent_at_C3, P13.circumcircle_K
    )
    assert constructed == P13.diagonal == Line(2, 4, 1)
    assert report.verdict


def test_right_side_mirror():
    fig = build_parbelos(point(0, 0), point(1, 0), point(4, 0), RIGHT)
    assert fig.T2 == point(2, 2)
    assert fig.contact_T == Point(F(1), F(3, 4))
    assert holds(fig)


def test_cusps_off_axis():
    """Cusps on a slanted line: everything still verifies, predicates exact."""
    base, step = point(3, -2), Point(F(2, 3), F(1, 5))
    c2 = base + step
    c3 = base + step + step + step
    for side in (LEFT, RIGHT):
        fig = build_parbelos(base, c2, c3, side)
        assert first_failure(sondow_checks(fig)) is None
        assert first_failure(corollary_checks(fig)) is None
        assert is_perpendicular(fig.bisector, line_through(fig.C1, fig.C3))
        assert is_parallel(fig.outer.directrix, line_through(fig.C1, fig.C3))


def test_figure_json_fields():
    doc = figure_json(P13)
    assert doc["T1"] == {"x": "1/2", "y": "-1/2"}
    assert doc["contact_T"] == {"x": "1", "y": "-3/4"}
    assert doc["circumcircle_K"] == {
        "center": {"x": "3/2", "y": "-1"},
        "radius_sq": "5/4",
    }
    assert doc["diagonal"] == {"a": 2, "b": 4, "c": 1}
    assert len(doc["square_R"]) == 4
    expected_fields = set(type(P13).__dataclass_fields__)
    assert expected_fields <= set(doc)
    verified = verification_json(P13)
    assert verified["overall"] is True
    assert set(verified["checks"]) == {"sondow", "corollaries"}
    assert all(verified["checks"]["sondow"].values())
    assert all(verified["checks"]["corollaries"].values())


def test_named_points_listing_and_dsl_aliases():
    assert NAMED_POINTS == (
        ("C1", "C1"),
        ("C2", "C2"),
        ("C3", "C3"),
        ("T1", "T1"),
        ("T2", "T2"),
        ("T3", "T3"),
        ("F", "focus_F"),
        ("O", "center_O"),
        ("contact", "contact_T"),
        ("H", "H"),
        ("A1", "A1"),
        ("A3", "A3"),
    )
    fields = {f.name for f in dataclasses.fields(ParbelosFigure)}
    assert {field for _, field in NAMED_POINTS} <= fields
    assert set(_FIGURE_ALIASES.values()) <= fields


# --- the figure's frame: denominator bounds, and the checks and arcs on it ---

TWO_W_FIELDS = ("T1", "T2", "T3", "focus_F", "H", "A1", "A3")


def cusp_frame(fig):
    """W and |V|^2 for V = P3 - P1, the cusps' integer difference over W."""
    w, [p1, _, p3] = _common(fig.C1, fig.C2, fig.C3)
    return w, (p3[0] - p1[0]) ** 2 + (p3[1] - p1[1]) ** 2


def bounded_points(fig):
    """(name, point, bound) for each bounded point of the figure."""
    w, vv = cusp_frame(fig)
    named = [(name, getattr(fig, name), 2 * w) for name in TWO_W_FIELDS]
    corners = [(f"square_R[{k}]", r, 2 * w) for k, r in enumerate(fig.square_R)]
    return named + corners + [("center_O", fig.center_O, 4 * w), ("contact_T", fig.contact_T, w * vv)]


def divides(p: Point, bound: int) -> bool:
    return bound % p.x.denominator == 0 and bound % p.y.denominator == 0


def moved(p: Point, step: Fraction) -> Point:
    return Point(p.x + step, p.y)


def drawn_cusps(bits, seed, general):
    """A cusp triple of about ``bits`` bits: from ``fuzz.rand_cusps`` (cusp
    lines with small directions), or with a general rational direction."""
    rng = random.Random(seed)
    if general:
        return seeded_cusps(rng, bits)
    max_height = 10**4 if bits == 13 else 10**1000
    return rand_cusps(rng, height_scale(max_height))[:3]


@pytest.mark.parametrize("bits", (13, 3300))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), general=st.booleans())
def test_every_field_divides_its_denominator_bound(bits, seed, general):
    """Over W, the cusps' shared denominator: T1, T2, T3, F, H, A1, A3 and the
    square's corners divide 2W, O divides 4W, K's squared radius 16W^2 and
    the contact W*|V|^2.  A point moved by 1/(2W + 1) breaks a 2W or 4W
    bound, and one moved by 1/(W*|V|^2 + 1) the contact's."""
    cusps = drawn_cusps(bits, seed, general)
    for side in (LEFT, RIGHT):
        fig = build_parbelos(*cusps, side)
        w, vv = cusp_frame(fig)
        assert (16 * w * w) % fig.circumcircle_K.radius_sq.denominator == 0
        assert (16 * w * w) % (fig.circumcircle_K.radius_sq + F(1, 2 * w + 1)).denominator
        for name, p, bound in bounded_points(fig):
            assert divides(p, bound), name
            step = F(1, w * vv + 1) if name == "contact_T" else F(1, 2 * w + 1)
            assert not divides(moved(p, step), bound), name


def reference_verdicts(fig, table):
    """Each row's verdict from the public predicates alone, each on its own ``_common``."""
    return [
        all(PREDICATES[key][1](*[getattr(fig, name) for name in names]) for names in arguments)
        for _, _, key, *arguments in table
    ]


ARCS = (("inner1", "C1", "T1", "C2"), ("inner2", "C2", "T3", "C3"), ("outer", "C1", "T2", "C3"))


def outcome(draw):
    """The arcs a drawing returns, or the class and message of what it raised."""
    try:
        return draw()
    except GeometryError as exc:
        return type(exc), str(exc)


def point_mutants(fig, step):
    """(point name, figure) with that one point of fig moved by ``step``."""
    for name in ("C1", "C2", "C3", *TWO_W_FIELDS, "center_O", "contact_T"):
        yield name, dataclasses.replace(fig, **{name: moved(getattr(fig, name), step)})
    for k, r in enumerate(fig.square_R):
        corners = tuple(moved(c, step) if j == k else c for j, c in enumerate(fig.square_R))
        yield f"square_R[{k}]", dataclasses.replace(fig, square_R=corners)
    center, radius_sq = fig.circumcircle_K.center, fig.circumcircle_K.radius_sq
    yield "K's center", dataclasses.replace(fig, circumcircle_K=Circle(moved(center, step), radius_sq))
    for name in ("inner1", "outer"):
        g = getattr(fig, name)
        moved_focus = type(g)(moved(g.focus, step), g.directrix)
        yield f"{name}'s focus", dataclasses.replace(fig, **{name: moved_focus})


def shifted(line: Line, step: Fraction) -> Line:
    """``line`` moved along its normal: a*x + b*y + c grows by ``step`` times
    M = gcd(a, b).  Over a frame of denominator D, a step of 1/D adds 1 to the
    offset of the line's form (a/M, b/M, c*D/M), and a step of 1/(D + 1)
    leaves the line without a form (M divides D, so it shares no factor with
    D + 1)."""
    return Line(line.a, line.b, line.c + step * math.gcd(line.a, line.b))


# The shared cusp tangent at C1, as a row of the tests alone: no statement of
# the figure reads it, so its mutants fail here.
CUSP_TANGENT = (
    (
        "C1's tangent touches outer and inner1",
        "C1's tangent misses outer or inner1",
        "tangent",
        ("outer", "tangent_at_C1"),
        ("inner1", "tangent_at_C1"),
    ),
)


def line_mutants(fig, step):
    """(field name, figure) with that one line field of fig, or that
    parabola's directrix, moved by :func:`shifted`."""
    for name in ("diagonal", "tangent_at_C1"):
        yield name, dataclasses.replace(fig, **{name: shifted(getattr(fig, name), step)})
    for name in ("inner1", "inner2", "outer"):
        g = getattr(fig, name)
        moved_directrix = type(g)(g.focus, shifted(g.directrix, step))
        yield name, dataclasses.replace(fig, **{name: moved_directrix})


@pytest.mark.parametrize("bits, general, seeds", [(13, True, 4), (13, False, 4), (3300, False, 1)])
def test_frame_decides_like_the_public_predicates(bits, general, seeds):
    """Every row's verdict and every arc's outcome on the figure's 4W frame is
    what the public predicate or ``_certified_arc`` gives on its own
    ``_common``: on seeded figures, and on mutants with one point moved
    inside the frame (by 1/4W) or outside it (by 1/(4W + 1)), or one line
    shifted inside it (its form's offset + 1) or outside it."""
    for seed in range(seeds):
        cusps = drawn_cusps(bits, seed, general)
        for side in (LEFT, RIGHT):
            fig = build_parbelos(*cusps, side)
            d, forms = fig.frame
            assert d == 4 * cusp_frame(fig)[0]
            every_field = {field.name for field in dataclasses.fields(ParbelosFigure)}
            assert every_field - {"contact_T"} <= set(forms)
            cases = [("figure", fig)]
            for where, step in (("inside", F(1, d)), ("outside", F(1, d + 1))):
                cases += [(f"{name} moved {where}", mutant) for name, mutant in point_mutants(fig, step)]
                for name, mutant in line_mutants(fig, step):
                    assert (name in mutant.frame[1]) == (where == "inside"), name
                    cases.append((f"{name}'s line shifted {where}", mutant))
            for label, figure in cases:
                verdicts = []
                for table, checks in (
                    (SONDOW, sondow_checks),
                    (COROLLARIES, corollary_checks),
                    (CUSP_TANGENT, lambda f: _checks(f, CUSP_TANGENT)),
                ):
                    verdicts += [ok for _, _, ok in checks(figure)]
                    assert verdicts[-len(table):] == reference_verdicts(figure, table), label
                reference = outcome(
                    lambda: [_certified_arc(*(getattr(figure, name) for name in arc)) for arc in ARCS]
                )
                arcs = outcome(lambda: figure_scene(figure).arcs)
                assert arcs == reference, label
                # the figure holds, and every mutant fails a row or its drawing
                assert (all(verdicts) and type(arcs) is list) == (figure is fig), label


def test_mutant_in_and_out_of_the_frame():
    """A point moved by 1/4W has a form in the mutant's frame, one moved by
    1/(4W + 1) has none, and the mutant's frame is its own; likewise a line
    shifted by one unit of its form's offset, or by D/(D + 1) of one."""
    d, forms = P16.frame
    inside = dataclasses.replace(P16, H=moved(P16.H, F(1, d)))
    outside = dataclasses.replace(P16, H=moved(P16.H, F(1, d + 1)))
    assert "H" in forms and "H" in inside.frame[1] and "H" not in outside.frame[1]
    assert inside.frame[1]["H"] == (forms["H"][0] + 1, forms["H"][1])
    assert "contact_T" not in build_axis_aligned(2, 5).frame[1]
    # A line's form is its primitive normal and its offset over D.
    a, b, c = forms["diagonal"]
    assert math.gcd(a, b) == 1
    assert all(a * x + b * y + c == 0 for x, y in (forms["T1"], forms["T3"]))
    inside = dataclasses.replace(P16, diagonal=shifted(P16.diagonal, F(1, d)))
    outside = dataclasses.replace(P16, diagonal=shifted(P16.diagonal, F(1, d + 1)))
    assert inside.frame[1]["diagonal"] == (a, b, c + 1)
    assert "diagonal" not in outside.frame[1]


def test_frame_leaves_equality_hash_and_pickling_alone():
    fig = build_axis_aligned(2, 5)
    before = pickle.dumps(fig)
    assert fig.frame  # derived and cached
    assert pickle.dumps(fig) == before
    copy = pickle.loads(before)
    assert copy == fig and hash(copy) == hash(fig)
    assert [f.name for f in dataclasses.fields(ParbelosFigure)] == list(vars(copy))
    assert copy.frame == fig.frame
