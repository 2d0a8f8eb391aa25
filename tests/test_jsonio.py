"""The JSON writer against the contract it keeps: ``jsonio.dumps(v)`` is
exactly ``json.dumps(expected_json(v), indent=2)``, errors included, where
``oracles.expected_json`` names each kind's keys itself and reads no table
of the package.

Covered: every kernel kind, whole figures at about 13 and 3300 bits on both
sides, the DSL's reports, nested and empty containers, the JSON constants
next to the ints they equal, and keys and strings with non-ASCII and control
characters.
"""

import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from parbelos.dsl import evaluate, parse_script, report_json
from parbelos.euclid import Circle, Line, Point
from parbelos.figure import build_parbelos
from parbelos.fuzz import rand_cusps
from parbelos.jsonio import _Digits, dumps, verification
from parbelos.parabola import LEFT, RIGHT, parabola_from_latus_rectum

HEIGHTS = (13, 3300)
SETTINGS = settings(max_examples=40, deadline=None)


def reference(value) -> str:
    return json.dumps(oracles.expected_json(value), indent=2)


def outcome(write, value):
    """What ``write(value)`` gives: its text, or the type of the error it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


def ints(bits):
    return st.integers(-(2**bits), 2**bits)


def rationals(bits):
    return st.builds(Fraction, ints(bits), st.integers(1, 2**bits))


def points(bits):
    return st.builds(Point, rationals(bits), rationals(bits))


def lines(bits):
    triples = st.tuples(ints(bits), ints(bits), ints(bits)).filter(lambda abc: abc[:2] != (0, 0))
    return triples.map(lambda abc: Line(*abc))


def circles(bits):
    return st.builds(Circle, points(bits), rationals(bits).filter(lambda r: r > 0))


def parabolas(bits):
    ends = st.tuples(points(bits), points(bits)).filter(lambda pq: pq[0] != pq[1])
    return st.builds(lambda pq, side: parabola_from_latus_rectum(*pq, side), ends, st.sampled_from((LEFT, RIGHT)))


def kernel_values(bits):
    return st.one_of(points(bits), lines(bits), circles(bits), parabolas(bits), rationals(bits))


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from((0, 1, -1)),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    rationals(13),
    kernel_values(13),
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=20,
)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_every_kernel_kind_writes_its_json_form(bits, data):
    """A tall parabola's directrix may hold an int too long to print: both raise then."""
    value = data.draw(kernel_values(bits))
    for nested in (value, [value, (value,)], {"v": value}):
        assert outcome(dumps, nested) == outcome(reference, nested)


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_whole_figures_write_their_json_form(bits, seed):
    c1, c2, c3, _ = rand_cusps(random.Random(seed), 2**bits)
    for side in (LEFT, RIGHT):
        fig = build_parbelos(c1, c2, c3, side)
        assert dumps(fig) == reference(fig)
        assert dumps(verification(fig)) == reference(verification(fig))


@SETTINGS
@given(value=TREES)
def test_nested_values_write_their_json_form(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"": {}, "a": [], "b": (), "c": [{}, [], ()]},
        {"true": True, "one": 1, "false": False, "zero": 0, "none": None, "minus": -7},
        [True, 1, False, 0, None, -(10**40)],
        {"café → \U0001d400": "\x00\x1f\"\\\n\t ", "\x7f": ["\ud800", "ÿ"]},
        [Fraction(-3, 4), Fraction(5), Point(Fraction(1, 2), Fraction(-2)), Line(2, 4, 1)],
        [Point(3, -5), Circle(Point(0, 1), 4)],  # int members, written "p/q" all the same
    ],
)
def test_edge_values_write_their_json_form(value):
    assert dumps(value) == reference(value)


def test_int_members_of_a_point_or_circle_keep_their_rational_form():
    assert json.loads(dumps(Circle(Point(3, -5), 4))) == {"center": {"x": "3", "y": "-5"}, "radius_sq": "4"}


def test_dsl_reports_write_their_json_form():
    source = resources.files("parbelos").joinpath("data/sondow.geo").read_text(encoding="utf-8")
    no_assertion = "let A = point(0, 0)\nlet B = point(1, 2)\nlet L = line(A, B)\n"
    for script in (source, no_assertion):
        doc = report_json(evaluate(parse_script(script)))
        assert dumps(doc) == reference(doc)
    assert '"assertions": []' in dumps(doc)


@pytest.mark.parametrize("value", [1.5, {1, 2}, [0, 0.0], {"a": {"b": frozenset()}}, {1: "x"}, object()])
def test_a_value_without_json_form_raises_type_error(value):
    assert outcome(dumps, value) is TypeError
    assert outcome(reference, value) is TypeError


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on printed digits")
def test_an_int_past_the_digit_limit_raises_value_error():
    limit = sys.get_int_max_str_digits()
    for value in (10**limit, [Fraction(1, 10**limit)], {"a": Line(1, 0, 10**limit)}):
        assert outcome(dumps, value) is ValueError
        assert outcome(reference, value) is ValueError


# The integers at the edge of the 2^64 bound, below which dumps prints
# directly, with both signs.
EDGES = [sign * n for n in (2**64 - 1, 2**64, 2**64 + 1) for sign in (1, -1)]
LONG = 3**2000 + 2


@pytest.mark.parametrize("n", EDGES)
def test_ints_and_rationals_at_the_64_bit_bound_write_their_json_form(n):
    """Around the bound, in every place an integer is printed: as an int, a
    Fraction's numerator or denominator (2^64 - 1 and 2^64 + 1 included), a
    point's member and a line's coefficient."""
    values = [n, Fraction(n), Fraction(n, 7), Fraction(7, abs(n)), Fraction(n, 2**64 - 1), Fraction(n, 2**64 + 1)]
    values += [Point(Fraction(n, 3), Fraction(1, abs(n))), Circle(Point(n, 0), Fraction(n * n, 5)), Line(n, 3, n)]
    for value in values:
        assert dumps(value) == reference(value), value
    assert dumps(values) == reference(values)


def test_one_long_integer_repeated_with_both_signs():
    value = [LONG, -LONG, Fraction(LONG, 3), Fraction(-LONG, 3), Fraction(5, LONG), Fraction(-LONG, LONG + 2)]
    value += [Line(LONG, -LONG, 1), Point(Fraction(LONG, 11), Fraction(-LONG, 11)), {"a": LONG, "b": -LONG}]
    assert dumps(value) == reference(value)


def count_conversions(monkeypatch) -> Counter:
    """Count each integer that :class:`jsonio._Digits` converts (until the test ends)."""
    converted = Counter()
    convert = _Digits.__missing__

    def counted(digits, n):
        converted[n] += 1
        return convert(digits, n)

    monkeypatch.setattr(_Digits, "__missing__", counted)
    return converted


def test_a_tall_document_converts_each_long_integer_once(monkeypatch):
    """A 3300-bit figure's report prints many long integers more than once
    (the shared denominators, a line's coefficients, the focus and the centre
    that two fields hold); each is converted once per document, and a second
    document converts it again.  A 13-bit report converts nothing."""
    c1, c2, c3, _ = rand_cusps(random.Random(7), 2**3300)
    doc = verification(build_parbelos(c1, c2, c3, LEFT))
    converted = count_conversions(monkeypatch)
    text = dumps(doc)
    printed = [int(t) for t in re.findall(r"-?[0-9]+", text) if abs(int(t)) >= 2**64]
    assert set(converted) == set(printed) and set(converted.values()) == {1}
    assert len(printed) > 1.5 * len(converted)
    assert dumps(doc) == text
    assert set(converted.values()) == {2}
    converted.clear()
    c1, c2, c3, _ = rand_cusps(random.Random(7), 2**13)
    dumps(verification(build_parbelos(c1, c2, c3, LEFT)))
    assert not converted
