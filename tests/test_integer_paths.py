"""The integer paths of Line, Line.contains and line_through against the
Fraction formulas they replaced, and the per-instance memo of Parabola.

Heights cover both regimes the kernel runs in: about 13 bits (fuzz and
figure inputs) and about 3300 bits (cusp coordinates below 10^1000).
"""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parbelos.errors import CoincidentPoints, DegenerateLine
from parbelos.euclid import Line, Point, line_through
from parbelos.parabola import (
    Parabola,
    axis_direction,
    canonical_elements,
    focal_scale,
    parabola_from_latus_rectum,
)

HEIGHTS = (13, 3300)


def ints(bits):
    return st.integers(-(2**bits), 2**bits)


def rationals(bits):
    return st.builds(Fraction, ints(bits), st.integers(1, 2**bits))


def points(bits):
    return st.builds(Point, rationals(bits), rationals(bits))


# --- the Fraction formulas the integer paths replaced (reference only) ---


def reference_canonical(a, b, c):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    mult = math.lcm(a.denominator, b.denominator, c.denominator)
    ia, ib, ic = int(a * mult), int(b * mult), int(c * mult)
    g = math.gcd(ia, ib, ic)
    ia, ib, ic = ia // g, ib // g, ic // g
    if ia < 0 or (ia == 0 and ib < 0):
        ia, ib, ic = -ia, -ib, -ic
    return ia, ib, ic


def reference_contains(line, p):
    return line.a * p.x + line.b * p.y + line.c == 0


def reference_line_through(p, q):
    a = q.y - p.y
    b = p.x - q.x
    return reference_canonical(a, b, -(a * p.x + b * p.y))


def triple(line):
    return line.a, line.b, line.c


# --- Line ---

SETTINGS = settings(max_examples=60, deadline=None)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_int_triple_canonicalisation_matches_fraction_path(bits, data):
    a, b, c = (data.draw(ints(bits)) for _ in range(3))
    k = data.draw(st.integers(-(2**bits), 2**bits).filter(bool))
    if a == 0 and b == 0:
        with pytest.raises(DegenerateLine):
            Line(a, b, c)
        return
    assert triple(Line(a, b, c)) == reference_canonical(a, b, c)
    assert Line(k * a, k * b, k * c) == Line(a, b, c)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_rational_triple_canonicalisation_matches_fraction_path(bits, data):
    a, b, c = (data.draw(rationals(bits)) for _ in range(3))
    if a == 0 and b == 0:
        return
    assert triple(Line(a, b, c)) == reference_canonical(a, b, c)
    # the same line handed over as cleared integers takes the int path
    mult = math.lcm(a.denominator, b.denominator, c.denominator)
    cleared = Line(int(a * mult), int(b * mult), int(c * mult))
    assert cleared == Line(a, b, c)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_line_through_matches_fraction_formula(bits, data):
    p, q = data.draw(points(bits)), data.draw(points(bits))
    if p == q:
        with pytest.raises(CoincidentPoints):
            line_through(p, q)
        return
    assert triple(line_through(p, q)) == reference_line_through(p, q)
    assert line_through(q, p) == line_through(p, q)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_contains_matches_fraction_formula(bits, data):
    p, q, r = (data.draw(points(bits)) for _ in range(3))
    t = data.draw(rationals(bits))
    if p == q:
        return
    line = line_through(p, q)
    on_line = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    for candidate in (p, q, on_line, r):
        assert line.contains(candidate) == reference_contains(line, candidate)
    assert line.contains(p) and line.contains(q) and line.contains(on_line)
    # integer coordinates are accepted too (int has numerator/denominator)
    assert line.contains(Point(2, 3)) == reference_contains(line, Point(2, 3))


# --- Parabola memo ---


def parabolas(bits):
    pairs = st.tuples(points(bits), points(bits)).filter(lambda pq: pq[0] != pq[1])
    return st.builds(
        lambda pq, side: parabola_from_latus_rectum(pq[0], pq[1], side),
        pairs,
        st.sampled_from(("left", "right")),
    )


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_elements_derived_once_and_equal_across_equal_parabolas(bits, data):
    parabola = data.draw(parabolas(bits))
    first = canonical_elements(parabola)
    assert canonical_elements(parabola) is first
    assert focal_scale(parabola) is focal_scale(parabola)
    assert axis_direction(parabola) is axis_direction(parabola)
    twin = Parabola(parabola.focus, parabola.directrix)
    assert canonical_elements(twin) == first
    assert canonical_elements(twin) is not first
    assert focal_scale(twin) == focal_scale(parabola)
    assert axis_direction(twin) == axis_direction(parabola)


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equality_hash_and_pickle_ignore_the_memo(bits, data):
    warm = data.draw(parabolas(bits))
    elements = canonical_elements(warm)
    cold = Parabola(warm.focus, warm.directrix)
    assert "_elements" in vars(warm) and "_elements" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    restored = pickle.loads(pickle.dumps(warm))
    assert restored == warm and hash(restored) == hash(warm)
    assert set(vars(restored)) == {"focus", "directrix"}
    assert canonical_elements(restored) == elements
