import random
from fractions import Fraction

import pytest

from parbelos.errors import ZeroDenominator
from parbelos.rational import format_rational, parse_rational, ratio_to_decimal_string

F = Fraction


def test_zero_denominator():
    with pytest.raises(ZeroDenominator) as exc:
        parse_rational("-1/0")
    assert str(exc.value) == "-1/0 is not a rational"
    with pytest.raises(ZeroDenominator):
        parse_rational("3/0")


def test_parse_format_round_trip():
    for text in ["0", "1", "-1", "1/2", "-7/3", "+5", "12345/6789"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value
    assert format_rational(parse_rational("+5")) == "5"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(4)) == "4"


@pytest.mark.parametrize(
    "bad", ["", " 1/2", "1/2 ", "1 / 2", "1.5", "a", "1/-2", "--1", "1//2", "1/2\n", "\u0663", "1/\u0662"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_field_axioms_on_random_operands():
    """Associativity, commutativity, distributivity, inverses, all exact."""
    rng = random.Random(17)

    def rand():
        return F(rng.randint(-99, 99), rng.randint(1, 99))

    for _ in range(300):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        assert a - b == a + (-b)
        if a != 0:
            assert a * (1 / a) == 1
        if b != 0:
            assert (a / b) * b == a


def test_total_order_consistent_with_subtraction():
    rng = random.Random(3)
    for _ in range(300):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a < b) + (a == b) + (a > b) == 1
        assert (a < b) == (a - b < 0)
        assert (a > b) == (a - b > 0)


def test_operations_stay_canonical():
    rng = random.Random(5)
    for _ in range(200):
        a = F(rng.randint(-99, 99), rng.randint(1, 99))
        b = F(rng.randint(-99, 99), rng.randint(1, 99))
        for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            assert value.denominator > 0
            assert F(value.numerator, value.denominator) == value


def test_to_decimal_string():
    assert ratio_to_decimal_string(1, 2) == "0.5"
    assert ratio_to_decimal_string(-5, 4) == "-1.25"
    assert ratio_to_decimal_string(2, 1) == "2"
    assert ratio_to_decimal_string(1, 3, 6) == "0.333333"
    assert ratio_to_decimal_string(2, 3, 6) == "0.666667"
    assert ratio_to_decimal_string(-1, 3, 2) == "-0.33"
    assert ratio_to_decimal_string(0, 1, 12) == "0"
    assert ratio_to_decimal_string(1, 1, 0) == "1"
    assert ratio_to_decimal_string(149, 100, 1) == "1.5"
    # never renders "-0"
    assert ratio_to_decimal_string(-1, 10**6, 2) == "0"
