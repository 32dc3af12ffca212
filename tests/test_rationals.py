"""The canonical rational string form shared by every JSON reader and writer."""

import decimal
import random
from fractions import Fraction

import pytest

from modgf.errors import ParseError
from modgf.rationals import rat_from_str, rat_to_str


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("-3", -3), ("0", 0), ("3/4", Fraction(3, 4)), ("-6/4", Fraction(-3, 2))],
)
def test_rat_from_str_accepts_canonical_forms(text, value):
    assert rat_from_str(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "", " 3", "3 ", "3/ 4", "3 /4", "1_000", "٣", "+3", "3/-4", "--3",
        "3/0", "1.5", "1e3", "3/", "/4", "3/4/5", "3\n", "0x10",
    ],
)
def test_rat_from_str_rejects(text):
    with pytest.raises(ParseError):
        rat_from_str(text)


def test_rat_from_str_rejects_non_strings():
    with pytest.raises(ParseError):
        rat_from_str(3)


def test_rat_round_trip():
    for v in (Fraction(0), Fraction(-7), Fraction(22, 7), Fraction(-1, 3)):
        assert rat_from_str(rat_to_str(v)) == v


def test_rat_round_trip_past_the_int_str_limit():
    # CPython refuses int <-> str past 4300 digits by default; the limit is
    # process-wide and must not be lifted, so these values take the split path.
    rng = random.Random(4300)
    num = rng.randrange(10**9999, 10**10000)
    den = rng.randrange(10**6000, 10**6001) | 1
    for v in (Fraction(num, den), Fraction(-num, den), Fraction(num), Fraction(1, den)):
        text = rat_to_str(v)
        assert rat_from_str(text) == v
        # decimal converts without the limit and shares no code with modgf
        p, _, q = text.partition("/")
        assert int(decimal.Decimal(p)) == v.numerator
        assert int(decimal.Decimal(q or "1")) == v.denominator
        assert not p.lstrip("-").startswith("0")
    assert len(rat_to_str(Fraction(num))) == 10000
    assert rat_to_str(Fraction(10**5000)) == "1" + "0" * 5000
    assert rat_from_str("-" + "0" * 6000 + "7/" + "0" * 5000 + "21") == Fraction(-1, 3)


def test_rat_to_str_small_values_match_str():
    rng = random.Random(17)
    for bits in (1, 64, 7999, 8000):
        for _ in range(20):
            v = Fraction(rng.getrandbits(bits) - rng.getrandbits(bits), rng.getrandbits(bits) | 1)
            assert rat_to_str(v) == str(v)
