"""The canonical rational string form shared by every JSON reader and writer."""

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
