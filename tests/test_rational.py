from fractions import Fraction

import pytest

from netcode.errors import MalformedDocument
from netcode.rational import (
    alphabet_size,
    ceil_frac,
    ceil_mul,
    ceil_root,
    combine_digits,
    floor_pow2,
    floor_root,
    format_rational,
    log2_at_least,
    parse_rational,
    split_digits,
)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5.2", None, 1.5, True, [1]])
def test_parse_rational_rejects(bad):
    with pytest.raises(MalformedDocument):
        parse_rational(bad)


def test_format_rational_canonical():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(Fraction(-3, 6)) == "-1/2"


def test_floor_root_exact_values():
    assert floor_root(0, 3) == 0
    assert floor_root(1, 5) == 1
    assert floor_root(8, 3) == 2
    assert floor_root(9, 3) == 2
    assert floor_root(2**60, 6) == 2**10
    assert floor_root(2**60 - 1, 6) == 2**10 - 1


def test_floor_root_brute_force():
    for x in range(200):
        for k in range(1, 6):
            r = floor_root(x, k)
            assert r**k <= x < (r + 1) ** k


def test_ceil_root():
    assert ceil_root(8, 3) == 2
    assert ceil_root(9, 3) == 3
    assert ceil_root(1, 4) == 1
    assert ceil_root(0, 2) == 0


def test_alphabet_size_matches_definition():
    # floor(2**(cap*n)) spot checks, including fractional exponents
    assert alphabet_size(Fraction(1), 1) == 2
    assert alphabet_size(Fraction(1, 2), 1) == 1
    assert alphabet_size(Fraction(1, 2), 2) == 2
    assert alphabet_size(Fraction(3, 2), 2) == 8
    assert alphabet_size(Fraction(2, 3), 2) == 2  # floor(2^(4/3)) = 2
    assert alphabet_size(Fraction(5, 3), 3) == 32


def test_floor_pow2_and_log2_at_least():
    assert floor_pow2(Fraction(7, 2)) == 11  # floor(2^3.5) = floor(11.31..)
    assert not log2_at_least(11, Fraction(7, 2))
    assert log2_at_least(12, Fraction(7, 2))
    assert log2_at_least(8, Fraction(3))


def test_ceil_helpers():
    assert ceil_frac(Fraction(7, 2)) == 4
    assert ceil_frac(Fraction(-7, 2)) == -3
    assert ceil_frac(Fraction(4)) == 4
    assert ceil_mul(Fraction(3, 2), 5) == 8


def test_mixed_radix_round_trip():
    radices = (3, 5, 2, 7)
    total = 3 * 5 * 2 * 7
    for x in range(total):
        digits = split_digits(x, radices)
        assert combine_digits(digits, radices) == x
    # first digit is most significant
    assert combine_digits((1, 0, 0, 0), radices) == 5 * 2 * 7
    assert split_digits(5 * 2 * 7, radices) == (1, 0, 0, 0)


def test_mixed_radix_bounds():
    with pytest.raises(ValueError):
        combine_digits((3,), (3,))
    with pytest.raises(ValueError):
        split_digits(6, (3, 2))
    with pytest.raises(ValueError):
        combine_digits((0,), (2, 2))
