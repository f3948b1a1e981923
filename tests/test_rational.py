import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_exec as ref
from netcode.errors import BitBudgetExceeded, EnumerationTooLarge, MalformedDocument
from netcode.rational import (
    MAX_BITS,
    MAX_ROUNDS,
    alphabet_size,
    ceil_frac,
    ceil_mul,
    ceil_root,
    check_count,
    checked_pow,
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


def test_floor_pow2_refuses_an_exponent_past_the_bit_budget():
    # the exponent is compared before 2^exponent is built; the child's address
    # space is capped at 2 GiB, so a build of 2^(10^11) (12.5 GB) would fail
    # fast there instead of filling the machine's memory
    probe = (
        "from fractions import Fraction\nfrom netcode.rational import floor_pow2\n"
        "for e in (10 ** 11, 1 << 20000):\n"
        "    try:\n        floor_pow2(Fraction(e))\n"
        "    except Exception as exc:\n        print(type(exc).__name__, exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert run.stdout.splitlines() == [
        "BitBudgetExceeded size 2^100000000000 exceeds the 2^20-bit budget",
        "BitBudgetExceeded size 2^(2^20000) exceeds the 2^20-bit budget",
    ]
    assert floor_pow2(Fraction(MAX_BITS)) == 1 << MAX_BITS
    with pytest.raises(BitBudgetExceeded, match=r"^size over 2\^1048576 exceeds"):
        floor_pow2(Fraction(2 * MAX_BITS + 1, 2))


def test_floor_pow2_builds_no_power_of_a_huge_numerator():
    # below 1 the answer is 1 with nothing built; from 1 on, 2^numerator is
    # built only within the budget.  A build of r^(10^12 - 1) or of
    # 2^999999999999 would fail fast in the child, under a 2 GiB RLIMIT_AS
    probe = (
        "from fractions import Fraction\nfrom netcode.rational import floor_pow2\n"
        "for p in (1, 10 ** 12 - 1, 2 * 10 ** 12 - 1):\n"
        "    try:\n        print(floor_pow2(Fraction(p, 10 ** 12)))\n"
        "    except Exception as exc:\n        print(type(exc).__name__, exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert run.stdout.splitlines() == [
        "1", "1",
        "BitBudgetExceeded size 2^(1999999999999/1000000000000) has a numerator past the 2^20-bit budget",
    ]
    assert floor_pow2(Fraction(0)) == 1
    assert floor_pow2(Fraction(3, 2)) == 2
    with pytest.raises(BitBudgetExceeded, match="has a numerator past"):
        floor_pow2(Fraction(MAX_BITS + 1, 3))


def test_floor_pow2_finds_a_long_root_in_few_newton_steps():
    # the 1000th root of 2^1000001: seeded from the bit length alone, Newton
    # started near twice the root, shrank it by 999/1000 a step and took
    # 35.9 s; seeded from the root of the leading half it takes a few steps
    start = time.perf_counter()
    r = floor_pow2(Fraction(1000001, 1000))
    assert time.perf_counter() - start < 1
    assert r.bit_length() == 1001 and r ** 1000 <= 1 << 1000001 < (r + 1) ** 1000


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


HUGE = 10 ** 30
EXPONENTS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-HUGE, -1).map(Fraction),
    # below 1, over small and huge denominators
    st.integers(1, HUGE).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))),
    # whole numbers, as Fractions and as ints, up to past the budget
    st.integers(0, MAX_BITS + 2).flatmap(lambda w: st.sampled_from([w, Fraction(w)])),
    # MAX_BITS - 1, MAX_BITS and MAX_BITS + 1, nudged by 1/d, and a
    # numerator of MAX_BITS + 1 (17 * 61681) over a small denominator
    st.builds(lambda w, r, d: Fraction(w * d + r, d), st.sampled_from([MAX_BITS - 1, MAX_BITS, MAX_BITS + 1]),
              st.integers(-1, 1), st.sampled_from([1, 2, 3, 7, HUGE])),
    st.builds(Fraction, st.just(MAX_BITS + 1), st.integers(2, 16)),
    # roots of up to 4,096-bit powers over small denominators
    st.builds(Fraction, st.integers(0, 4096), st.integers(1, 16)),
    # past 1 over huge denominators: a numerator past the budget
    st.builds(Fraction, st.integers(HUGE, HUGE ** 2), st.integers(HUGE // 10, HUGE)),
)


@settings(max_examples=300, deadline=None)
@given(EXPONENTS)
def test_floor_pow2_agrees_with_its_fraction_comparing_form(exponent):
    # the integer comparisons give the value, or the exception type and
    # message, that the comparisons of Fractions gave
    assert outcome(floor_pow2, exponent) == outcome(ref.floor_pow2, exponent)


def test_check_count_names_a_count_past_its_bound():
    check_count(MAX_ROUNDS, MAX_ROUNDS, "round count")
    for count, name in [(MAX_ROUNDS + 1, "65537"), (10 ** 12, "1000000000000"), (1 << 100, "2^100")]:
        with pytest.raises(EnumerationTooLarge) as refused:
            check_count(count, MAX_ROUNDS, "round count")
        assert str(refused.value) == f"round count {name} exceeds the limit 65536"


def test_checked_pow_refuses_a_power_past_the_bit_budget():
    assert checked_pow(2, MAX_BITS) == 1 << MAX_BITS
    assert [checked_pow(0, 5), checked_pow(1, 10 ** 30), checked_pow(7, 0)] == [0, 1, 1]
    # refused by its bit length before it is built, named by its size
    for base, exp, size in [(2, MAX_BITS + 1, "2^1048577"), (1 << 32768, 1 << 16, "2^2147483648"),
                            (3, 10 ** 29, "over 2^100000000000000000000000000000"),
                            # built (at most 2^21 bits), then compared
                            (3, 700000, "over 2^1109473")]:
        with pytest.raises(BitBudgetExceeded) as refused:
            checked_pow(base, exp)
        assert str(refused.value) == f"size {size} exceeds the 2^20-bit budget"


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
