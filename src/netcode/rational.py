"""Exact integer/rational helpers.

All capacity and rate arithmetic in this package is exact: capacities are
`fractions.Fraction`, alphabet sizes are integers of the form
floor(2**(cap*n)), and rate comparisons reduce to integer power comparisons.
Nothing here touches floats.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedDocument


def parse_rational(value) -> Fraction:
    """Parse an int or a 'p/q' / 'p' string into a Fraction."""
    if isinstance(value, bool):
        raise MalformedDocument(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedDocument(f"not a rational: {value!r}") from exc
    raise MalformedDocument(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical lowest-terms string, 'p/q' or bare integer."""
    return str(Fraction(value))


def floor_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, k >= 1, in exact integer arithmetic."""
    if x < 0 or k < 1:
        raise ValueError("floor_root needs x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    # Newton iteration on integers, seeded from the bit length.
    r = 1 << (-(-x.bit_length() // k))
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > x:
        r -= 1
    return r


def ceil_root(x: int, k: int) -> int:
    """Smallest b >= 0 with b**k >= x."""
    r = floor_root(x, k)
    return r if r ** k >= x else r + 1


def alphabet_size(cap: Fraction, n: int) -> int:
    """floor(2 ** (cap * n)): the edge alphabet size at inner blocklength n."""
    if n < 1:
        raise ValueError("inner blocklength must be >= 1")
    q = cap * n
    if q < 0:
        raise ValueError("capacity must be non-negative")
    return floor_root(2 ** q.numerator, q.denominator)


def floor_pow2(exponent: Fraction) -> int:
    """floor(2 ** exponent) for exponent >= 0."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return floor_root(2 ** exponent.numerator, exponent.denominator)


def log2_at_least(value: int, exponent: Fraction) -> bool:
    """Exact test of log2(value) >= exponent for value >= 1."""
    if exponent <= 0:
        return True
    return value ** exponent.denominator >= 2 ** exponent.numerator


def ceil_frac(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def ceil_mul(alpha: Fraction, n: int) -> int:
    """ceil(alpha * n) without leaving integer arithmetic."""
    return ceil_frac(alpha * Fraction(n))


def combine_digits(digits, radices) -> int:
    """Mixed-radix combine, first digit most significant."""
    if len(digits) != len(radices):
        raise ValueError("digit/radix length mismatch")
    x = 0
    for d, r in zip(digits, radices):
        if not 0 <= d < r:
            raise ValueError(f"digit {d} out of range for radix {r}")
        x = x * r + d
    return x


def split_digits(x: int, radices) -> tuple:
    """Inverse of combine_digits."""
    out = [0] * len(radices)
    for i in range(len(radices) - 1, -1, -1):
        x, out[i] = divmod(x, radices[i])
    if x:
        raise ValueError("value out of range for radices")
    return tuple(out)
