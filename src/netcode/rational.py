"""Exact integer/rational helpers.

All capacity and rate arithmetic in this package is exact: capacities are
`fractions.Fraction`, alphabet sizes are integers of the form
floor(2**(cap*n)), and rate comparisons reduce to integer power comparisons.
Nothing here touches floats.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BitBudgetExceeded, EnumerationTooLarge, MalformedDocument, sized

MAX_BITS = 1 << 20  # the bit budget: no 2^e with e past it, and no size past 2^MAX_BITS, is built
MAX_ROUNDS = 1 << 16  # the outer blocklength of a code
MAX_SESSIONS = 1 << 16  # the sessions parallel_repeat or amplify packs
MAX_PERMUTED = 1 << 16  # the symbols amplify's permutations hold: m times the message sizes


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
    # Newton from above, seeded past 64 bits by the root of x's leading half
    s = x.bit_length() // (2 * k) if x >> 64 else 0
    r = (floor_root(x >> k * s, k) + 1) << s if s else 1 << -(-x.bit_length() // k)
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
    return floor_pow2(cap * n)


def _over_budget(e: int, over: bool) -> BitBudgetExceeded:
    """The error for a size of 2^e, or over 2^e, named as errors.sized would."""
    name = sized(e) if e < 1 << 99 else f"({sized(e)})"
    return BitBudgetExceeded(f"size {'over ' if over else ''}2^{name} exceeds the 2^20-bit budget")


def floor_pow2(exponent: Fraction) -> int:
    """floor(2 ** exponent) for exponent >= 0.  It builds 2^numerator, so an
    exponent of 1 or more whose numerator is past MAX_BITS raises
    BitBudgetExceeded, as does every exponent past MAX_BITS.  It compares
    integers only, the numerator against multiples of the denominator."""
    num, den = exponent.numerator, exponent.denominator
    if num < 0:
        raise ValueError("exponent must be non-negative")
    if num < den:
        return 1
    if num > MAX_BITS * den:
        whole, part = divmod(num, den)
        raise _over_budget(whole, part != 0)
    if num > MAX_BITS:
        raise BitBudgetExceeded(f"size 2^({sized(num)}/{sized(den)}) "
                                "has a numerator past the 2^20-bit budget")
    return floor_root(1 << num, den)


def checked_pow(base: int, exp: int) -> int:
    """base ** exp for base, exp >= 0, or BitBudgetExceeded for a power past
    2^MAX_BITS, refused before it is built."""
    low = (base.bit_length() - 1) * exp  # base ** exp >= 2^low for base >= 1
    if low > MAX_BITS:
        raise _over_budget(low, base & (base - 1) != 0)
    power = base ** exp  # below 2^(low + exp), and exp <= low unless base < 2
    if power > 1 << MAX_BITS:
        raise BitBudgetExceeded(f"size {sized(power)} exceeds the 2^20-bit budget")
    return power


def check_count(count: int, bound: int, what: str) -> None:
    """EnumerationTooLarge naming `count` if it is past `bound`."""
    if count > bound:
        raise EnumerationTooLarge(f"{what} {sized(count)} exceeds the limit {bound}")


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
