"""Exact integer helpers for parameter derivation.

All structure parameters are derived from integer vertex/edge counts with
ceiling/floor conventions fixed here, so every module rounds the same way.
"""

from fractions import Fraction
from math import isqrt


def ceil_div(a: int, b: int) -> int:
    """⌈a/b⌉ for b > 0."""
    return -(-a // b)


def ceil_sqrt(m: int) -> int:
    r = isqrt(m)
    return r if r * r == m else r + 1


def floor_cbrt(m: int) -> int:
    """⌊m^{1/3}⌋ by integer Newton iteration, exact at any size."""
    if m < 0:
        raise ValueError("negative argument")
    if m == 0:
        return 0
    # start above the root; each step stays at or above ⌊m^{1/3}⌋ (AM–GM)
    # and falls while above it, so the first step that does not fall ends
    r = 1 << -(-m.bit_length() // 3)
    while True:
        s = (2 * r + m // (r * r)) // 3
        if s >= r:
            return r
        r = s


def ceil_cbrt(m: int) -> int:
    r = floor_cbrt(m)
    return r if r * r * r == m else r + 1


def ceil_log2(n: int) -> int:
    """⌈lg n⌉ for n ≥ 1."""
    if n < 1:
        raise ValueError("ceil_log2 requires n >= 1")
    return (n - 1).bit_length()


def floor_log2(n: int) -> int:
    if n < 1:
        raise ValueError("floor_log2 requires n >= 1")
    return n.bit_length() - 1


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
