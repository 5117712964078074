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
    if m < 0:
        raise ValueError("negative argument")
    r = round(m ** (1.0 / 3.0))
    while r > 0 and r * r * r > m:
        r -= 1
    while (r + 1) ** 3 <= m:
        r += 1
    return r


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
