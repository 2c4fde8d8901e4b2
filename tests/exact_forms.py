"""Exact values of the signed bilinear form of float amplitudes.

Every finite float is a dyadic rational, an integer times a power of two,
so B(x, y) = sum_j tm(j) x_j y_(M-1-j), tm(j) = (-1)**popcount(j), of the
given floats is a Gaussian integer times a power of two.  It is computed
here with Python integers, and the odd invariant, the discriminant
B(lo, hi)**2 - B(lo, lo) * B(hi, hi) = B(lo, hi)**2 - 4 B(lo0, lo1) B(hi0, hi1)
of the qubit-1 halves and quarters, from those forms: nothing is rounded.

This module uses numpy only to take floats apart; it never imports the
invariant kernels it is the reference for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np


class Dyadic(NamedTuple):
    """The complex number (re + i*im) * 2**exp, exactly."""

    re: int
    im: int
    exp: int

    def __add__(self, other: Dyadic) -> Dyadic:
        lo, hi = sorted((self, other), key=lambda d: d.exp)
        shift = hi.exp - lo.exp
        return Dyadic(lo.re + (hi.re << shift), lo.im + (hi.im << shift), lo.exp)

    def __sub__(self, other: Dyadic) -> Dyadic:
        return self + Dyadic(-other.re, -other.im, other.exp)

    def __mul__(self, other: Dyadic) -> Dyadic:
        return Dyadic(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re, self.exp + other.exp)

    def scaled(self, k: int) -> Dyadic:
        """2**k times this number."""
        return Dyadic(self.re, self.im, self.exp + k)

    def parts(self) -> tuple[Fraction, Fraction]:
        scale = Fraction(2) ** self.exp
        return self.re * scale, self.im * scale

    def __abs__(self) -> float:
        """The modulus, rounded; inf when it is beyond the float range."""
        re, im = self.parts()
        try:
            return math.hypot(float(re), float(im))
        except OverflowError:
            return math.inf

    def error(self, value: complex) -> float:
        """|value - self|, from the exact difference; inf for a value that is not finite."""
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return math.inf
        re, im = self.parts()
        return math.hypot(float(Fraction(value.real) - re), float(Fraction(value.imag) - im))


def integers(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(re, im, exp): two object arrays of Python ints with values = (re + i*im) * 2**exp.

    frexp writes a float as f * 2**e with |f| in [1/2, 1), so f * 2**53 is an
    integer for every finite float, subnormals included."""
    mantissa, exponent = np.frexp(np.stack([values.real, values.imag]))
    mantissa = (mantissa * 2.0 ** 53).astype(np.int64)
    exponent = exponent - 53
    nonzero = mantissa != 0
    exp = int(exponent[nonzero].min()) if nonzero.any() else 0
    shift = np.where(nonzero, exponent - exp, 0)
    re, im = mantissa.astype(object) << shift.astype(object)
    return re, im, exp


def thue_morse_negative(size: int) -> np.ndarray:
    """Where tm(j) = -1, for j < size (a power of two)."""
    odd = np.zeros(1, dtype=bool)
    while odd.size < size:
        odd = np.concatenate([odd, ~odd])
    return odd


def form(x: np.ndarray, y: np.ndarray) -> Dyadic:
    """B(x, y) of two equal blocks of a power-of-two size, exactly."""
    xr, xi, ex = integers(x)
    yr, yi, ey = integers(y[::-1])
    negative = thue_morse_negative(x.size)
    total = []
    for part in (xr * yr - xi * yi, xr * yi + xi * yr):
        total.append(int(part[~negative].sum()) - int(part[negative].sum()))
    return Dyadic(*total, ex + ey)


def magnitude_sum(x: np.ndarray, y: np.ndarray) -> float:
    """R(x, y) = sum_j |x_j| |y_(M-1-j)|, the sum of the moduli of B's terms (to a few ulps)."""
    return math.fsum((np.abs(x) * np.abs(y[::-1])).tolist())


def odd_parts(a: np.ndarray) -> tuple[Dyadic, Dyadic, Dyadic, Dyadic]:
    """B(lo, hi), B(lo0, lo1), B(hi0, hi1) and the odd invariant
    B(lo, hi)**2 - 4 B(lo0, lo1) B(hi0, hi1) of an odd-n vector a, exactly."""
    lo, hi = a.reshape(2, -1)
    bar = form(lo, hi)
    low, high = (form(*half) for half in a.reshape(2, 2, -1))
    return bar, low, high, bar * bar - (low * high).scaled(2)
