"""Random trigonometric polynomials and certified sup-norm brackets.

W(x) = sum_{j<n} xi_j exp(ijx) on the unit circle; its maximum modulus is
bracketed from an oversampled grid using the derivative inequality
||W'||_inf <= n ||W||_inf for trigonometric polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrices import CoefficientSequence

__all__ = [
    "TrigPolynomial",
    "MaxModulusBracket",
    "evaluate_on_grid",
    "max_modulus",
    "salem_zygmund_ratio",
]


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Coefficients xi_0..xi_{n-1}; symmetric enforces xi_j = xi_{n-j} exactly."""

    coeffs: CoefficientSequence
    symmetric: bool = False

    def __post_init__(self):
        if self.coeffs.index_origin != 0:
            raise ValueError("trigonometric polynomial coefficients start at index 0")
        if self.symmetric:
            vals = self.coeffs.values
            tail = vals[1:]
            if not np.array_equal(tail, tail[::-1]):
                raise ValueError("symmetric polynomial requires xi_j = xi_{n-j}")

    @property
    def n(self) -> int:
        return len(self.coeffs)


def evaluate_on_grid(p: TrigPolynomial, m: int) -> np.ndarray:
    """Values W(2 pi k / m) for k = 0..m-1 via a zero-padded FFT; needs m >= n."""
    m = int(m)
    if m < p.n:
        raise ValueError(f"grid size {m} smaller than coefficient count {p.n}")
    return np.fft.ifft(p.coeffs.values, n=m) * m


@dataclass(frozen=True)
class MaxModulusBracket:
    """Certified bracket for max |W| on the unit circle.

    ``lower`` is attained at ``witness_x``; ``upper = lower / (1 - pi/K)``
    because between adjacent grid points (spacing 2 pi / (K n)) the modulus
    can move by at most ||W'||_inf pi / (K n) <= pi ||W||_inf / K.
    """

    lower: float
    upper: float
    oversampling: int
    witness_x: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError("bracket must satisfy 0 <= lower <= upper")


@lru_cache(maxsize=4)
def _twiddles(n: int, k: int) -> np.ndarray:
    """Read-only rows tw[r, t] = exp(-2 pi i r t / (K n)) for r = 0..floor(K/2).

    The exponent is formed from the exact integer r t, which is at most
    (K/2)(n - 1) < K n and so needs no reduction mod K n.
    """
    r = np.arange(k // 2 + 1)[:, None]
    t = np.arange(n)
    tw = np.exp(-2j * math.pi * (r * t) / (k * n))
    tw.setflags(write=False)
    return tw


def max_modulus(p: TrigPolynomial, oversampling: int = 64) -> MaxModulusBracket:
    """Bracket max |W| from a K n point grid; requires oversampling K > 4.

    The grid is split by decimation in frequency: point q = a K + r
    (0 <= a < n, 0 <= r < K) has W(2 pi q / (K n)) equal to the conjugate of
    ``fft_n(xi_t exp(-2 pi i r t / (K n)))[a]``, so no zero-padded K n point
    transform is formed.  The coefficients are real, so q and K n - q have
    the same modulus and row K - r mirrors row r; rows r = 0..floor(K/2)
    therefore hold the whole grid maximum.  ``witness_x`` is the mirror
    representative 2 pi min(q, K n - q) / (K n), which lies in [0, pi].
    """
    k = int(oversampling)
    if k <= 4:
        raise ValueError("oversampling must exceed 4 for a finite bracket")
    n = p.n
    block = _twiddles(n, k) * p.coeffs.values
    np.fft.fft(block, axis=1, out=block)
    mags = np.abs(block)
    r, a = divmod(int(np.argmax(mags)), n)
    lower = float(mags[r, a])
    upper = lower / (1.0 - math.pi / k)
    m = k * n
    q = a * k + r
    return MaxModulusBracket(lower, upper, k, 2.0 * math.pi * min(q, m - q) / m)


def salem_zygmund_ratio(bracket: MaxModulusBracket, n: int) -> tuple[float, float]:
    """Normalized statistics (lower, upper) / sqrt(n log n); needs n >= 2."""
    n = int(n)
    if n < 2:
        raise ValueError("ratio needs n >= 2 (log n must be positive)")
    denom = math.sqrt(n * math.log(n))
    return bracket.lower / denom, bracket.upper / denom
