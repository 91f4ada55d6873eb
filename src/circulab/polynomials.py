"""Random trigonometric polynomials and certified sup-norm brackets.

W(x) = sum_{j<n} xi_j exp(ijx) on the unit circle; its maximum modulus is
bracketed from an oversampled grid using the derivative inequality
||W'||_inf <= n ||W||_inf for trigonometric polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def max_modulus(p: TrigPolynomial, oversampling: int = 64) -> MaxModulusBracket:
    """Bracket max |W| from a K n point grid; requires oversampling K > 4.

    The coefficients are real, so W(2 pi (m - k) / m) = conj W(2 pi k / m)
    and the grid maximum is attained on k = 0..floor(m/2).  Those values
    are the conjugates of a real half-spectrum FFT, so ``witness_x`` lies
    in [0, pi].
    """
    k = int(oversampling)
    if k <= 4:
        raise ValueError("oversampling must exceed 4 for a finite bracket")
    m = k * p.n
    mags = np.abs(np.fft.rfft(p.coeffs.values, n=m))
    arg = int(np.argmax(mags))
    lower = float(mags[arg])
    upper = lower / (1.0 - math.pi / k)
    return MaxModulusBracket(lower, upper, k, 2.0 * math.pi * arg / m)


def salem_zygmund_ratio(bracket: MaxModulusBracket, n: int) -> tuple[float, float]:
    """Normalized statistics (lower, upper) / sqrt(n log n); needs n >= 2."""
    n = int(n)
    if n < 2:
        raise ValueError("ratio needs n >= 2 (log n must be positive)")
    denom = math.sqrt(n * math.log(n))
    return bracket.lower / denom, bracket.upper / denom
