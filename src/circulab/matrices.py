"""Compact coefficient-sequence representations of structured matrices.

Toeplitz, circulant and symmetric-circulant matrices are stored through their
O(n) defining coefficients; dense arrays are produced explicitly by the
``materialize_*`` functions.  Every matrix here has real entries, so dense
matrices are plain ``numpy`` arrays of ``float64``.  Circulant eigenvalues
elsewhere in the package are ``complex128``; singular values are ``float64``.

All spec types here are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientSequence",
    "ToeplitzSpec",
    "CirculantSpec",
    "SymmetricCirculantSpec",
    "materialize_toeplitz",
    "materialize_circulant",
    "embed_toeplitz",
    "exchange_transform",
    "expand_symmetric_circulant",
    "fourier_matrix",
]


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Ordered real coefficients xi_j, addressable from ``index_origin``.

    A Toeplitz matrix of size n stores its 2n-1 coefficients with
    ``index_origin = -(n-1)`` so that ``xi(j)`` works for j in [-(n-1), n-1];
    circulant first rows use the default origin 0.
    """

    values: np.ndarray
    index_origin: int = 0

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("coefficient sequence must be a non-empty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficient sequence contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "index_origin", int(self.index_origin))

    def __len__(self) -> int:
        return self.values.size

    @property
    def min_index(self) -> int:
        return self.index_origin

    @property
    def max_index(self) -> int:
        return self.index_origin + self.values.size - 1

    def xi(self, j: int) -> float:
        """Coefficient xi_j."""
        if not self.min_index <= j <= self.max_index:
            raise IndexError(f"xi_{j} outside stored range [{self.min_index}, {self.max_index}]")
        return float(self.values[j - self.index_origin])

    def to_csv(self, path) -> None:
        """Write ``xi_index,value`` rows, one coefficient per line."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["xi_index", "value"])
            for off, v in enumerate(self.values):
                w.writerow([self.index_origin + off, repr(float(v))])

    @classmethod
    def from_csv(cls, path) -> "CoefficientSequence":
        """Read a sequence written by :meth:`to_csv` (replaying a trial)."""
        indices = []
        values = []
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            if [h.strip() for h in header] != ["xi_index", "value"]:
                raise ValueError(f"unexpected coefficient CSV header {header!r}")
            for row in r:
                if not row:
                    continue
                indices.append(int(row[0]))
                values.append(float(row[1]))
        if not indices:
            raise ValueError("empty coefficient CSV")
        origin = indices[0]
        if indices != list(range(origin, origin + len(indices))):
            raise ValueError("coefficient CSV indices must be consecutive")
        return cls(np.asarray(values), origin)


@dataclass(frozen=True, eq=False)
class ToeplitzSpec:
    """Size-n Toeplitz matrix with entry (i, j) = xi_{j-i}."""

    n: int
    coeffs: CoefficientSequence
    symmetric: bool = False

    def __post_init__(self):
        n = int(self.n)
        object.__setattr__(self, "n", n)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.coeffs) != 2 * n - 1 or self.coeffs.index_origin != -(n - 1):
            raise ValueError(
                f"Toeplitz spec of size {n} needs {2 * n - 1} coefficients "
                f"indexed from {-(n - 1)}"
            )
        if self.symmetric and not np.array_equal(self.coeffs.values, self.coeffs.values[::-1]):
            raise ValueError("symmetric Toeplitz spec requires xi_{-j} = xi_j")


@dataclass(frozen=True, eq=False)
class CirculantSpec:
    """Size-n circulant matrix with entry (i, j) = xi_{(j-i) mod n}."""

    n: int
    first_row: CoefficientSequence

    def __post_init__(self):
        n = int(self.n)
        object.__setattr__(self, "n", n)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.first_row) != n or self.first_row.index_origin != 0:
            raise ValueError(f"circulant spec of size {n} needs {n} coefficients at origin 0")


@dataclass(frozen=True, eq=False)
class SymmetricCirculantSpec:
    """Symmetric circulant given by its floor(n/2)+1 free coefficients xi_0..xi_{floor(n/2)}.

    The remaining first-row entries are forced by xi_j = xi_{n-j}.
    """

    n: int
    free_coeffs: CoefficientSequence

    def __post_init__(self):
        n = int(self.n)
        object.__setattr__(self, "n", n)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        expected = n // 2 + 1
        if len(self.free_coeffs) != expected or self.free_coeffs.index_origin != 0:
            raise ValueError(
                f"symmetric circulant of size {n} needs {expected} free coefficients at origin 0"
            )


def materialize_toeplitz(spec: ToeplitzSpec) -> np.ndarray:
    """Dense n x n matrix with (i, j) entry xi_{j-i}."""
    n = spec.n
    j = np.arange(n)
    idx = (j[None, :] - j[:, None]) + (n - 1)
    return spec.coeffs.values[idx]


def materialize_circulant(spec: CirculantSpec, columns: int | None = None) -> np.ndarray:
    """Dense n x n matrix; row i is the first row cyclically shifted right by i.

    With ``columns`` = k (1 <= k <= n) only the first k columns are gathered,
    as an n x k array equal to the full matrix's ``[:, :k]``.
    """
    n = spec.n
    k = n if columns is None else int(columns)
    if not 1 <= k <= n:
        raise ValueError(f"columns needs a value in [1, {n}], got {columns!r}")
    i, j = np.arange(n), np.arange(k)
    idx = (j[None, :] - i[:, None]) % n
    return spec.first_row.values[idx]


def embed_toeplitz(spec: ToeplitzSpec, xi_star: float) -> CirculantSpec:
    """Embed T_n into the circulant C_2n = [[T, B], [B, T]].

    The first row of C_2n is (xi_0, ..., xi_{n-1}, xi_*, xi_{-n+1}, ..., xi_{-1});
    B is the Toeplitz block whose diagonal holds the free entry xi_*.  The
    top-left n x n block of the materialized C_2n recovers T_n bit-exactly,
    and the first n columns are the stacked pair [T; B].
    """
    xi_star = float(xi_star)
    if not np.isfinite(xi_star):
        raise ValueError("xi_star must be finite")
    vals = spec.coeffs.values
    n = spec.n
    row = np.concatenate([vals[n - 1 :], [xi_star], vals[: n - 1]])
    return CirculantSpec(2 * n, CoefficientSequence(row))


def exchange_transform(m: np.ndarray) -> np.ndarray:
    """Apply the exchange matrix J (row reversal): returns J @ m.

    J^2 = I, so applying the transform twice restores the input; JH of a
    Hankel matrix H is Toeplitz and shares its singular values.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"exchange transform needs a square matrix, got {m.shape}")
    return m[::-1].copy()


def expand_symmetric_circulant(spec: SymmetricCirculantSpec) -> CirculantSpec:
    """Full first row with xi_j = xi_{n-j}; the materialized matrix is symmetric."""
    n = spec.n
    free = spec.free_coeffs.values
    h = n // 2
    row = np.empty(n)
    row[: h + 1] = free
    row[h + 1 :] = free[1 : n - h][::-1]
    return CirculantSpec(n, CoefficientSequence(row))


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F with entries exp(-2i pi jk / n) / sqrt(n).

    This sign convention is the one under which a circulant with first row
    (xi_0, ..., xi_{n-1}) factors exactly as C = F* diag(lambda) F with
    lambda_k = sum_j xi_j exp(+2i pi jk / n); the conjugate choice would
    produce C^T instead for non-symmetric C.
    """
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    j = np.arange(n)
    return np.exp(-2j * np.pi / n * np.outer(j, j)) / np.sqrt(n)
