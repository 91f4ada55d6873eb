"""Spectral engine: circulant eigenvalues, dense SVD, Schur block and its sigma_min, interlacing.

Eigenvalue vectors are complex arrays in DFT order (index k matters and is
never sorted); singular value vectors are real arrays sorted descending.  The
dense matrices (T_n, C_2n and the Schur block S_n) are real ``float64``, and
the dense routines accept real input only.

Experiment runs enter :func:`single_blas_thread`, so their LAPACK results do
not depend on the BLAS thread count and worker threads are the only source
of parallelism.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, solve_toeplitz
from scipy.linalg.lapack import dgejsv

from .matrices import (
    CirculantSpec,
    SymmetricCirculantSpec,
    ToeplitzSpec,
    embed_toeplitz,
    materialize_circulant,
    materialize_toeplitz,
)

__all__ = [
    "SingularEmbeddingError",
    "ConvergenceError",
    "single_blas_thread",
    "blas_thread_counts",
    "ConditionReport",
    "SchurBlock",
    "SigmaMinResult",
    "InterlacingReport",
    "circulant_eigenvalues",
    "symmetric_circulant_eigenvalues",
    "circulant_extremes",
    "dense_svd",
    "sigma_min_fast",
    "schur_sigma_min",
    "build_schur_block",
    "schur_block_oracle",
    "verify_interlacing",
    "cauchy_interlacing_check",
    "spectrum_to_csv",
    "singular_values_to_csv",
    "schur_block_to_csv",
]


class SingularEmbeddingError(ValueError):
    """Raised when some |G_2n(w^k)| falls at or below the singular tolerance."""

    def __init__(self, index: int, magnitude: float):
        self.index = int(index)
        self.magnitude = float(magnitude)
        super().__init__(f"singular embedding: |G(w^{index})| = {magnitude:.3e}")

    def __reduce__(self):
        # rebuild from the constructor's arguments, not from the message in args
        return type(self), (self.index, self.magnitude)


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its sweep/iteration budget."""


_PROC_MAPS = "/proc/self/maps"
# thread getter/setter names of numpy's 64-bit-integer build and scipy's build
_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


class _BlasBuild(NamedTuple):
    name: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def _openblas_builds() -> tuple[_BlasBuild, ...]:
    """The OpenBLAS builds mapped into this process, found once from its memory map."""
    try:
        with open(_PROC_MAPS) as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    builds = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _OPENBLAS_THREAD_SYMBOLS:
            get, put = (getattr(lib, pattern.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                builds.append(_BlasBuild(os.path.basename(path).split("-")[0], get, put))
                break
    return tuple(builds)


def blas_thread_counts() -> tuple[tuple[str, int], ...]:
    """(library name, current thread count) for each OpenBLAS build found; empty if none."""
    return tuple((b.name, b.get_threads()) for b in _openblas_builds())


@contextmanager
def single_blas_thread():
    """Run the block with every OpenBLAS build on one thread; the old counts return on exit.

    The builds (numpy's and scipy's, which keep separate thread pools) are
    found on first use through ``/proc/self/maps`` and cached.  Thread counts
    are process-wide, so worker threads started inside the block run their
    BLAS calls single-threaded too.  Where no build is found (another BLAS,
    or no ``/proc``) the block runs unpinned and nothing is raised.
    """
    builds = _openblas_builds()
    old = [b.get_threads() for b in builds]
    for b in builds:
        b.set_threads(1)
    try:
        yield
    finally:
        for b, count in zip(builds, old):
            b.set_threads(count)


def default_singular_tolerance(eigenvalues: np.ndarray) -> float:
    """Dimension-scaled cutoff separating exact zeros from roundoff: 1e-12 * n * max|lambda|."""
    return 1e-12 * eigenvalues.size * float(np.max(np.abs(eigenvalues)))


def circulant_eigenvalues(spec: CirculantSpec) -> np.ndarray:
    """Eigenvalues lambda_k = sum_j xi_j exp(2i pi jk / n), k = 0..n-1, via FFT."""
    return np.fft.ifft(spec.first_row.values) * spec.n


def symmetric_circulant_eigenvalues(spec: SymmetricCirculantSpec) -> np.ndarray:
    """Real eigenvalues of a symmetric circulant by the cosine formulas.

    n odd:  lambda_k = xi_0 + 2 sum_{j=1}^{floor(n/2)} xi_j cos(2 pi k j / n)
    n even: lambda_k = xi_0 + 2 sum_{j=1}^{n/2-1} xi_j cos(2 pi k j / n) + (-1)^k xi_{n/2}

    Satisfies lambda_k = lambda_{n-k} and agrees with ``circulant_eigenvalues``
    on the expanded first row to 1e-10.
    """
    n = spec.n
    free = spec.free_coeffs.values
    h = n // 2
    k = np.arange(n)
    top = h if n % 2 == 1 else h - 1
    lam = np.full(n, free[0])
    if top >= 1:
        j = np.arange(1, top + 1)
        lam = lam + 2.0 * np.cos(2.0 * np.pi / n * np.outer(k, j)) @ free[1 : top + 1]
    if n % 2 == 0 and n >= 2:
        lam = lam + np.where(k % 2 == 0, 1.0, -1.0) * free[h]
    return lam


@dataclass(frozen=True)
class ConditionReport:
    """Extreme singular values and condition number; kappa is inf when singular."""

    sigma_max: float
    sigma_min: float
    kappa: float
    singular: bool


def circulant_extremes(eigenvalues: np.ndarray, singular_tolerance: float | None = None) -> ConditionReport:
    """Extremes from a circulant spectrum: normality gives sigma = |lambda|."""
    eigenvalues = np.asarray(eigenvalues)
    if eigenvalues.size == 0:
        raise ValueError("empty spectrum")
    mags = np.abs(eigenvalues)
    smax = float(mags.max())
    smin = float(mags.min())
    if singular_tolerance is None:
        singular_tolerance = default_singular_tolerance(eigenvalues)
    singular = smin <= singular_tolerance
    kappa = np.inf if singular else smax / smin
    return ConditionReport(smax, smin, kappa, singular)


def _real_matrix(m, what: str) -> np.ndarray:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise TypeError(f"{what} takes real input only, got {m.dtype}")
    return m


def dense_svd(m: np.ndarray) -> np.ndarray:
    """Singular values of a real matrix by LAPACK ``dgejsv``, sorted descending.

    ``dgejsv`` is the preconditioned one-sided Jacobi SVD of Drmac and
    Veselic (SIAM J. Matrix Anal. Appl. 29(4), 2008).  With ``joba='C'`` and
    no truncation of small columns it keeps high relative accuracy in the
    small singular values of column-scaled matrices.  Wide input is
    transposed, which leaves the singular values unchanged.

    Raises :class:`TypeError` on complex input and :class:`ConvergenceError`
    when LAPACK reports that the Jacobi sweeps did not converge.
    """
    m = _real_matrix(m, "dense_svd")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    a = np.asarray(m if m.shape[0] >= m.shape[1] else m.T, dtype=np.float64)
    rows, n = a.shape
    # joba=0 ('C'), jobu=jobv=3 (no vectors), jobr=0 (keep tiny columns), jobp=0
    sva, _, _, work, _, info = dgejsv(a, joba=0, jobu=3, jobv=3, jobr=0, jobp=0)
    if info > 0:
        raise ConvergenceError(f"dgejsv did not converge for a {rows}x{n} matrix (info={info})")
    if info < 0:
        raise ValueError(f"dgejsv rejected argument {-info}")
    return sva * (work[1] / work[0])


@dataclass(frozen=True)
class SigmaMinResult:
    """Smallest singular value from an inverse-iteration path.

    ``iterations`` counts block iterations and ``residual`` is the last
    relative Ritz residual ||H^{-1} u - mu u|| / mu (both 0 when no iteration
    ran).  ``used_fallback`` marks a value from the dense SVD after the
    iteration budget ran out; ``structured_fallback`` marks a
    :func:`schur_sigma_min` value that came from the LU path because the
    structured kernel failed or failed its guard.
    """

    value: float
    singular: bool = False
    used_fallback: bool = False
    iterations: int = 0
    residual: float = 0.0
    structured_fallback: bool = False


_INVITER_SEED = 0x5159A17E


class _RitzPair(NamedTuple):
    mu: float
    iterations: int
    residual: float
    vector: np.ndarray | None  # None unless the certificate was met
    block: np.ndarray          # the last orthonormal block V


def _start_block(n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_INVITER_SEED)))
    v, _ = np.linalg.qr(rng.standard_normal((n, min(2, n))))
    return v


def _top_ritz_pair(apply_hinv: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                   tol: float, max_iter: int) -> _RitzPair:
    """Width-two block power iteration for the largest eigenvalue of H^{-1} = (m^T m)^{-1}.

    ``apply_hinv`` maps an n x 2 block to H^{-1} times it, and ``v`` is the
    orthonormal start block.  A two-dimensional block keeps the convergence
    rate at (sigma_min / sigma_3)^2 even when the two smallest singular
    values are nearly tied, which stalls a single vector.  The Rayleigh-Ritz
    value mu estimates 1 / sigma_min^2 and the Ritz residual
    ||H^{-1} u - mu u|| certifies its error to within ``tol * mu``.
    """
    rel = np.inf
    for it in range(1, max_iter + 1):
        z = apply_hinv(v)
        b = v.T @ z
        b = (b + b.T) / 2.0
        theta, y = np.linalg.eigh(b)
        mu = float(theta[-1])
        if not np.isfinite(mu) or mu <= 0.0:
            return _RitzPair(mu, it, np.inf, None, v)
        ritz = v @ y[:, -1]
        resid = float(np.linalg.norm(z @ y[:, -1] - mu * ritz))
        rel = resid / mu
        if resid <= tol * mu:
            return _RitzPair(mu, it, rel, ritz, v)
        v, _ = np.linalg.qr(z)
    return _RitzPair(mu, max_iter, rel, None, v)


def sigma_min_fast(m: np.ndarray, tol: float = 1e-10, max_iter: int = 500) -> SigmaMinResult:
    """Smallest singular value via LU with partial pivoting plus inverse iteration.

    The block iteration of :func:`_top_ritz_pair` runs on (m^T m)^{-1}
    through the factorization's triangular solves (one step per column is
    w = m^{-T} v, z = m^{-1} w).  An exactly singular LU (zero pivot) returns
    the ``singular`` flag; exceeding ``max_iter`` iterations falls back to
    :func:`dense_svd`, whose LAPACK cost is O(n^3).  Raises
    :class:`TypeError` on complex input.
    """
    m = _real_matrix(m, "sigma_min_fast")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    with warnings.catch_warnings():
        # an exactly zero pivot is handled via the singular flag below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m, check_finite=False)
    if float(np.min(np.abs(np.diag(lu)))) == 0.0:
        return SigmaMinResult(0.0, singular=True)

    def apply_hinv(v):
        w = lu_solve((lu, piv), v, trans=1, check_finite=False)
        return lu_solve((lu, piv), w, trans=0, check_finite=False)

    pair = _top_ritz_pair(apply_hinv, _start_block(m.shape[0]), tol, max_iter)
    if pair.vector is not None:
        return SigmaMinResult(1.0 / np.sqrt(pair.mu), iterations=pair.iterations, residual=pair.residual)
    sv = dense_svd(m)
    return SigmaMinResult(float(sv[-1]), used_fallback=True, iterations=pair.iterations,
                          residual=pair.residual)


@dataclass(frozen=True, eq=False)
class SchurBlock:
    """Trailing n x n block of C_2n^{-1} with the two spectral weight lists.

    ``matrix`` is real ``float64``, as C_2n is.  ``diag1`` and ``diag2`` hold the reciprocal eigenvalues 1/G_2n(w^k) for
    k = 0..n-1 and k = n..2n-1, the diagonals of the blocked spectral factor.
    """

    n: int
    matrix: np.ndarray
    diag1: np.ndarray
    diag2: np.ndarray


def _inverse_circulant_row(lam: np.ndarray,
                           singular_tolerance: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal spectrum 1/lambda and the first row of C_2n^{-1}.

    The (i, j) entry of C_2n^{-1} is row[(j - i) mod 2n], so its trailing
    n x n block equals the leading one and is Toeplitz.  C_2n is real, so the
    row is real up to roundoff in its imaginary part, which is dropped.
    """
    if singular_tolerance is None:
        singular_tolerance = default_singular_tolerance(lam)
    mags = np.abs(lam)
    bad = np.flatnonzero(mags <= singular_tolerance)
    if bad.size:
        k = int(bad[0])
        raise SingularEmbeddingError(k, float(mags[k]))
    weights = 1.0 / lam
    return weights, (np.fft.fft(weights) / lam.size).real


def _toeplitz_block(row: np.ndarray) -> np.ndarray:
    n = row.size // 2
    j = np.arange(n)
    return row[(j[None, :] - j[:, None]) % row.size]


def _schur_from_eigenvalues(lam: np.ndarray, singular_tolerance: float | None = None) -> SchurBlock:
    n = lam.size // 2
    weights, row = _inverse_circulant_row(lam, singular_tolerance)
    return SchurBlock(n, _toeplitz_block(row), weights[:n].copy(), weights[n:].copy())


def build_schur_block(spec: CirculantSpec, singular_tolerance: float | None = None) -> SchurBlock:
    """Assemble S_n from the Fourier block partition of C_2n^{-1}.

    With F the unitary DFT matrix of size 2n partitioned into n x n blocks
    [[F1, F2], [F3, F4]], the trailing block of C^{-1} = F* diag(1/lambda) F
    is S = F2* D1 F2 + F4* D2 F4 with D1, D2 the two halves of the reciprocal
    spectrum.  That sum collapses to the inverse DFT of the reciprocal
    eigenvalues, which is how it is evaluated here; ``schur_block_oracle``
    checks the result against dense inversion.

    Raises :class:`SingularEmbeddingError` if any |G_2n(w^k)| is at or below
    the tolerance (default ``1e-12 * 2n * max|lambda|``).
    """
    if spec.n % 2 != 0:
        raise ValueError("Schur block needs an even-dimensional circulant (size 2n)")
    lam = circulant_eigenvalues(spec)
    return _schur_from_eigenvalues(lam, singular_tolerance)


_GS_BACKWARD_TOL = 1e-12
_GS_SINGULAR_RATIO = 1e-8


def _schur_matvec(weights: np.ndarray, v: np.ndarray, trans: bool = False) -> np.ndarray:
    """S v (S^T v when ``trans``) for the n x n Schur block S and an n x k block v.

    S v is the first n entries of C_2n^{-1} [v; 0], one length-2n real FFT
    product with the reciprocal spectrum ``weights`` = 1/lambda (its
    conjugate for S^T); C_2n is real, so half of the spectrum suffices.
    """
    big_n = weights.size
    n = big_n // 2
    w = weights[: n + 1, None]
    if trans:
        w = w.conj()
    return np.fft.irfft(np.fft.rfft(v, big_n, axis=0) * w, big_n, axis=0)[:n]


class _GohbergSemencul:
    """Products with S^{-1} and S^{-T} for the Toeplitz Schur block S of C_2n^{-1}.

    Levinson (``scipy.linalg.solve_toeplitz``) gives x = S^{-1} e_0 and
    y = S^{-1} e_{n-1}; then, with L(v) / U(v) the lower / upper triangular
    Toeplitz matrices with first column / row v, J the reversal and Z the
    down-shift, S^{-1} = (L(x) U(Jy) - L(Zy) U(ZJx)) / x_0 (Gohberg and
    Semencul, Mat. Issled. 7(2), 1972), and S^{-T} swaps the roles of the L
    and U generators.  U(w) u = J L(w) J u, and L(w) u is the head of a
    linear convolution, so every factor is a length-2n FFT product.

    Levinson is not backward stable on an indefinite nonsymmetric block, so
    x and y get one step of iterative refinement against the exact FFT
    product with S (:func:`_schur_matvec`) before they become the
    generators.  ``apply_inverse`` evaluates the formula alone, whose error
    grows with the condition of S; ``solve`` adds one refinement step and is
    as accurate as an LU solve.

    The constructor raises ``LinAlgError`` when Levinson meets a singular
    leading minor; ``ok`` is False when x_0 or a generator is not a usable
    finite number.  ``scale`` is the 2-norm of the 2n - 1 distinct entries.
    """

    def __init__(self, weights: np.ndarray, row: np.ndarray):
        big_n = row.size
        n = big_n // 2
        self.n, self.big_n = n, big_n
        col = row[-np.arange(n) % big_n]
        self.scale = float(np.sqrt(np.dot(col, col) + np.dot(row[1:n], row[1:n])))
        self._weights = weights
        rhs = np.zeros((n, 2))
        rhs[0, 0] = rhs[n - 1, 1] = 1.0
        xy = solve_toeplitz((col, row[:n]), rhs, check_finite=False)
        self._set_generators(xy)
        xy = xy + self.apply_inverse(rhs - _schur_matvec(weights, xy))
        self._set_generators(xy)
        self.ok = bool(np.all(np.isfinite(xy))) and xy[0, 0] != 0.0

    def _set_generators(self, xy: np.ndarray) -> None:
        n = self.n
        x, y = xy[:, 0], xy[:, 1]
        gens = np.zeros((self.big_n, 4))
        gens[:n, 0] = x
        gens[1:n, 1] = y[:-1]          # Zy
        gens[:n, 2] = y[::-1]          # Jy
        gens[1:n, 3] = x[:0:-1]        # ZJx
        self._x0 = x[0]
        self._gens = np.fft.rfft(gens, axis=0).T[:, :, None]  # (4, n + 1, 1)

    def apply_inverse(self, v: np.ndarray, trans: bool = False) -> np.ndarray:
        """S^{-1} v (S^{-T} v when ``trans``) for an n x k block v, by the formula alone."""
        n, big_n = self.n, self.big_n
        lx, lzy, ujy, uzjx = self._gens
        if trans:
            lx, lzy, ujy, uzjx = ujy, uzjx, lx, lzy
        spec = np.fft.rfft(v[::-1], big_n, axis=0)
        ab = np.fft.irfft(np.stack([ujy * spec, uzjx * spec]), big_n, axis=1)[:, n - 1 :: -1]
        ab = np.fft.rfft(ab, big_n, axis=1)
        return np.fft.irfft(lx * ab[0] - lzy * ab[1], big_n, axis=0)[:n] / self._x0

    def solve(self, v: np.ndarray, trans: bool = False) -> np.ndarray:
        """S^{-1} v (S^{-T} v when ``trans``) for an n x k block v, refined once."""
        z = self.apply_inverse(v, trans)
        return z + self.apply_inverse(v - _schur_matvec(self._weights, z, trans), trans)

    def backward_error(self, z: np.ndarray, v: np.ndarray, trans: bool = False) -> float:
        """||S z - v|| / (scale * ||z||), with S^T for ``trans``; NaN when z is not finite."""
        residual = _schur_matvec(self._weights, z, trans) - v
        return float(np.linalg.norm(residual) / (self.scale * np.linalg.norm(z)))


def _structured_sigma_min(weights: np.ndarray, row: np.ndarray) -> SigmaMinResult | None:
    """sigma_min of the Toeplitz block by Gohberg-Semencul solves, or None when a guard fails."""
    gs = _GohbergSemencul(weights, row)
    if not gs.ok:
        return None
    # Unrefined solves find the subspace; their error grows with the
    # condition of S, so refined solves, restarted from that subspace,
    # certify the value.  Tolerance and budget are sigma_min_fast's defaults.
    rough = _top_ritz_pair(lambda v: gs.apply_inverse(gs.apply_inverse(v, trans=True)),
                           _start_block(gs.n), 1e-10, 500)
    if rough.vector is None:
        return None
    pair = _top_ritz_pair(lambda v: gs.solve(gs.solve(v, trans=True)), rough.block, 1e-10, 500)
    if pair.vector is None:
        return None
    sigma = 1.0 / np.sqrt(pair.mu)
    if not sigma >= _GS_SINGULAR_RATIO * gs.scale:
        return None
    u = pair.vector[:, None]
    w = gs.solve(u, trans=True)
    z = gs.solve(w)
    worst = max(gs.backward_error(w, u, trans=True), gs.backward_error(z, w))
    if not worst <= _GS_BACKWARD_TOL:
        return None
    return SigmaMinResult(sigma, iterations=rough.iterations + pair.iterations, residual=pair.residual)


def schur_sigma_min(lam: np.ndarray) -> SigmaMinResult:
    """sigma_min of the Schur block S_n straight from the spectrum of C_2n, never forming S_n.

    S_n is Toeplitz, with entries from the first row of C_2n^{-1}.  Levinson
    on S_n, refined once against the exact FFT product with S_n, gives the
    Gohberg-Semencul generators of S_n^{-1}, so every step of the
    :func:`sigma_min_fast` block iteration (same start, certificate and
    tolerance) is a few length-2n real FFTs: no O(n^2) memory, and LAPACK
    only on n x 2 blocks.  The iteration runs on the plain formula until its certificate
    holds, then continues from that subspace with every solve refined once,
    until the certificate holds again (usually after one step).  The leading
    k x k minors of S_n are det(Toeplitz section of C_2n of size 2n - k) /
    det C_2n by Jacobi's complementary-minor identity, so Levinson rarely
    meets a singular one even for the discrete laws.

    Guard: the result stands only if the iteration converged, sigma_min is
    at least 1e-8 times the norm ||s|| of the 2n - 1 block entries (below
    that the block is singular to working precision and either path returns
    roundoff), and the two solves on the final Ritz vector have a relative
    backward error ||S w - b|| / (||s|| ||w||) of at most 1e-12.
    Otherwise, or when Levinson raises ``LinAlgError``, the block is gathered
    and :func:`sigma_min_fast` (LU) answers, with ``structured_fallback`` set.
    Raises :class:`SingularEmbeddingError` like :func:`build_schur_block` at
    its default tolerance.
    """
    lam = np.asarray(lam)
    if lam.size < 2 or lam.size % 2 != 0:
        raise ValueError("Schur block needs an even-dimensional circulant (size 2n)")
    weights, row = _inverse_circulant_row(lam, None)
    try:
        with np.errstate(all="ignore"):  # a failed Levinson shows up in the guard
            res = _structured_sigma_min(weights, row)
    except np.linalg.LinAlgError:
        res = None
    if res is not None:
        return res
    return replace(sigma_min_fast(_toeplitz_block(row)), structured_fallback=True)


def schur_block_oracle(spec: CirculantSpec) -> SchurBlock:
    """Reference S_n: materialize C_2n, invert densely, extract the trailing block."""
    if spec.n % 2 != 0:
        raise ValueError("Schur block needs an even-dimensional circulant (size 2n)")
    n = spec.n // 2
    c = materialize_circulant(spec)
    inv = np.linalg.inv(c)
    lam = circulant_eigenvalues(spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = 1.0 / lam
    return SchurBlock(n, inv[n:, n:].copy(), weights[:n], weights[n:])


@dataclass(frozen=True, eq=False)
class InterlacingReport:
    """Margins for the circulant-embedding singular value inequalities.

    clause_a: sigma_max(C_2n) >= sigma_max([T; B]) and sigma_n([T; B]) >= sigma_min(C_2n)
    clause_b: sigma_i(T_n) <= sigma_i(C_2n) for every i
    clause_c: sigma_min(C)^2 sigma_i(S) <= sigma_i(T) <= sigma_max(C)^2 sigma_i(S)

    Margins are the smallest slacks (negative means violated beyond
    tolerance); clause_c is ``None`` when the embedding is singular.
    """

    clause_a: bool
    clause_b: bool
    clause_c: bool | None
    margin_a: float
    margin_b: float
    margin_c: float | None
    singular_embedding: bool
    sigma_c: np.ndarray
    sigma_t: np.ndarray
    sigma_a: np.ndarray
    sigma_s: np.ndarray | None

    @property
    def ok(self) -> bool:
        return self.clause_a and self.clause_b and self.clause_c is not False


def verify_interlacing(spec: ToeplitzSpec, xi_star: float, rtol: float = 1e-8) -> InterlacingReport:
    """Check the embedding inequalities for one Toeplitz draw at tolerance rtol * sigma_max(C_2n)."""
    n = spec.n
    cspec = embed_toeplitz(spec, xi_star)
    lam = circulant_eigenvalues(cspec)
    sigma_c = np.sort(np.abs(lam))[::-1]
    tol = rtol * float(sigma_c[0]) if sigma_c[0] > 0 else rtol
    cmat = materialize_circulant(cspec)
    stack = cmat[:, :n]  # the first n columns of C_2n are exactly [T; B]
    sigma_a = dense_svd(stack)
    sigma_t = dense_svd(materialize_toeplitz(spec))

    margin_a = min(
        float(sigma_c[0] - sigma_a[0]),
        float(sigma_a[n - 1] - sigma_c[-1]),
    )
    clause_a = margin_a >= -tol

    margin_b = float(np.min(sigma_c[:n] - sigma_t))
    clause_b = margin_b >= -tol

    sigma_s = None
    margin_c = None
    clause_c: bool | None = None
    singular = False
    try:
        block = _schur_from_eigenvalues(lam)
    except SingularEmbeddingError:
        singular = True
    else:
        sigma_s = dense_svd(block.matrix)
        lower = float(sigma_c[-1]) ** 2 * sigma_s
        upper = float(sigma_c[0]) ** 2 * sigma_s
        margin_c = min(float(np.min(sigma_t - lower)), float(np.min(upper - sigma_t)))
        clause_c = margin_c >= -tol

    return InterlacingReport(
        clause_a=clause_a,
        clause_b=clause_b,
        clause_c=clause_c,
        margin_a=margin_a,
        margin_b=margin_b,
        margin_c=margin_c,
        singular_embedding=singular,
        sigma_c=sigma_c,
        sigma_t=sigma_t,
        sigma_a=sigma_a,
        sigma_s=sigma_s,
    )


def cauchy_interlacing_check(m: np.ndarray, rtol: float = 1e-9) -> bool:
    """Verify singular value interlacing across all column prefixes of m.

    For A_r the first r columns, checks sigma_i(A_{r+1}) >= sigma_i(A_r) >=
    sigma_{i+1}(A_{r+1}) for every r and i, at tolerance rtol * sigma_1(m).
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError(f"need rows >= cols, got shape {m.shape}")
    cols = m.shape[1]
    prefix_svs = [dense_svd(m[:, : r + 1]) for r in range(cols)]
    tol = rtol * float(prefix_svs[-1][0])
    for r in range(cols - 1):
        small = prefix_svs[r]
        big = prefix_svs[r + 1]
        if np.any(big[: r + 1] < small - tol):
            return False
        if np.any(small < big[1 : r + 2] - tol):
            return False
    return True


def spectrum_to_csv(eigenvalues: np.ndarray, path) -> None:
    """Write ``k,re,im`` rows in DFT order."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.complex128)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im"])
        for k, lam in enumerate(eigenvalues):
            w.writerow([k, repr(float(lam.real)), repr(float(lam.imag))])


def singular_values_to_csv(values: np.ndarray, path) -> None:
    """Write ``i,sigma`` rows, i = 1-based rank."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "sigma"])
        for i, s in enumerate(np.asarray(values, dtype=float), start=1):
            w.writerow([i, repr(float(s))])


def schur_block_to_csv(block: SchurBlock, path) -> None:
    """Write the block in long form ``i,j,re,im`` for cross-tool inspection."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "re", "im"])
        for i in range(block.n):
            for j in range(block.n):
                z = block.matrix[i, j]
                w.writerow([i, j, repr(float(z.real)), repr(float(z.imag))])
