"""Arithmetic-structure verifiers: lattice distances, LCD estimates, gcd census,
Levy concentration, and the cosine-vector distance lemmas.

The least common denominator of V at level L is
    D(V, L) = inf { ||theta|| > 0 : dist(V^T theta, Z^n) < L sqrt(log+ (||V^T theta|| / L)) }.
The infimum over real theta is not exactly computable, so LCD estimates are
reported as an interval: a grid-certified lower bound plus a witness that
satisfies the defining inequality strictly.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "dist_to_lattice",
    "LcdEstimate",
    "lcd_vector",
    "lcd_matrix2",
    "vk_matrix",
    "CosineVectorSpec",
    "cosine_vector",
    "LemmaCheck",
    "verify_cosine_distance_full",
    "verify_cosine_distance_half",
    "sweep_cosine_full",
    "sweep_cosine_half",
    "lemma_rows_to_csv",
    "GcdCensus",
    "gcd_census",
    "gcd_census_sweep",
    "gcd_census_to_csv",
    "ConcentrationEstimate",
    "levy_concentration",
    "ConditionHReport",
    "condition_h_check",
]


def dist_to_lattice(v: np.ndarray) -> float:
    """Euclidean distance from v to the integer lattice Z^n.

    Coordinate-wise rounding is the exact minimizer, so this equals
    sqrt(sum_j min(frac_j, 1 - frac_j)^2).
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return float(np.linalg.norm(v - np.rint(v)))


def _log_plus(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.maximum(np.log(x, where=x > 0, out=np.full_like(x, -np.inf)), 0.0)


@dataclass(frozen=True, eq=False)
class LcdEstimate:
    """Interval estimate of the least common denominator.

    ``lower_bound`` is certified (simple column-norm bound plus the
    exhaustively refuted grid prefix); ``upper_witness`` is a scalar theta
    (vector case) or a length-2 array Theta (matrix case) that satisfies the
    defining inequality strictly, with its lattice distance, or None if the
    scan found none.
    """

    lower_bound: float
    upper_witness: float | np.ndarray | None
    witness_distance: float | None
    L: float
    search_resolution: float

    def __post_init__(self):
        if self.upper_witness is not None:
            mag = (
                float(np.linalg.norm(self.upper_witness))
                if isinstance(self.upper_witness, np.ndarray)
                else abs(float(self.upper_witness))
            )
            if self.lower_bound > mag * (1 + 1e-12):
                raise ValueError("certified lower bound exceeds the witness magnitude")


def lcd_vector(
    v: np.ndarray,
    L: float,
    theta_max: float | None = None,
    step: float | None = None,
    chunk: int = 1 << 16,
) -> LcdEstimate:
    """Scan theta > 0 for the vector-form LCD of v at level L.

    The scan starts at the simple bound 1/(2 max|v_j|), below which no theta
    can qualify.  A grid interval [t, t+step] is refuted when
    dist(t v, Z^n) - ||v|| step >= L sqrt(log+(||v||(t+step)/L)), using that
    the lattice distance is ||v||-Lipschitz in theta and the right-hand side
    is nondecreasing.  The witness is the first grid point satisfying the
    strict inequality; boundary equality does not produce a witness.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0 or not np.any(v != 0.0):
        raise ValueError("need a nonzero 1-D vector")
    if L <= 0:
        raise ValueError("L must be positive")
    vmax = float(np.max(np.abs(v)))
    vnorm = float(np.linalg.norm(v))
    simple = 1.0 / (2.0 * vmax)
    if theta_max is None:
        theta_max = 4.0 * math.sqrt(v.size)
    if step is None:
        step = 1e-3 / vnorm
    if theta_max <= simple:
        raise ValueError(
            f"empty search range: theta_max {theta_max:g} <= simple bound {simple:g}"
        )
    count = int(math.floor((theta_max - simple) / step)) + 1

    lower = simple
    chain_alive = True
    witness = None
    witness_dist = None
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count))
        thetas = simple + idx * step
        x = thetas[:, None] * v[None, :]
        dists = np.linalg.norm(x - np.rint(x), axis=1)
        norms = thetas * vnorm
        rhs = L * np.sqrt(_log_plus(norms / L))
        hits = dists < rhs
        if chain_alive:
            rhs_next = L * np.sqrt(_log_plus((norms + step * vnorm) / L))
            refuted = dists - vnorm * step >= rhs_next
            if refuted.all():
                lower = float(thetas[-1] + step)
            else:
                k = int(np.argmin(refuted))
                lower = float(thetas[k]) if k > 0 else lower
                chain_alive = False
        if hits.any():
            h = int(np.argmax(hits))
            witness = float(thetas[h])
            witness_dist = float(dists[h])
            break
    lower = max(lower, simple)
    if witness is not None:
        lower = min(lower, witness)
    return LcdEstimate(lower, witness, witness_dist, float(L), float(step))


def _sigma1_2xn(vmat: np.ndarray) -> float:
    # Largest singular value of a 2 x n matrix from its 2x2 Gram.
    g = vmat @ vmat.T
    tr = float(g[0, 0] + g[1, 1])
    det = float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    disc = max(tr * tr - 4.0 * det, 0.0)
    return math.sqrt(max((tr + math.sqrt(disc)) / 2.0, 0.0))


def lcd_matrix2(
    vmat: np.ndarray,
    L: float,
    r_max: float | None = None,
    r_step: float | None = None,
    phi_step: float | None = None,
) -> LcdEstimate:
    """Polar grid search for the LCD of a 2 x n matrix.

    Theta = r (cos phi, sin phi); the radial prefix is certified with the
    conservative slack sigma_1(V) (r_step + (r + r_step) phi_step) covering
    both grid directions.  Same witness contract as :func:`lcd_vector`.
    """
    vmat = np.asarray(vmat, dtype=float)
    if vmat.ndim != 2 or vmat.shape[0] != 2 or vmat.shape[1] == 0:
        raise ValueError("need a 2 x n matrix")
    if L <= 0:
        raise ValueError("L must be positive")
    col_norms = np.linalg.norm(vmat, axis=0)
    vmax = float(col_norms.max())
    if vmax == 0.0:
        raise ValueError("zero matrix has no LCD scan range")
    sigma1 = _sigma1_2xn(vmat)
    simple = 1.0 / (2.0 * vmax)
    n = vmat.shape[1]
    if r_max is None:
        r_max = 4.0 * math.sqrt(n)
    if r_step is None:
        r_step = 1e-2 / sigma1
    if phi_step is None:
        phi_step = 2.0 * math.pi / 720.0
    if r_max <= simple:
        raise ValueError(f"empty search range: r_max {r_max:g} <= simple bound {simple:g}")

    phis = np.arange(0.0, 2.0 * math.pi, phi_step)
    dirs = np.stack([np.cos(phis), np.sin(phis)])  # 2 x nphi
    proj = vmat.T @ dirs  # n x nphi, unit-radius images of the columns

    lower = simple
    chain_alive = True
    witness = None
    witness_dist = None
    r = simple
    while r <= r_max:
        x = r * proj
        dists = np.linalg.norm(x - np.rint(x), axis=0)
        norms = r * np.linalg.norm(proj, axis=0)
        rhs = L * np.sqrt(_log_plus(norms / L))
        hits = dists < rhs
        if hits.any():
            h = int(np.argmax(hits))
            witness = r * dirs[:, h].copy()
            witness_dist = float(dists[h])
            break
        if chain_alive:
            slack = sigma1 * (r_step + (r + r_step) * phi_step)
            rhs_next = L * math.sqrt(max(math.log(max(sigma1 * (r + r_step) / L, 1e-300)), 0.0))
            if float(dists.min()) - slack >= rhs_next:
                lower = r + r_step
            else:
                chain_alive = False
        r += r_step
    lower = max(lower, simple)
    if witness is not None:
        lower = min(lower, float(np.linalg.norm(witness)))
    return LcdEstimate(lower, witness, witness_dist, float(L), float(r_step))


def vk_matrix(n: int, k: int) -> tuple[np.ndarray, float]:
    """The 2 x n cosine/sine matrix at x = k/n and det(V V^T).

    Rows are cos(2 pi j k / n) and sin(2 pi j k / n) for j = 0..n-1; for
    k not in {0, n/2} the Gram determinant equals n^2/4 exactly.
    """
    n = int(n)
    k = int(k)
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    if 2 * k == n:
        raise ValueError("k = n/2 degenerates the sine row")
    ang = 2.0 * math.pi * k / n * np.arange(n)
    v = np.stack([np.cos(ang), np.sin(ang)])
    g = v @ v.T
    det = float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    return v, det


@dataclass(frozen=True)
class CosineVectorSpec:
    """Entries r cos(2 pi j k / n - theta) over the full or half index range.

    Full range: j = 0..n-1.  Half range: j = 1..floor(n/2)-1, the variant
    appearing in the symmetric-circulant analysis.
    """

    n: int
    k: int
    theta: float = 0.0
    r: float = 1.0
    half_range: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.r <= 0:
            raise ValueError("scale r must be positive")
        if self.half_range and self.n // 2 - 1 < 1:
            raise ValueError("half-range vector needs n >= 4")


def cosine_vector(spec: CosineVectorSpec) -> np.ndarray:
    if spec.half_range:
        j = np.arange(1, spec.n // 2)
    else:
        j = np.arange(spec.n)
    return spec.r * np.cos(2.0 * math.pi * spec.k / spec.n * j - spec.theta)


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of a conditional distance-bound check.

    ``applicable`` is False when the precondition window is not met, in which
    case nothing is claimed (holds/margin are None); the lemmas are
    conditional statements, so out-of-window cases are never violations.
    """

    applicable: bool
    holds: bool | None
    distance: float | None
    bound: float | None
    margin: float | None


_NOT_APPLICABLE = LemmaCheck(False, None, None, None, None)


def verify_cosine_distance_full(spec: CosineVectorSpec) -> LemmaCheck:
    """Full-range check: dist(V, Z^m) >= (1/48) / (2 pi x), x = gcd(k, m)/m.

    Applicable when r >= 2 and 1/(2 r 2 pi x) >= 6 (the real-r >= 2 regime is
    admitted via the floor-r extension).  Reducing by the gcd relabels the
    polygon vertices, so only the reduced step x matters.
    """
    if spec.half_range:
        raise ValueError("full-range verifier got a half-range spec")
    x = math.gcd(spec.k if spec.k != 0 else spec.n, spec.n) / spec.n
    if spec.r < 2 or 1.0 / (2.0 * spec.r * 2.0 * math.pi * x) < 6.0:
        return _NOT_APPLICABLE
    bound = (1.0 / 48.0) / (2.0 * math.pi * x)
    distance = dist_to_lattice(cosine_vector(spec))
    margin = distance - bound
    return LemmaCheck(True, margin >= 0.0, distance, bound, margin)


def verify_cosine_distance_half(n: int, k: int, r: float) -> LemmaCheck:
    """Half-range check: dist(r v, Z^{floor(n/2)-1}) >= 1/(1728 pi x).

    v_j = cos(2 pi k j / n) for j = 1..floor(n/2)-1 and x = gcd(n, k)/n (the
    coprimality condition is dropped by reducing to n' = n/gcd).  Applicable
    when 1 <= r <= 1/(36 2 pi x).
    """
    n = int(n)
    k = int(k)
    if n < 4 or k < 1:
        return _NOT_APPLICABLE
    x = math.gcd(n, k) / n
    if not 1.0 <= r <= 1.0 / (36.0 * 2.0 * math.pi * x):
        return _NOT_APPLICABLE
    v = cosine_vector(CosineVectorSpec(n=n, k=k, half_range=True))
    distance = dist_to_lattice(r * v)
    bound = 1.0 / (1728.0 * math.pi * x)
    margin = distance - bound
    return LemmaCheck(True, margin >= 0.0, distance, bound, margin)


def sweep_cosine_full(m: int, r_values, theta_count: int) -> list[dict]:
    """Sweep the full-range verifier over a theta grid; rows for CSV export."""
    rows = []
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    for r in r_values:
        for i, theta in enumerate(thetas):
            chk = verify_cosine_distance_full(
                CosineVectorSpec(n=m, k=1, theta=float(theta), r=float(r))
            )
            rows.append(
                {
                    "case_id": f"cos-full-m{m}-r{r}-t{i}",
                    "m": m,
                    "r": r,
                    "theta": float(theta),
                    "applicable": chk.applicable,
                    "holds": chk.holds,
                    "margin": chk.margin,
                }
            )
    return rows


def sweep_cosine_half(n: int, k_values, r_values) -> list[dict]:
    """Sweep the half-range verifier over wavenumbers and scales."""
    rows = []
    for k in k_values:
        for r in r_values:
            chk = verify_cosine_distance_half(n, k, float(r))
            rows.append(
                {
                    "case_id": f"cos-half-n{n}-k{k}-r{r}",
                    "n": n,
                    "k": k,
                    "r": r,
                    "applicable": chk.applicable,
                    "holds": chk.holds,
                    "margin": chk.margin,
                }
            )
    return rows


def lemma_rows_to_csv(rows: Iterable[dict], path) -> tuple[int, int, int]:
    """Write sweep rows as ``case_id,params...,applicable,margin`` CSV.

    Rows are written as they arrive, so a generator sweep is never held in
    memory.  Returns ``(cases, applicable, violations)``.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ValueError("no rows to write")
    fields = list(first.keys())
    values = operator.itemgetter(*fields)  # a tuple: rows carry applicable and holds
    cases = applicable = violations = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for row in itertools.chain((first,), rows):
            w.writerow(values(row))
            cases += 1
            if row["applicable"]:
                applicable += 1
                violations += row["holds"] is False
    return cases, applicable, violations


def _factorize(m: int) -> list[tuple[int, int]]:
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return factors


@lru_cache(maxsize=4)
def _divisors_with_phi(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The divisors e of m in increasing order and the running sums of Euler
    # phi(e) over them, from 0; phi is built multiplicatively over the prime
    # powers from _factorize.  Cached like _gcd_table because point queries
    # ask for one M at several thresholds in a row.
    pairs = [(1, 1)]
    for p, k in _factorize(m):
        powers = [(p**i, p**i - p ** (i - 1)) for i in range(1, k + 1)]  # p^i, phi(p^i)
        pairs += [(e * q, ph * f) for q, f in powers for e, ph in pairs]
    divs, phis = zip(*sorted(pairs))
    return divs, (0, *itertools.accumulate(phis))


def _totients(n: int) -> np.ndarray:
    # Euler phi(e) for e = 0..n by a prime sieve, independent of _factorize.
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    phi = np.arange(n + 1, dtype=np.int64)
    for p in np.flatnonzero(prime).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def _totient_sums(phi: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # Row M - lo, column j: sum_{d | M, d >= y_j} phi(M/d) for lo <= M < hi at
    # the sweep thresholds y = 1, 2, sqrt(M), M.  Each divisor pair s * t = M
    # with s <= t gives the pairs (d, e) = (s, t) and, if s < t, (t, s); on a
    # pair, d >= sqrt(M) is d >= e and d >= M is e == 1.  The float64 sums are
    # exact: every partial sum is an integer <= M < 2**53.
    s = np.arange(1, math.isqrt(hi - 1) + 1)
    first = np.maximum(s, -(-lo // s))  # smallest t >= s with s * t >= lo
    count = np.maximum((hi - 1) // s - first + 1, 0)
    s = np.repeat(s, count)
    t = np.arange(s.size) + np.repeat(first - (np.cumsum(count) - count), count)
    swap = s < t
    d = np.concatenate((s, t[swap]))
    e = np.concatenate((t, s[swap]))
    m = d * e - lo
    weights = phi[e]
    sums = [np.bincount(m[keep], weights[keep], minlength=hi - lo)
            for keep in (slice(None), d >= 2, d >= e, e == 1)]
    return np.stack(sums, axis=1).astype(np.int64)


def _uint_dtype(n: int) -> np.dtype:
    # The narrowest unsigned integer dtype, from uint16 up, that holds every value 0..n.
    return np.dtype(np.uint16 if n <= 0xFFFF else np.uint32 if n <= 0xFFFFFFFF else np.uint64)


def _gcd_tables(lo: int, hi: int) -> np.ndarray:
    # Row M - lo holds gcd(k, M) for k = 1..floor((M-1)/2), zero-padded to the
    # widest row; the rest follows from gcd(M-k, M) = gcd(k, M).  gcd(k, M) is
    # the largest divisor of M that divides k.  One scan of M mod d over
    # 2 <= d <= s = isqrt(hi - 1) finds every divisor pair d * e = M with
    # d <= s; it is independent of _factorize and _totients, so the census
    # still checks the totient side rather than sharing its arithmetic.
    # Small divisors: the rows divisible by d step by d, so one strided write
    # marks the multiples of d in all of them, in increasing d so that the
    # largest is written last.  Co-divisors: the multiples j e <= (M-1)/2 of
    # e = M/d are those with j < d/2, written by maximum.at, so that an e <= s
    # changes nothing and the larger of two e wins where they share a k.
    # Every divisor of M up to half is a d or an e; divisor 1 is the fill.
    width = (hi - 2) // 2
    table = np.ones((hi - lo, width), dtype=_uint_dtype(width))
    dtype = _uint_dtype(hi - 1)
    m = np.arange(lo, hi, dtype=dtype)
    ds = np.arange(2, math.isqrt(hi - 1) + 1, dtype=dtype)
    rows, cols = (m[:, None] % ds == 0).nonzero()
    for d in sorted(set(ds[cols].tolist())):
        table[-lo % d :: d, d - 1 :: d] = d
    count = (cols + 1) >> 1  # (d - 1) // 2
    e = (m[rows] // ds[cols]).repeat(count)
    j = np.arange(1, e.size + 1) - (count.cumsum() - count).repeat(count)
    np.maximum.at(table.reshape(-1), (rows * width - 1).repeat(count) + j * e, e)
    first = (lo - 1) // 2  # the half of the shortest row
    if first < width:  # zero the marks and fill past each shorter row's half
        pad = np.arange(width - first) >= (np.arange(hi - lo) + (lo - 1) % 2)[:, None] // 2
        table[:, first:][pad] = 0
    return table


@lru_cache(maxsize=4)
def _gcd_table(m: int) -> np.ndarray:
    table = _gcd_tables(m, m + 1)[0]
    table.setflags(write=False)
    return table


def _half_counts(tables: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Row i, column j: how many entries in row i of the gcd tables are >= t[i, j],
    # for integers t >= 1.  That is > t - 1, clipped at the table width, which no
    # entry exceeds, so the compare stays in the table's unsigned dtype.
    rows, width = tables.shape
    below = np.minimum(t - 1, width).astype(tables.dtype)
    above = np.zeros((rows, -(-width // 8) * 8), dtype=bool)  # rows of whole uint64 words
    counts = np.empty(t.shape, dtype=np.int64)
    for j in range(t.shape[1]):
        np.greater(tables, below[:, j, None], out=above[:, :width])
        counts[:, j] = np.bitwise_count(above.view(np.uint64)).sum(axis=1)
    return counts


def _exact_count(half_count, m, t):
    # The number of k in [1, m] with gcd(k, m) >= t, from the number of such
    # k <= (m-1)/2: their mirrors m - k, k = m itself, and k = m/2, which is
    # its own mirror.  The arguments are ints or arrays alike.
    return 2 * half_count + (m >= t) + ((m % 2 == 0) & (m // 2 >= t))


@dataclass(frozen=True)
class GcdCensus:
    """Count of k in [1, M] with gcd(k, M) >= y, by enumeration and by totients.

    ``exact_count`` enumerates gcd(k, M) for every k and counts the values
    >= y; each gcd is found as the largest divisor of M that divides k, by
    marking the multiples of every divisor, a whole block of M in one table in
    a sweep.  ``totient_sum`` is
    sum_{d | M, d >= y} phi(M/d), from the factorization of M in a point
    query and from a totient sieve over all M in a sweep.  The two are equal
    for every real y >= 1 because gcd only takes integer divisor values, which
    is also why both sides count against the integer threshold ceil(y).
    """

    M: int
    y: float
    exact_count: int
    totient_sum: int

    def bound_value(self, c: float) -> float:
        """The census upper bound M^(1 + c / log log M) / floor(y)."""
        if self.M <= 1:
            return 1.0 / math.floor(self.y)
        return self.M ** (1.0 + c / math.log(math.log(self.M))) / math.floor(self.y)


def gcd_census(big_m: int, y: float) -> GcdCensus:
    """Census of gcd(k, M) >= y for k in [1, M]; M >= 1, y >= 1."""
    big_m = int(big_m)
    y = float(y)
    if big_m < 1 or not y >= 1:
        raise ValueError("need M >= 1 and y >= 1")
    t = math.ceil(y) if y <= big_m else big_m + 1  # no gcd exceeds M
    divs, phi_sums = _divisors_with_phi(big_m)
    tsum = phi_sums[bisect.bisect_right(divs, big_m // t)]  # d = M/e >= t is e <= M // t
    # NumPy compares a threshold past the table dtype's maximum exactly
    exact = _exact_count(int(np.count_nonzero(_gcd_table(big_m) >= t)), big_m, t)
    return GcdCensus(big_m, y, exact, tsum)


_SWEEP_BLOCK = 128  # most M per block of totient sums, gcd tables and CSV lines
_TABLE_ENTRIES = 1 << 18  # most gcd table entries per block: 512 KB in uint16


def _check_max_m(max_m: int) -> int:
    max_m = operator.index(max_m)
    if max_m < 1:
        raise ValueError(f"max_m must be at least 1, got {max_m}")
    return max_m


def gcd_census_sweep(max_m: int) -> Iterator[GcdCensus]:
    """Census of every M = 1..max_m at y = 1, 2, sqrt(M), M, in that order.

    Each item equals ``gcd_census(M, y)``.  The totient side comes from one
    phi sieve up to max_m and the divisor pairs of each block of M, not from
    factorizing each M.  The exact side marks the gcd tables of a block of M
    at once, from one divisor scan, and counts them at all four thresholds at
    once.  The tables hold at most 2**18 entries at a time, or one row where a
    row alone is longer (M > 2**19).
    """
    blocks = _sweep(_check_max_m(max_m))
    return (GcdCensus(*row) for rows in blocks for row in rows)


def gcd_census_to_csv(max_m: int, path) -> tuple[int, int, int]:
    """Write the census sweep up to max_m as lemma CSV, one block of lines at a time.

    The rows are those of :func:`lemma_rows_to_csv` for
    ``case_id, M, y, applicable, holds, margin`` with margin
    ``exact_count - totient_sum``.  Returns ``(cases, applicable, violations)``.
    """
    blocks = _sweep(_check_max_m(max_m))
    cases = violations = 0
    with open(path, "w", newline="") as fh:
        fh.write("case_id,M,y,applicable,holds,margin\r\n")
        for rows in blocks:
            fh.write("".join(f"census-M{m}-y{y:g},{m},{y!r},True,{e == s},{e - s}\r\n"
                             for m, y, e, s in rows))
            cases += len(rows)
            violations += sum(e != s for _, _, e, s in rows)
    return cases, cases, violations


def _sweep(max_m: int) -> Iterator[list[tuple[int, float, int, int]]]:
    # One list of (M, y, exact_count, totient_sum) rows per block of M.  The
    # block's gcd tables come a step of rows at a time, each table with
    # step * width < step * hi / 2 <= _TABLE_ENTRIES entries.
    phi = _totients(max_m)
    for lo in range(1, max_m + 1, _SWEEP_BLOCK):
        hi = min(lo + _SWEEP_BLOCK, max_m + 1)
        m = np.arange(lo, hi)
        y = np.stack([np.full(m.size, 1.0), np.full(m.size, 2.0), np.sqrt(m), m], axis=1)
        t = np.ceil(y).astype(np.int64)
        step = max(1, 2 * _TABLE_ENTRIES // hi)
        half = np.concatenate([
            _half_counts(_gcd_tables(a, min(a + step, hi)), t[a - lo : a - lo + step])
            for a in range(lo, hi, step)])
        exact = _exact_count(half, m[:, None], t)
        yield list(zip(np.repeat(m, 4).tolist(), y.ravel().tolist(), exact.ravel().tolist(),
                       _totient_sums(phi, lo, hi).ravel().tolist()))


@dataclass(frozen=True)
class ConcentrationEstimate:
    """Empirical Levy concentration sup_x P(|xi - x| <= eps) over a center grid."""

    epsilon: float
    estimate: float
    sample_count: int
    center_grid_resolution: float


def levy_concentration(
    samples: np.ndarray, epsilon: float, centers: np.ndarray | None = None
) -> ConcentrationEstimate:
    """Maximize the fraction of samples within epsilon of a grid of centers.

    The default grid spans the sample range with padding epsilon at spacing
    epsilon/4, which under-estimates the supremum by a bounded amount; for
    epsilon = 0 the grid is the set of distinct sample values.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if centers is None:
        if epsilon == 0.0:
            centers = np.unique(samples)
            resolution = 0.0
        else:
            resolution = epsilon / 4.0
            lo = samples[0] - epsilon
            hi = samples[-1] + epsilon
            centers = np.arange(lo, hi + resolution / 2.0, resolution)
    else:
        centers = np.asarray(centers, dtype=float)
        resolution = float(np.min(np.diff(np.sort(centers)))) if centers.size > 1 else 0.0
    counts = np.searchsorted(samples, centers + epsilon, side="right") - np.searchsorted(
        samples, centers - epsilon, side="left"
    )
    return ConcentrationEstimate(
        float(epsilon), float(counts.max()) / samples.size, samples.size, resolution
    )


@dataclass(frozen=True)
class ConditionHReport:
    """Empirical two-clause non-degeneracy check at radius 1 / tail M."""

    passed: bool
    concentration_at_1: float
    tail_fraction: float
    q: float
    M: float


def condition_h_check(samples: np.ndarray, q: float, M: float) -> ConditionHReport:
    """Check sup_u P(|xi - u| <= 1) <= 1 - q and P(|xi| > M) <= q/2 empirically.

    Bounded laws whose support has diameter <= 2 (for example Uniform(0,1) or
    raw Rademacher, whose atoms lie within the closed radius-1 ball around 0)
    fail clause one and need rescaling first.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if M <= 0.0:
        raise ValueError("M must be positive")
    samples = np.asarray(samples, dtype=float)
    conc = levy_concentration(samples, 1.0).estimate
    tail = float(np.count_nonzero(np.abs(samples) > M)) / samples.size
    return ConditionHReport(conc <= 1.0 - q and tail <= q / 2.0, conc, tail, q, M)
