"""Seeded, reproducible Monte Carlo experiments over the four benchmark laws.

Every trial is a pure function of (master_seed, dimension, trial_index): the
per-trial stream is a counter-based Philox generator keyed through
SeedSequence spawn keys, so records are bit-identical for any worker count
and trials can be replayed individually.  Every ``run_*`` function runs
under :func:`spectral.single_blas_thread`, so LAPACK-backed records do not
depend on the BLAS thread count either, and ``workers`` threads are the
only parallelism.  Gaussian draws use the inverse CDF on 53-bit uniforms in
(0, 1); there is no rejection state.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .matrices import (
    CirculantSpec,
    CoefficientSequence,
    SymmetricCirculantSpec,
    ToeplitzSpec,
    expand_symmetric_circulant,
)
from .polynomials import TrigPolynomial, max_modulus, salem_zygmund_ratio
from .spectral import (
    SingularEmbeddingError,
    cauchy_interlacing_check,
    circulant_eigenvalues,
    circulant_extremes,
    schur_sigma_min,
    single_blas_thread,
    verify_interlacing,
)

__all__ = [
    "DISTRIBUTION_KINDS",
    "Distribution",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryStats",
    "TailPoint",
    "TailEstimate",
    "trial_stream",
    "wilson_interval",
    "summarize",
    "run_table1",
    "run_sigma_max_tail",
    "run_sigma_min_tail",
    "run_condition_number",
    "run_rectangular",
    "run_interlacing_suite",
    "trials_to_csv",
    "ratios_to_csv",
    "summary_to_json",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

DISTRIBUTION_KINDS = ("bernoulli", "rademacher", "uniform", "normal")


@dataclass(frozen=True)
class Distribution:
    """One of the four benchmark laws, with optional affine scale/shift."""

    kind: str
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution {self.kind!r}; choose from {DISTRIBUTION_KINDS}")

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # 53-bit uniforms strictly inside (0, 1): safe for the inverse CDF.
        u = (gen.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53
        if self.kind == "bernoulli":
            x = np.where(u < 0.5, 1.0, 0.0)
        elif self.kind == "rademacher":
            x = np.where(u < 0.5, 1.0, -1.0)
        elif self.kind == "uniform":
            x = u
        else:
            x = ndtri(u)
        if self.scale != 1.0 or self.shift != 0.0:
            x = self.scale * x + self.shift
        return x

    @property
    def label(self) -> str:
        base = self.kind
        if self.scale != 1.0 or self.shift != 0.0:
            base += f"*{self.scale:g}+{self.shift:g}"
        return base

    def to_dict(self) -> dict:
        return {"kind": self.kind, "scale": self.scale, "shift": self.shift}

    @classmethod
    def from_dict(cls, d: dict) -> "Distribution":
        return cls(d["kind"], float(d.get("scale", 1.0)), float(d.get("shift", 0.0)))


def trial_stream(master_seed: int, *key: int) -> tuple[np.random.Generator, int]:
    """Counter-based per-trial stream plus its recorded 64-bit seed word."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    seed = int(ss.generate_state(1, np.uint64)[0])
    return np.random.Generator(np.random.Philox(ss)), seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; flags echo into outputs minus runtime fields."""

    experiment: str
    distribution: Distribution
    trials: int
    master_seed: int
    n: int = 0                       # single-dimension experiments (table1: the 2n value)
    sizes: tuple[int, ...] = ()      # multi-dimension tail experiments
    epsilon: float = 1.0
    epsilons: tuple[float, ...] = ()
    rho: float = 0.2
    symmetric: bool = False
    xi_star_mode: str = "random"     # "random" draws from the trial law, "fixed" uses xi_star_value
    xi_star_value: float = 0.0
    oversampling: int = 64
    resample_singular: bool = False
    workers: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.experiment == "sigmin" and not self.symmetric and not 0.0 < self.rho < 0.25:
            raise ValueError("sigma-min tail experiment needs rho in (0, 1/4)")
        if self.xi_star_mode not in ("random", "fixed"):
            raise ValueError("xi_star_mode must be 'random' or 'fixed'")
        if self.oversampling != 0 and self.oversampling <= 4:
            raise ValueError("oversampling must be 0 (no sup-norm bracket) or exceed 4")

    def science_dict(self) -> dict:
        """Config echo: everything that determines the results, nothing that doesn't."""
        d = {
            "experiment": self.experiment,
            "distribution": self.distribution.to_dict(),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "n": self.n,
            "sizes": list(self.sizes),
            "epsilon": self.epsilon,
            "epsilons": list(self.epsilons),
            "rho": self.rho,
            "symmetric": self.symmetric,
            "xi_star_mode": self.xi_star_mode,
            "xi_star_value": self.xi_star_value,
            "oversampling": self.oversampling,
            "resample_singular": self.resample_singular,
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        dist = d["distribution"]
        if isinstance(dist, str):
            dist = {"kind": dist}
        return cls(
            experiment=d["experiment"],
            distribution=Distribution.from_dict(dist),
            trials=int(d["trials"]),
            master_seed=int(d["master_seed"]),
            n=int(d.get("n", 0)),
            sizes=tuple(int(s) for s in d.get("sizes", ())),
            epsilon=float(d.get("epsilon", 1.0)),
            epsilons=tuple(float(e) for e in d.get("epsilons", ())),
            rho=float(d.get("rho", 0.2)),
            symmetric=bool(d.get("symmetric", False)),
            xi_star_mode=d.get("xi_star_mode", "random"),
            xi_star_value=float(d.get("xi_star_value", 0.0)),
            oversampling=int(d.get("oversampling", 64)),
            resample_singular=bool(d.get("resample_singular", False)),
            workers=int(d.get("workers", 1)),
            output_dir=d.get("output_dir"),
        )


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial measurements; unused fields stay None and export as blanks."""

    trial_index: int
    seed: int
    sigma_max: float | None = None
    sigma_min: float | None = None
    kappa: float | None = None
    sigmin_s: float | None = None
    ratio_lower: float | None = None
    ratio_upper: float | None = None
    flags: tuple[str, ...] = ()


_MAX_FD_BINS = 10_000


@dataclass(frozen=True)
class SummaryStats:
    """Exact order statistics (type-7 quantiles) plus Freedman-Diaconis bins.

    Samples whose Freedman-Diaconis bin count would exceed 10 000 are binned
    by Sturges' rule instead.
    """

    count: int
    minimum: float
    mean: float
    q01: float
    q25: float
    q50: float
    q75: float
    q99: float
    bins: tuple[tuple[float, float, int], ...]

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "SummaryStats":
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("cannot summarize an empty sample")
        qs = np.quantile(arr, [0.01, 0.25, 0.50, 0.75, 0.99], method="linear")
        # Freedman-Diaconis asks for range * n^(1/3) / (2 IQR) bins, which is
        # astronomically many when a tight cluster has a few far outliers
        iqr = float(qs[3] - qs[1])
        span = float(arr[-1] - arr[0])
        fd_too_many = iqr > 0.0 and span * np.cbrt(arr.size) > _MAX_FD_BINS * 2.0 * iqr
        counts, edges = np.histogram(arr, bins="sturges" if fd_too_many else "fd")
        bins = tuple(
            (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
        )
        return cls(
            count=int(arr.size),
            minimum=float(arr[0]),
            mean=float(arr.mean()),
            q01=float(qs[0]),
            q25=float(qs[1]),
            q50=float(qs[2]),
            q75=float(qs[3]),
            q99=float(qs[4]),
            bins=bins,
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "min": self.minimum,
            "mean": self.mean,
            "q01": self.q01,
            "q25": self.q25,
            "q50": self.q50,
            "q75": self.q75,
            "q99": self.q99,
            "bins": [{"lo": lo, "hi": hi, "count": c} for lo, hi, c in self.bins],
        }


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Summary statistics with the fixed type-7 quantile convention."""
    return SummaryStats.from_samples(samples)


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("need a positive trial count")
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True)
class TailPoint:
    """Empirical exceedance of one threshold event with its Wilson interval."""

    n: int
    epsilon: float
    exceedance: float
    wilson_low: float
    wilson_high: float
    count: int
    trials: int


@dataclass(frozen=True)
class TailEstimate:
    """Exceedance curve for a threshold family, with a descriptively fitted constant.

    The fitted constant reports the shape of the data at the smallest
    dimension; it never claims to verify an asymptotic statement.
    """

    threshold: str
    rho: float | None
    fitted_constant: float | None
    points: tuple[TailPoint, ...]

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "rho": self.rho,
            "fitted_constant": self.fitted_constant,
            "points": [vars(p) for p in self.points],
        }


def _map_trials(fn: Callable[[int], object], count: int, workers: int) -> list:
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, range(count)))
    return [fn(t) for t in range(count)]


# ---------------------------------------------------------------------------
# Table-1 experiment: sigma_min of the Schur block at dimension 2n


@dataclass(frozen=True)
class Table1Result:
    config: dict
    records: tuple[TrialRecord, ...]
    summary: SummaryStats | None
    singular_count: int
    fallback_count: int
    structured_fallback_count: int

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": "table1",
            "config": self.config,
            "singular_count": self.singular_count,
            "fallback_count": self.fallback_count,
            "structured_fallback_count": self.structured_fallback_count,
            "summary": self.summary.to_dict() if self.summary else None,
        }


@single_blas_thread()
def run_table1(config: ExperimentConfig) -> Table1Result:
    """Monte Carlo for sigma_min of the Schur block S_n at dimension 2n = config.n.

    Per trial: draw the 2n circulant coefficients and measure the smallest
    singular value of S_n by :func:`spectral.schur_sigma_min`, which never
    forms S_n: Levinson and Gohberg-Semencul solves on the Toeplitz block,
    FFT products only, with a backward-error guard.  A trial whose guard
    fails is answered by the LU path on the gathered block and flagged
    ``structured-fallback``.  The tabulated statistic is reported in the
    non-unitary DFT normalization, i.e. 2n * sigma_min(S_n) for S_n the
    trailing block of C_2n^{-1} (the two conventions differ by exactly the
    factor 2n).  Singular embeddings are flagged and excluded from the
    summary rather than resampled, unless resampling is requested.
    """
    big_n = config.n
    if big_n < 2 or big_n % 2 != 0:
        raise ValueError("table1 needs an even dimension 2n >= 2")

    def one(t: int) -> TrialRecord:
        gen, seed = trial_stream(config.master_seed, big_n, t)
        flags: list[str] = []
        attempt = 0
        while True:
            row = config.distribution.sample(gen, big_n)
            lam = circulant_eigenvalues(CirculantSpec(big_n, CoefficientSequence(row)))
            rep = circulant_extremes(lam)
            try:
                res = schur_sigma_min(lam)
            except SingularEmbeddingError:
                if config.resample_singular and attempt < 64:
                    attempt += 1
                    gen, _ = trial_stream(config.master_seed, big_n, t, attempt)
                    continue
                flags.append("singular-embedding")
                return TrialRecord(
                    t, seed, sigma_max=rep.sigma_max, sigma_min=rep.sigma_min,
                    kappa=rep.kappa, flags=tuple(flags),
                )
            if attempt:
                flags.append(f"resampled-{attempt}")
            if res.structured_fallback:
                flags.append("structured-fallback")
            if res.used_fallback:
                flags.append("fallback-used")
            if res.singular:
                flags.append("exact-singular")
            return TrialRecord(
                t, seed,
                sigma_max=rep.sigma_max, sigma_min=rep.sigma_min, kappa=rep.kappa,
                sigmin_s=big_n * res.value, flags=tuple(flags),
            )

    records = _map_trials(one, config.trials, config.workers)
    good = [r.sigmin_s for r in records if r.sigmin_s is not None]
    singular = sum(1 for r in records if "singular-embedding" in r.flags)
    fallback = sum(1 for r in records if "fallback-used" in r.flags)
    structured_fallback = sum(1 for r in records if "structured-fallback" in r.flags)
    summary = SummaryStats.from_samples(good) if good else None
    return Table1Result(config.science_dict(), tuple(records), summary, singular, fallback,
                        structured_fallback)


# ---------------------------------------------------------------------------
# sigma_max tail across dimensions


@dataclass(frozen=True)
class SigmaMaxResult:
    config: dict
    records: dict[int, tuple[TrialRecord, ...]]
    summaries: dict[int, SummaryStats]
    tail: TailEstimate

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": "sigmax",
            "config": self.config,
            "summaries": {str(n): s.to_dict() for n, s in self.summaries.items()},
            "tail": self.tail.to_dict(),
        }


def _draw_circulant(config: ExperimentConfig, gen: np.random.Generator, n: int) -> CirculantSpec:
    """The trial circulant, symmetric when requested."""
    if config.symmetric:
        free = config.distribution.sample(gen, n // 2 + 1)
        return expand_symmetric_circulant(SymmetricCirculantSpec(n, CoefficientSequence(free)))
    return CirculantSpec(n, CoefficientSequence(config.distribution.sample(gen, n)))


@single_blas_thread()
def run_sigma_max_tail(config: ExperimentConfig) -> SigmaMaxResult:
    """Distribution of sigma_max(C_n)/sqrt(n log n) plus sup-norm brackets.

    The normalized statistic uses the certified grid lower bound for the
    polynomial sup norm (recorded with its upper-bracket companion); the
    fitted constant is the 99th percentile at the smallest dimension and the
    tail points report how often larger dimensions exceed it.
    """
    sizes = config.sizes or ((config.n,) if config.n else ())
    if not sizes:
        raise ValueError("sigma-max tail needs sizes")

    def one_size(n: int) -> tuple[TrialRecord, ...]:
        def one(t: int) -> TrialRecord:
            gen, seed = trial_stream(config.master_seed, n, t)
            spec = _draw_circulant(config, gen, n)
            rep = circulant_extremes(circulant_eigenvalues(spec))
            ratio_lower = ratio_upper = None
            if config.oversampling > 4:
                poly = TrigPolynomial(spec.first_row, symmetric=config.symmetric)
                bracket = max_modulus(poly, config.oversampling)
                ratio_lower, ratio_upper = salem_zygmund_ratio(bracket, n)
            return TrialRecord(
                t, seed, sigma_max=rep.sigma_max, sigma_min=rep.sigma_min, kappa=rep.kappa,
                ratio_lower=ratio_lower, ratio_upper=ratio_upper,
            )

        return tuple(_map_trials(one, config.trials, config.workers))

    records = {n: one_size(n) for n in sizes}

    def stat(rec: TrialRecord, n: int) -> float:
        if rec.ratio_lower is not None:
            return rec.ratio_lower
        return rec.sigma_max / math.sqrt(n * math.log(n))

    summaries = {
        n: SummaryStats.from_samples([stat(r, n) for r in recs]) for n, recs in records.items()
    }
    smallest = min(sizes)
    fitted = summaries[smallest].q99
    points = []
    for n in sorted(sizes):
        vals = [stat(r, n) for r in records[n]]
        k = sum(1 for v in vals if v > fitted)
        lo, hi = wilson_interval(k, len(vals))
        points.append(TailPoint(n, fitted, k / len(vals), lo, hi, k, len(vals)))
    tail = TailEstimate("sup-norm ratio > fitted C0", None, fitted, tuple(points))
    return SigmaMaxResult(config.science_dict(), records, summaries, tail)


# ---------------------------------------------------------------------------
# sigma_min tail across dimensions and epsilon grid


@dataclass(frozen=True)
class SigmaMinTailResult:
    config: dict
    records: dict[int, tuple[TrialRecord, ...]]
    tail: TailEstimate

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": "sigmin",
            "config": self.config,
            "tail": self.tail.to_dict(),
        }


@single_blas_thread()
def run_sigma_min_tail(config: ExperimentConfig) -> SigmaMinTailResult:
    """Empirical P(sigma_min(C_n) <= eps n^-rho) over an epsilon grid.

    The symmetric variant draws the floor(n/2)+1 free coefficients and uses
    the fixed exponent 0.51 in place of rho.  Exceedance counts are computed
    on the same fixed samples for every epsilon, so nested-event monotonicity
    holds exactly.
    """
    sizes = config.sizes or ((config.n,) if config.n else ())
    if not sizes:
        raise ValueError("sigma-min tail needs sizes")
    epsilons = config.epsilons or (config.epsilon,)
    exponent = 0.51 if config.symmetric else config.rho

    def one_size(n: int) -> tuple[TrialRecord, ...]:
        def one(t: int) -> TrialRecord:
            gen, seed = trial_stream(config.master_seed, n, t)
            rep = circulant_extremes(circulant_eigenvalues(_draw_circulant(config, gen, n)))
            flags = ("singular-embedding",) if rep.singular else ()
            return TrialRecord(
                t, seed, sigma_max=rep.sigma_max, sigma_min=rep.sigma_min, kappa=rep.kappa,
                flags=flags,
            )

        return tuple(_map_trials(one, config.trials, config.workers))

    records = {n: one_size(n) for n in sizes}
    points = []
    for n in sorted(sizes):
        smins = np.array([r.sigma_min for r in records[n]])
        for eps in epsilons:
            k = int(np.count_nonzero(smins <= eps * n ** (-exponent)))
            lo, hi = wilson_interval(k, smins.size)
            points.append(TailPoint(n, float(eps), k / smins.size, lo, hi, k, smins.size))
    tail = TailEstimate(
        f"sigma_min <= eps * n^-{exponent}", exponent, None, tuple(points)
    )
    return SigmaMinTailResult(config.science_dict(), records, tail)


# ---------------------------------------------------------------------------
# condition number experiment


@dataclass(frozen=True)
class ConditionNumberResult:
    config: dict
    records: dict[int, tuple[TrialRecord, ...]]
    summaries: dict[int, SummaryStats]
    tail: TailEstimate

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": "kappa",
            "config": self.config,
            "summaries": {str(n): s.to_dict() for n, s in self.summaries.items()},
            "tail": self.tail.to_dict(),
        }


@single_blas_thread()
def run_condition_number(config: ExperimentConfig) -> ConditionNumberResult:
    """Distribution of kappa(C_n) normalized by n^(rho+1/2) sqrt(log n).

    The fitted constant is eps * q99 of the normalized statistic at the
    smallest dimension; coverage points report how often the event
    kappa <= (C0/eps) n^(rho+1/2) sqrt(log n) holds at each dimension.
    """
    sizes = config.sizes or ((config.n,) if config.n else ())
    if not sizes:
        raise ValueError("condition-number experiment needs sizes")
    rho = config.rho
    eps = config.epsilon

    def one_size(n: int) -> tuple[TrialRecord, ...]:
        def one(t: int) -> TrialRecord:
            gen, seed = trial_stream(config.master_seed, n, t)
            rep = circulant_extremes(circulant_eigenvalues(_draw_circulant(config, gen, n)))
            flags = ("singular-embedding",) if rep.singular else ()
            return TrialRecord(
                t, seed, sigma_max=rep.sigma_max, sigma_min=rep.sigma_min, kappa=rep.kappa,
                flags=flags,
            )

        return tuple(_map_trials(one, config.trials, config.workers))

    records = {n: one_size(n) for n in sizes}

    def normalized(n: int) -> list[float]:
        scale = n ** (rho + 0.5) * math.sqrt(math.log(n))
        return [r.kappa / scale for r in records[n] if np.isfinite(r.kappa)]

    summaries = {n: SummaryStats.from_samples(normalized(n)) for n in sizes}
    smallest = min(sizes)
    fitted = eps * summaries[smallest].q99
    points = []
    for n in sorted(sizes):
        vals = normalized(n)
        k = sum(1 for v in vals if v <= fitted / eps)
        lo, hi = wilson_interval(k, len(vals))
        points.append(TailPoint(n, eps, k / len(vals), lo, hi, k, len(vals)))
    tail = TailEstimate("kappa <= (C0/eps) n^(rho+1/2) sqrt(log n) coverage", rho, fitted, tuple(points))
    return ConditionNumberResult(config.science_dict(), records, summaries, tail)


# ---------------------------------------------------------------------------
# rectangular stack [T; B]


@dataclass(frozen=True)
class RectangularResult:
    config: dict
    records: dict[int, tuple[TrialRecord, ...]]
    summaries: dict[int, SummaryStats]
    violations: int

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": "rect",
            "config": self.config,
            "summaries": {str(n): s.to_dict() for n, s in self.summaries.items()},
            "violations": self.violations,
        }


def _draw_toeplitz(config: ExperimentConfig, gen: np.random.Generator, n: int):
    vals = config.distribution.sample(gen, 2 * n - 1)
    spec = ToeplitzSpec(n, CoefficientSequence(vals, index_origin=-(n - 1)))
    if config.xi_star_mode == "fixed":
        xi_star = config.xi_star_value
    else:
        xi_star = float(config.distribution.sample(gen, 1)[0])
    return spec, xi_star


@single_blas_thread()
def run_rectangular(config: ExperimentConfig) -> RectangularResult:
    """Condition number of the 2n x n stack A = [T; B] from the embedding.

    kappa(A) = sigma_1(A) / sigma_n(A) (for full-rank tall A the distance to
    the rank-deficient set is sigma_n).  Each trial also verifies the
    interlacing consequences sigma_1(A) <= sigma_max(C_2n) and
    sigma_n(A) >= sigma_min(C_2n).
    """
    from .matrices import embed_toeplitz, materialize_circulant
    from .spectral import dense_svd

    sizes = config.sizes or ((config.n,) if config.n else ())
    if not sizes:
        raise ValueError("rectangular experiment needs sizes")

    def one_size(n: int) -> tuple[TrialRecord, ...]:
        def one(t: int) -> TrialRecord:
            gen, seed = trial_stream(config.master_seed, n, t)
            spec, xi_star = _draw_toeplitz(config, gen, n)
            cspec = embed_toeplitz(spec, xi_star)
            rep = circulant_extremes(circulant_eigenvalues(cspec))
            stack = materialize_circulant(cspec)[:, :n]
            sv = dense_svd(stack)
            tol = 1e-8 * rep.sigma_max
            flags = []
            if sv[0] > rep.sigma_max + tol or sv[n - 1] < rep.sigma_min - tol:
                flags.append("clause-violation")
            kappa = float(sv[0] / sv[n - 1]) if sv[n - 1] > 0 else np.inf
            return TrialRecord(
                t, seed, sigma_max=float(sv[0]), sigma_min=float(sv[n - 1]), kappa=kappa,
                flags=tuple(flags),
            )

        return tuple(_map_trials(one, config.trials, config.workers))

    records = {n: one_size(n) for n in sizes}
    summaries = {
        n: SummaryStats.from_samples([r.kappa for r in recs if np.isfinite(r.kappa)])
        for n, recs in records.items()
    }
    violations = sum(
        1 for recs in records.values() for r in recs if "clause-violation" in r.flags
    )
    return RectangularResult(config.science_dict(), records, summaries, violations)


# ---------------------------------------------------------------------------
# interlacing suite


@dataclass(frozen=True)
class InterlacingSuiteResult:
    config: dict
    records: dict[int, tuple[TrialRecord, ...]]
    violations: int
    singular_count: int
    margin_summaries: dict[str, SummaryStats]
    cauchy_checked: int
    cauchy_failures: int

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": "interlace",
            "config": self.config,
            "violations": self.violations,
            "singular_count": self.singular_count,
            "cauchy_checked": self.cauchy_checked,
            "cauchy_failures": self.cauchy_failures,
            "margin_summaries": {k: s.to_dict() for k, s in self.margin_summaries.items()},
        }


@single_blas_thread()
def run_interlacing_suite(config: ExperimentConfig, cauchy_trials: int = 8) -> InterlacingSuiteResult:
    """Batch the embedding inequalities over random Toeplitz draws.

    Every trial runs :func:`verify_interlacing` at full size; the column-prefix
    Cauchy check costs one SVD per prefix, so it runs on the first
    ``cauchy_trials`` trials of each size with the stack truncated to at most
    12 columns.  Violations are expected to be zero; singular embeddings skip
    clause (c) and are counted separately.
    """
    from .matrices import embed_toeplitz, materialize_circulant

    sizes = config.sizes or ((config.n,) if config.n else ())
    if not sizes:
        raise ValueError("interlacing suite needs sizes")

    cauchy_checked = 0
    cauchy_failures = 0

    def one_size(n: int) -> tuple[tuple[TrialRecord, tuple], ...]:
        def one(t: int) -> tuple[TrialRecord, tuple]:
            gen, seed = trial_stream(config.master_seed, n, t)
            spec, xi_star = _draw_toeplitz(config, gen, n)
            report = verify_interlacing(spec, xi_star)
            flags = []
            if report.singular_embedding:
                flags.append("singular-embedding")
            if not report.clause_a:
                flags.append("violation-a")
            if not report.clause_b:
                flags.append("violation-b")
            if report.clause_c is False:
                flags.append("violation-c")
            record = TrialRecord(
                t, seed,
                sigma_max=float(report.sigma_c[0]), sigma_min=float(report.sigma_c[-1]),
                kappa=float(report.sigma_c[0] / report.sigma_c[-1]) if report.sigma_c[-1] > 0 else np.inf,
                flags=tuple(flags),
            )
            return record, (report.margin_a, report.margin_b, report.margin_c)

        return tuple(_map_trials(one, config.trials, config.workers))

    raw = {n: one_size(n) for n in sizes}
    records = {n: tuple(rec for rec, _ in pairs) for n, pairs in raw.items()}
    margins: dict[str, list[float]] = {"a": [], "b": [], "c": []}
    for n in sorted(raw):
        for _, (ma, mb, mc) in raw[n]:
            margins["a"].append(ma)
            margins["b"].append(mb)
            if mc is not None:
                margins["c"].append(mc)

    for n in sizes:
        for t in range(min(cauchy_trials, config.trials)):
            gen, _ = trial_stream(config.master_seed, n, t)
            spec, xi_star = _draw_toeplitz(config, gen, n)
            stack = materialize_circulant(embed_toeplitz(spec, xi_star))[:, : min(n, 12)]
            cauchy_checked += 1
            if not cauchy_interlacing_check(stack):
                cauchy_failures += 1

    violations = sum(
        1
        for recs in records.values()
        for r in recs
        if any(f.startswith("violation") for f in r.flags)
    )
    singular = sum(
        1 for recs in records.values() for r in recs if "singular-embedding" in r.flags
    )
    margin_summaries = {
        k: SummaryStats.from_samples(v) for k, v in margins.items() if v
    }
    return InterlacingSuiteResult(
        config.science_dict(), records, violations, singular,
        margin_summaries, cauchy_checked, cauchy_failures,
    )


# ---------------------------------------------------------------------------
# exports


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "inf"
    return repr(x)


def trials_to_csv(records: Sequence[TrialRecord], path, config_echo: dict | None = None) -> None:
    """Write the fixed trial schema ``trial,seed,sigma_max,sigma_min,kappa,sigmin_S,flags``.

    The optional config echo goes into a single leading comment line; it must
    not contain runtime-only fields, so output bytes are identical for any
    worker count.
    """
    with open(path, "w", newline="") as fh:
        if config_echo is not None:
            fh.write("# config: " + json.dumps(config_echo, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(["trial", "seed", "sigma_max", "sigma_min", "kappa", "sigmin_S", "flags"])
        for r in sorted(records, key=lambda r: r.trial_index):
            w.writerow(
                [
                    r.trial_index,
                    r.seed,
                    _fmt(r.sigma_max),
                    _fmt(r.sigma_min),
                    _fmt(r.kappa),
                    _fmt(r.sigmin_s),
                    ";".join(r.flags),
                ]
            )


def ratios_to_csv(records_by_n: dict[int, Sequence[TrialRecord]], dist_label: str, path) -> None:
    """Write sup-norm ratio samples ``trial,n,dist,ratio_lower,ratio_upper``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "n", "dist", "ratio_lower", "ratio_upper"])
        for n in sorted(records_by_n):
            for r in records_by_n[n]:
                if r.ratio_lower is None:
                    continue
                w.writerow([r.trial_index, n, dist_label, _fmt(r.ratio_lower), _fmt(r.ratio_upper)])


def summary_to_json(payload: dict, path) -> None:
    """Deterministic JSON dump (sorted keys, no timestamps)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
