"""Seeded, reproducible Monte Carlo experiments over the four benchmark laws.

Every experiment is a per-trial kernel, one shared runner and a reducer.  The
kernel measures one draw.  The runner checks the sizes, keys trial t at
dimension n to a counter-based Philox stream (``trial_stream(master_seed, n,
t)``), redraws singular draws when asked, and fans trials out over
``workers`` threads under :func:`spectral.single_blas_thread`; records are
therefore bit-identical for any worker and BLAS thread count and can be
replayed one by one.  The reducer turns the records into the summary fields
of one :class:`ExperimentResult`.  Gaussian draws use the inverse CDF on
53-bit uniforms in (0, 1); there is no rejection state.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .matrices import (
    CirculantSpec,
    CoefficientSequence,
    SymmetricCirculantSpec,
    ToeplitzSpec,
    embed_toeplitz,
    expand_symmetric_circulant,
    materialize_circulant,
)
from .polynomials import TrigPolynomial, max_modulus, salem_zygmund_ratio
from .spectral import (
    SingularEmbeddingError,
    cauchy_interlacing_check,
    circulant_eigenvalues,
    circulant_extremes,
    dense_svd,
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
    "ExperimentResult",
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
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "workers"}
        d.update(distribution=self.distribution.to_dict(), sizes=list(self.sizes),
                 epsilons=list(self.epsilons))
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


class ExperimentResult(SimpleNamespace):
    """One run: ``experiment``, the ``config`` echo, ``records`` per size, the reducer's fields."""

    def to_dict(self) -> dict:
        """``{schema_version, experiment, config, ...}``: every field but the records."""
        fields = {k: _jsonable(v) for k, v in vars(self).items() if k != "records"}
        return {"schema_version": SCHEMA_VERSION, **fields}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value.to_dict() if hasattr(value, "to_dict") else value


# ---------------------------------------------------------------------------
# the shared runner: kernel -> runner -> reducer

_MAX_RESAMPLES = 64


class _SingularDraw(Exception):
    """Raised by a kernel on a singular draw; ``args[0]`` holds the record fields to keep."""


def _trial(config: ExperimentConfig, kernel: Callable, n: int, t: int) -> tuple[TrialRecord, object]:
    """Trial t at dimension n, redrawn after a singular draw when resampling is on."""
    gen, seed = trial_stream(config.master_seed, n, t)
    for attempt in range(_MAX_RESAMPLES + 1):
        try:
            values, extra = kernel(gen, n, t, config)
        except _SingularDraw as draw:
            if config.resample_singular and attempt < _MAX_RESAMPLES:
                gen, _ = trial_stream(config.master_seed, n, t, attempt + 1)
                continue
            return TrialRecord(t, seed, **draw.args[0]), None
        if attempt:
            values["flags"] = (f"resampled-{attempt}",) + values["flags"]
        return TrialRecord(t, seed, **values), extra


def _run(experiment: str, config: ExperimentConfig, kernel: Callable, reduce: Callable,
         min_size: int = 1, sizes: tuple[int, ...] = ()) -> ExperimentResult:
    """Check the sizes, run every trial of every size, and reduce the records.

    Sizes come from ``sizes``, else ``config.sizes``, else ``config.n``; they
    must be distinct, and they and the resampling flag (table1 only) are
    checked before any trial runs.  ``kernel(gen, n, t, config)``
    returns the record fields of trial t and an extra for the reducer; a
    singular draw it raises is redrawn from ``trial_stream(master_seed, n, t,
    attempt)`` when the config asks for resampling.  Trials fan out over
    ``config.workers`` threads with OpenBLAS on one thread, and
    ``reduce(config, sizes, records, extras)`` returns the summary fields.
    """
    sizes = sizes or config.sizes or ((config.n,) if config.n else ())
    if not sizes:
        raise ValueError(f"{experiment} needs sizes")
    if min(sizes) < min_size:
        raise ValueError(f"{experiment} needs every size n >= {min_size}, got sizes {list(sizes)}")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"{experiment} needs distinct sizes, got sizes {list(sizes)}")
    if config.resample_singular and experiment != "table1":
        raise ValueError(f"{experiment} never redraws a singular draw; "
                         "resample_singular is for table1 only")
    with single_blas_thread(), ThreadPoolExecutor(config.workers) as pool:
        fan_out = pool.map if config.workers > 1 else map  # the pool starts no thread until used
        trials = {n: list(fan_out(partial(_trial, config, kernel, n), range(config.trials)))
                  for n in sizes}
    records = {n: tuple(rec for rec, _ in out) for n, out in trials.items()}
    extras = {n: [extra for _, extra in out] for n, out in trials.items()}
    return ExperimentResult(experiment=experiment, config=config.science_dict(), records=records,
                            **reduce(config, sizes, records, extras))


def _extremes(rep, flags: tuple[str, ...] = ()) -> dict:
    """Record fields from a circulant's ConditionReport."""
    return {"sigma_max": rep.sigma_max, "sigma_min": rep.sigma_min, "kappa": rep.kappa, "flags": flags}


def _singular_values(top, bottom, flags: tuple[str, ...]) -> dict:
    """Record fields from the largest and smallest singular value of a dense matrix."""
    kappa = float(top / bottom) if bottom > 0 else np.inf
    return {"sigma_max": float(top), "sigma_min": float(bottom), "kappa": kappa, "flags": flags}


def _count(records: dict[int, tuple[TrialRecord, ...]], *flags: str) -> int:
    """Trials over all sizes that carry any of ``flags``."""
    return sum(1 for recs in records.values() for r in recs if any(f in r.flags for f in flags))


def _point(n: int, epsilon: float, k: int, total: int) -> TailPoint:
    lo, hi = wilson_interval(k, total)
    return TailPoint(n, epsilon, k / total, lo, hi, k, total)


# ---------------------------------------------------------------------------
# Table-1 experiment: sigma_min of the Schur block at dimension 2n


def _table1_trial(gen, big_n, t, config):
    row = config.distribution.sample(gen, big_n)
    lam = circulant_eigenvalues(CirculantSpec(big_n, CoefficientSequence(row)))
    fields = _extremes(circulant_extremes(lam))
    try:
        res = schur_sigma_min(lam)
    except SingularEmbeddingError:
        raise _SingularDraw(dict(fields, flags=("singular-embedding",))) from None
    fields["flags"] = tuple(flag for flag, on in (
        ("structured-fallback", res.structured_fallback),
        ("fallback-used", res.used_fallback),
        ("exact-singular", res.singular),
    ) if on)
    fields["sigmin_s"] = big_n * res.value
    return fields, None


def _table1_summary(config, sizes, records, extras):
    good = [r.sigmin_s for r in records[config.n] if r.sigmin_s is not None]
    return {
        "summary": SummaryStats.from_samples(good) if good else None,
        "singular_count": _count(records, "singular-embedding"),
        "fallback_count": _count(records, "fallback-used"),
        "structured_fallback_count": _count(records, "structured-fallback"),
    }


def run_table1(config: ExperimentConfig) -> ExperimentResult:
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
    if config.n < 2 or config.n % 2 != 0:
        raise ValueError(f"table1 needs an even dimension 2n >= 2, got {config.n}")
    return _run("table1", config, _table1_trial, _table1_summary, sizes=(config.n,))


# ---------------------------------------------------------------------------
# circulant tails across dimensions: sigma_max, sigma_min and kappa


def _draw_circulant(config: ExperimentConfig, gen: np.random.Generator, n: int) -> CirculantSpec:
    """The trial circulant, symmetric when requested."""
    if config.symmetric:
        free = config.distribution.sample(gen, n // 2 + 1)
        return expand_symmetric_circulant(SymmetricCirculantSpec(n, CoefficientSequence(free)))
    return CirculantSpec(n, CoefficientSequence(config.distribution.sample(gen, n)))


def _sigmax_trial(gen, n, t, config):
    spec = _draw_circulant(config, gen, n)
    fields = _extremes(circulant_extremes(circulant_eigenvalues(spec)))
    if config.oversampling:
        bracket = max_modulus(TrigPolynomial(spec.first_row, symmetric=config.symmetric),
                              config.oversampling)
        fields["ratio_lower"], fields["ratio_upper"] = salem_zygmund_ratio(bracket, n)
    return fields, None


def _sigmax_summary(config, sizes, records, extras):
    def stat(rec: TrialRecord, n: int) -> float:
        if rec.ratio_lower is not None:
            return rec.ratio_lower
        return rec.sigma_max / math.sqrt(n * math.log(n))

    samples = {n: [stat(r, n) for r in recs] for n, recs in records.items()}
    summaries = {n: SummaryStats.from_samples(v) for n, v in samples.items()}
    fitted = summaries[min(sizes)].q99
    points = [_point(n, fitted, sum(1 for v in samples[n] if v > fitted), len(samples[n]))
              for n in sorted(sizes)]
    tail = TailEstimate("sup-norm ratio > fitted C0", None, fitted, tuple(points))
    return {"summaries": summaries, "tail": tail}


def run_sigma_max_tail(config: ExperimentConfig) -> ExperimentResult:
    """Distribution of sigma_max(C_n)/sqrt(n log n) plus sup-norm brackets.

    The normalized statistic uses the certified grid lower bound for the
    polynomial sup norm (recorded with its upper-bracket companion); the
    fitted constant is the 99th percentile at the smallest dimension and the
    tail points report how often larger dimensions exceed it.
    """
    return _run("sigmax", config, _sigmax_trial, _sigmax_summary, min_size=2)


def _circulant_trial(gen, n, t, config):
    rep = circulant_extremes(circulant_eigenvalues(_draw_circulant(config, gen, n)))
    return _extremes(rep, ("singular-embedding",) if rep.singular else ()), None


def _sigmin_summary(config, sizes, records, extras):
    exponent = 0.51 if config.symmetric else config.rho
    points = []
    for n in sorted(sizes):
        smins = np.array([r.sigma_min for r in records[n]])
        for eps in config.epsilons or (config.epsilon,):
            k = int(np.count_nonzero(smins <= eps * n ** (-exponent)))
            points.append(_point(n, float(eps), k, smins.size))
    return {"tail": TailEstimate(f"sigma_min <= eps * n^-{exponent}", exponent, None, tuple(points))}


def run_sigma_min_tail(config: ExperimentConfig) -> ExperimentResult:
    """Empirical P(sigma_min(C_n) <= eps n^-rho) over an epsilon grid.

    The symmetric variant draws the floor(n/2)+1 free coefficients and uses
    the fixed exponent 0.51 in place of rho.  Exceedance counts are computed
    on the same fixed samples for every epsilon, so nested-event monotonicity
    holds exactly.
    """
    return _run("sigmin", config, _circulant_trial, _sigmin_summary)


def _kappa_summary(config, sizes, records, extras):
    rho, eps = config.rho, config.epsilon

    def normalized(n: int) -> list[float]:
        scale = n ** (rho + 0.5) * math.sqrt(math.log(n))
        return [r.kappa / scale for r in records[n] if np.isfinite(r.kappa)]

    samples = {n: normalized(n) for n in records}
    summaries = {n: SummaryStats.from_samples(v) for n, v in samples.items()}
    fitted = eps * summaries[min(sizes)].q99
    points = [_point(n, eps, sum(1 for v in samples[n] if v <= fitted / eps), len(samples[n]))
              for n in sorted(sizes)]
    tail = TailEstimate("kappa <= (C0/eps) n^(rho+1/2) sqrt(log n) coverage", rho, fitted, tuple(points))
    return {"summaries": summaries, "tail": tail}


def run_condition_number(config: ExperimentConfig) -> ExperimentResult:
    """Distribution of kappa(C_n) normalized by n^(rho+1/2) sqrt(log n).

    The fitted constant is eps * q99 of the normalized statistic at the
    smallest dimension; coverage points report how often the event
    kappa <= (C0/eps) n^(rho+1/2) sqrt(log n) holds at each dimension.
    """
    return _run("kappa", config, _circulant_trial, _kappa_summary, min_size=2)


# ---------------------------------------------------------------------------
# Toeplitz draws: the rectangular stack [T; B] and the interlacing suite


def _draw_toeplitz(config: ExperimentConfig, gen: np.random.Generator, n: int):
    vals = config.distribution.sample(gen, 2 * n - 1)
    spec = ToeplitzSpec(n, CoefficientSequence(vals, index_origin=-(n - 1)))
    if config.xi_star_mode == "fixed":
        xi_star = config.xi_star_value
    else:
        xi_star = float(config.distribution.sample(gen, 1)[0])
    return spec, xi_star


def _rect_trial(gen, n, t, config):
    cspec = embed_toeplitz(*_draw_toeplitz(config, gen, n))
    rep = circulant_extremes(circulant_eigenvalues(cspec))
    sv = dense_svd(materialize_circulant(cspec)[:, :n])
    tol = 1e-8 * rep.sigma_max
    violated = sv[0] > rep.sigma_max + tol or sv[n - 1] < rep.sigma_min - tol
    return _singular_values(sv[0], sv[n - 1], ("clause-violation",) if violated else ()), None


def _rect_summary(config, sizes, records, extras):
    summaries = {
        n: SummaryStats.from_samples([r.kappa for r in recs if np.isfinite(r.kappa)])
        for n, recs in records.items()
    }
    return {"summaries": summaries, "violations": _count(records, "clause-violation")}


def run_rectangular(config: ExperimentConfig) -> ExperimentResult:
    """Condition number of the 2n x n stack A = [T; B] from the embedding.

    kappa(A) = sigma_1(A) / sigma_n(A) (for full-rank tall A the distance to
    the rank-deficient set is sigma_n).  Each trial also verifies the
    interlacing consequences sigma_1(A) <= sigma_max(C_2n) and
    sigma_n(A) >= sigma_min(C_2n).
    """
    return _run("rect", config, _rect_trial, _rect_summary)


def _interlace_trial(gen, n, t, config, cauchy_trials):
    spec, xi_star = _draw_toeplitz(config, gen, n)
    report = verify_interlacing(spec, xi_star)
    flags = tuple(flag for flag, on in (
        ("singular-embedding", report.singular_embedding),
        ("violation-a", not report.clause_a),
        ("violation-b", not report.clause_b),
        ("violation-c", report.clause_c is False),
    ) if on)
    cauchy = None
    if t < cauchy_trials:
        stack = materialize_circulant(embed_toeplitz(spec, xi_star))[:, : min(n, 12)]
        cauchy = cauchy_interlacing_check(stack)
    fields = _singular_values(report.sigma_c[0], report.sigma_c[-1], flags)
    return fields, (report.margin_a, report.margin_b, report.margin_c, cauchy)


def _interlace_summary(config, sizes, records, extras):
    trials = [extra for n in sorted(extras) for extra in extras[n]]
    margins = {"a": [e[0] for e in trials], "b": [e[1] for e in trials],
               "c": [e[2] for e in trials if e[2] is not None]}
    cauchy = [ok for n in sizes for *_, ok in extras[n] if ok is not None]
    return {
        "violations": _count(records, "violation-a", "violation-b", "violation-c"),
        "singular_count": _count(records, "singular-embedding"),
        "margin_summaries": {k: SummaryStats.from_samples(v) for k, v in margins.items() if v},
        "cauchy_checked": len(cauchy),
        "cauchy_failures": sum(1 for ok in cauchy if not ok),
    }


def run_interlacing_suite(config: ExperimentConfig, cauchy_trials: int = 8) -> ExperimentResult:
    """Batch the embedding inequalities over random Toeplitz draws.

    Every trial runs :func:`verify_interlacing` at full size; the column-prefix
    Cauchy check costs one SVD per prefix, so it runs on the first
    ``cauchy_trials`` trials of each size with the stack truncated to at most
    12 columns.  Violations are expected to be zero; singular embeddings skip
    clause (c) and are counted separately.
    """
    kernel = partial(_interlace_trial, cauchy_trials=cauchy_trials)
    return _run("interlace", config, kernel, _interlace_summary)


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
