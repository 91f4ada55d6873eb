"""Seeded, reproducible Monte Carlo experiments over the four benchmark laws.

Every experiment is a block kernel, one shared runner and a reducer.  The
runner checks the config and sizes, keys trial t at dimension n to a counter-based
Philox stream (``trial_stream(master_seed, n, t)``), cuts each size's trials
into blocks of consecutive trials, and fans the blocks out over ``workers``
processes (fork) under :func:`spectral.single_blas_thread`.  The kernel
measures the draws of one block: sigmin, kappa and sigmax draw every trial's
row from its own stream into one array and take the block's half spectra in
one FFT call; table1, rect and interlace measure one draw at a time.  No
record depends on its block, so records are bit-identical for any worker and
BLAS thread count and can be replayed one by one.  The reducer turns the
records into the summary fields of one :class:`ExperimentResult`.  Gaussian
draws use the inverse CDF on 53-bit uniforms in (0, 1); there is no
rejection state.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import multiprocessing
import re
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice
from types import SimpleNamespace
from typing import Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np
from scipy.special import ndtri

from .matrices import (
    CirculantSpec,
    CoefficientSequence,
    ToeplitzSpec,
    embed_toeplitz,
    materialize_circulant,
)
from .polynomials import TrigPolynomial, max_modulus, salem_zygmund_ratio
from .spectral import (
    SingularEmbeddingError,
    cauchy_interlacing_check,
    circulant_eigenvalues,
    circulant_extremes,
    circulant_extremes_rows,
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
        """``size`` draws of this law from ``gen``: :meth:`transform` of :meth:`draw`."""
        return self.transform(self.draw(gen, size))

    @staticmethod
    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        """The ``int64`` 53-bit integers behind ``size`` draws of any law."""
        return gen.integers(0, 1 << 53, size=size)

    def transform(self, bits: np.ndarray) -> np.ndarray:
        """This law's values of the 53-bit integers ``bits``, elementwise for any shape."""
        # 53-bit uniforms in (0, 1): bits + 0.5 rounds to even above 2^52, so 2^53 - 1 is clamped
        u = (np.minimum(bits, (1 << 53) - 2) + 0.5) * 2.0**-53
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
        return _from_json(cls, d, "distribution")


def trial_stream(master_seed: int, *key: int) -> tuple[np.random.Generator, int]:
    """Counter-based per-trial stream plus its recorded 64-bit seed word."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    seed = int(ss.generate_state(1, np.uint64)[0])
    return np.random.Generator(np.random.Philox(ss)), seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, and the one list of config keys, defaults and types;
    :meth:`science_dict` echoes every field but the runtime ``workers``."""

    experiment: str
    distribution: Distribution = Distribution("normal")
    trials: int = 100
    master_seed: int = 0
    n: int = 0                       # one size (table1: its 2n)
    sizes: tuple[int, ...] = ()      # several sizes, in place of n (not table1)
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
        if not 0.0 < self.rho < 0.25:  # a kind that does not read rho keeps the default
            raise ValueError(f"rho needs a value in (0, 1/4), got {self.rho!r}")
        if not all(math.isfinite(eps) and eps >= 0 for eps in (self.epsilon, *self.epsilons)):
            raise ValueError(f"epsilon and epsilons need finite values >= 0, got "
                             f"{self.epsilon!r} and {list(self.epsilons)!r}")
        if self.xi_star_mode not in ("random", "fixed"):
            raise ValueError("xi_star_mode must be 'random' or 'fixed'")
        if not math.isfinite(self.xi_star_value):
            raise ValueError(f"xi_star_value needs a finite number, got {self.xi_star_value!r}")
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
        """The config a JSON object describes: the schema of :meth:`science_dict` plus ``workers``."""
        return _from_json(cls, d, "config")


_FIELD_TYPES = {cls: get_type_hints(cls) for cls in (Distribution, ExperimentConfig)}


def _from_json(cls, d, what: str):
    """Dataclass ``cls`` from a JSON object keyed by its field names; numbers convert to
    the field's type, and unknown or missing keys and mistyped values raise ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a {what} is a JSON object, not {d!r}")
    types = _FIELD_TYPES[cls]
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; known keys {list(types)}")
    missing = [f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING and f.name not in d]
    if missing:
        raise ValueError(f"{what} needs the keys {missing}")
    return cls(**{key: _as_field(f"{what} key {key!r}", types[key], value) for key, value in d.items()})


def _as_field(where: str, hint, value):
    """``value`` as the field type ``hint``: strings and bools must already have it."""
    if get_origin(hint) is tuple and isinstance(value, (list, tuple)):
        return tuple(_as_field(where, get_args(hint)[0], v) for v in value)
    if hint is Distribution and isinstance(value, (str, dict)):
        return Distribution(value) if isinstance(value, str) else Distribution.from_dict(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if hint is float or (hint is int and (isinstance(value, int) or value.is_integer())):
            with suppress(OverflowError):  # an integer beyond the float range
                return hint(value)
    elif type(value) is hint:  # str and bool
        return value
    name = f"a list of {get_args(hint)[0].__name__}" if get_origin(hint) is tuple else hint.__name__
    raise ValueError(f"{where} needs {name}, got {value!r}")


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


_BLOCK_COEFFS = 1 << 14  # trials of size n per block: at most max(1, _BLOCK_COEFFS // n)


def _blocks(config: ExperimentConfig, kernel: Callable, n: int,
            blocks: Sequence[range]) -> list[tuple[TrialRecord, object]]:
    """The trials of ``blocks`` at dimension n: per block, draw their streams, run the
    kernel and record the fields."""
    records = []
    for block in blocks:
        streams = [trial_stream(config.master_seed, n, t) for t in block]
        out = kernel([gen for gen, _ in streams], n, block, config)
        records += [(TrialRecord(t, seed, **fields), extra)
                    for t, (_, seed), (fields, extra) in zip(block, streams, out, strict=True)]
    return records


def _in_order(pool: ProcessPoolExecutor, fn: Callable, tasks: Sequence, width: int):
    """``fn`` of each task in ``pool``, with at most ``width`` tasks submitted at a time,
    yielded in task order; the first exception cancels the tasks still queued."""
    tasks = iter(tasks)
    window = deque(pool.submit(fn, task) for task in islice(tasks, width))
    try:
        while window:
            result = window.popleft().result()
            window.extend(pool.submit(fn, task) for task in islice(tasks, 1))
            yield result
    finally:
        for future in window:
            future.cancel()


def _each_trial(trial_kernel: Callable, gens, n, block, config) -> list[tuple[dict, object]]:
    """Block kernel over a per-trial ``trial_kernel(gen, n, t, config)``."""
    return [trial_kernel(gen, n, t, config) for gen, t in zip(gens, block)]


# kind -> (smallest size, fields it reads beside experiment, distribution, trials, master_seed
# and workers); "a|b" reads a or b, not both; "a>b" reads b only when a is not at its default
_READS = {
    "table1": (2, "n resample_singular"),
    "sigmax": (2, "sizes|n symmetric oversampling"),
    "sigmin": (1, "sizes|n symmetric|rho epsilons|epsilon"),  # symmetric has its own exponent
    "kappa": (2, "sizes|n symmetric rho epsilon"),
    **dict.fromkeys(("rect", "interlace"), (1, "sizes|n xi_star_mode>xi_star_value")),
}


def _run(experiment: str, config: ExperimentConfig, kernel: Callable, reduce: Callable) -> ExperimentResult:
    """Check the config, run every trial of every size in blocks, and reduce the records.

    Before any trial runs, each field that ``experiment`` (not ``config.experiment``)
    does not read by ``_READS`` must keep its default, and the sizes, ``config.sizes`` else
    ``config.n``, must be distinct and large enough.  ``kernel(gens, n, block, config)`` gets
    the generators of a block of consecutive trials and returns, in trial
    order, each trial's record fields and an extra for the reducer.  A block
    holds at most ``max(1, _BLOCK_COEFFS // n)`` trials.  With OpenBLAS on
    one thread, blocks run in this process for one worker and otherwise in
    a pool of ``config.workers`` forked processes, which inherit that pin;
    there a block holds at most a quarter of a worker's share of the trials,
    and each pool task about a quarter of its share of the blocks.  At most
    ``config.workers`` tasks are submitted at a time, so after a task raises
    only those already running finish before the error propagates.
    ``reduce(config, sizes, records, extras)`` returns the summary fields.
    """
    min_size, reads = _READS[experiment]
    given = [f.name for f in dataclasses.fields(config) if getattr(config, f.name) != f.default
             and f.name not in ("experiment", "distribution", "trials", "master_seed", "workers")]
    for a, op, b in re.findall(r"(\w+)([|>]?)(\w*)", reads):
        if b in given and (a in given) == (op == "|"):  # both of a|b, or b of a>b without a
            raise ValueError(f"{experiment} reads {a} or {b}, not both" if op == "|"
                             else f"{experiment} reads {b} only when {a} is not {getattr(config, a)!r}")
        given = [name for name in given if name not in (a, b)]
    if given:
        readers = [kind for kind, (_, r) in _READS.items() if given[0] in re.findall(r"\w+", r)]
        raise ValueError(f"{given[0]} is for {', '.join(readers)} only; {experiment} does not read it")
    sizes = config.sizes or (config.n,)
    if min(sizes) < min_size:
        raise ValueError(f"{experiment} needs every size n >= {min_size}, got sizes {list(sizes)}")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"{experiment} needs distinct sizes, got sizes {list(sizes)}")
    share = -(-config.trials // (4 * config.workers)) if config.workers > 1 else config.trials
    trials = {}
    with single_blas_thread(), ExitStack() as stack:
        pool = None
        if config.workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                config.workers, mp_context=multiprocessing.get_context("fork")))
        for n in sizes:
            step = min(max(1, _BLOCK_COEFFS // n), share)
            blocks = [range(b, min(b + step, config.trials)) for b in range(0, config.trials, step)]
            run_blocks = partial(_blocks, config, kernel, n)
            if pool is None:
                trials[n] = run_blocks(blocks)
            else:
                chunk = -(-len(blocks) // (4 * config.workers))
                tasks = [blocks[b : b + chunk] for b in range(0, len(blocks), chunk)]
                trials[n] = [out for part in _in_order(pool, run_blocks, tasks, config.workers)
                             for out in part]
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

_MAX_RESAMPLES = 64


def _table1_trial(gen, big_n, t, config):
    """A singular draw is redrawn from ``trial_stream(master_seed, 2n, t, attempt)``
    when resampling is on, at most ``_MAX_RESAMPLES`` times."""
    for attempt in range(_MAX_RESAMPLES + 1 if config.resample_singular else 1):
        if attempt:
            gen, _ = trial_stream(config.master_seed, big_n, t, attempt)
        row = config.distribution.sample(gen, big_n)
        lam = circulant_eigenvalues(CirculantSpec(big_n, CoefficientSequence(row)))
        fields = _extremes(circulant_extremes(lam))
        try:
            res = schur_sigma_min(lam)
        except SingularEmbeddingError:
            continue
        fields["flags"] = tuple(flag for flag, on in (
            (f"resampled-{attempt}", attempt > 0),
            ("structured-fallback", res.structured_fallback),
            ("fallback-used", res.used_fallback),
            ("exact-singular", res.singular),
        ) if on)
        fields["sigmin_s"] = big_n * res.value
        return fields, None
    return dict(fields, flags=("singular-embedding",)), None


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
    if config.n % 2 != 0:
        raise ValueError(f"table1 needs an even dimension 2n >= 2, got {config.n}")
    return _run("table1", config, partial(_each_trial, _table1_trial), _table1_summary)


# ---------------------------------------------------------------------------
# circulant tails across dimensions: sigma_max, sigma_min and kappa


def _circulant_rows(config: ExperimentConfig, gens, n: int) -> np.ndarray:
    """One trial circulant's first row per generator, symmetric when requested: each
    trial's 53-bit integers fill one row of a block, which the law transforms at once."""
    width = n // 2 + 1 if config.symmetric else n
    bits = np.empty((len(gens), width), dtype=np.int64)
    for row, gen in zip(bits, gens):
        row[:] = Distribution.draw(gen, width)
    rows = config.distribution.transform(bits)
    if config.symmetric:  # xi_j = xi_{n-j}: column j takes free coefficient min(j, n - j)
        j = np.arange(n)
        rows = rows[:, np.minimum(j, n - j)]
    return rows


def _sigmax_block(gens, n, block, config):
    """Extremes from the block's half spectra; the sup-norm bracket per row, without flags."""
    rows = _circulant_rows(config, gens, n)
    out = []
    for row, rep in zip(rows, circulant_extremes_rows(rows)):
        fields = _extremes(rep)
        if config.oversampling:
            poly = TrigPolynomial(CoefficientSequence(row), symmetric=config.symmetric)
            fields["ratio_lower"], fields["ratio_upper"] = salem_zygmund_ratio(
                max_modulus(poly, config.oversampling), n)
        out.append((fields, None))
    return out


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
    return _run("sigmax", config, _sigmax_block, _sigmax_summary)


def _circulant_block(gens, n, block, config):
    """Extremes from the block's half spectra, flagging singular draws."""
    return [(_extremes(rep, ("singular-embedding",) if rep.singular else ()), None)
            for rep in circulant_extremes_rows(_circulant_rows(config, gens, n))]


def _sigmin_summary(config, sizes, records, extras):
    exponent = 0.51 if config.symmetric else config.rho
    points = []
    for n in sorted(sizes):
        smins = np.array([r.sigma_min for r in records[n]])
        singular = np.array(["singular-embedding" in r.flags for r in records[n]])
        for eps in config.epsilons or (config.epsilon,):
            k = int(np.count_nonzero((smins <= eps * n ** (-exponent)) | singular))
            points.append(_point(n, float(eps), k, smins.size))
    return {"tail": TailEstimate(f"sigma_min <= eps * n^-{exponent}", exponent, None, tuple(points))}


def run_sigma_min_tail(config: ExperimentConfig) -> ExperimentResult:
    """Empirical P(sigma_min(C_n) <= eps n^-rho) over an epsilon grid.

    The symmetric variant draws the floor(n/2)+1 free coefficients and uses
    the fixed exponent 0.51 in place of rho.  Exceedance counts are computed
    on the same fixed samples for every epsilon, so nested-event monotonicity
    holds exactly.  A draw flagged singular (sigma_min at or below
    1e-12 * n * sigma_max) counts at every epsilon: below that cutoff the
    computed sigma_min is FFT roundoff, so the epsilon = 0 point counts the
    singular draws, not the ones that happened to round to exactly 0.0.
    """
    return _run("sigmin", config, _circulant_block, _sigmin_summary)


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
    if not config.epsilon > 0:  # the fitted constant is divided by it
        raise ValueError(f"kappa needs epsilon > 0, got {config.epsilon!r}")
    return _run("kappa", config, _circulant_block, _kappa_summary)


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
    sv = dense_svd(materialize_circulant(cspec, n))
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
    return _run("rect", config, partial(_each_trial, _rect_trial), _rect_summary)


def _interlace_trial(gen, n, t, config, cauchy_trials):
    spec, xi_star = _draw_toeplitz(config, gen, n)
    report = verify_interlacing(spec, xi_star)
    flags = tuple(flag for flag, on in (
        ("singular-embedding", report.singular_embedding),
        ("violation-a", not report.clause_a),
        ("violation-b", not report.clause_b),
        ("violation-c", report.clause_c is False),
    ) if on)
    cauchy = cauchy_interlacing_check(report.stack[:, : min(n, 12)]) if t < cauchy_trials else None
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
    kernel = partial(_each_trial, partial(_interlace_trial, cauchy_trials=cauchy_trials))
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
