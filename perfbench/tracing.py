"""Traced run: per-layer spans and counters for every workload.

Two parts, on the trials of the first passes of each workload:

* one pass of every workload through ``cli.dispatch``, with spans around the
  calls the CLI makes into the other layers (the ``run_*`` experiment, the
  CSV/JSON writers, the census calls), which leaves the CLI's own time;
* a replay of a subset of those trials through the layers' public functions,
  in the order the runner uses them, keyed by
  ``experiments.trial_stream(master_seed, n, t)``.

Spans (name, start, end, parent) stay in memory and are written out when the
run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import statistics
import time
from collections import Counter
from pathlib import Path

from circulab import arithmetic, cli, experiments, matrices, polynomials, spectral

import workloads as wl

REPLAY_PASSES = 3      # table1 and interlace replay the trials of this many passes
SIGMAX_REPLAY = 4      # trials per size and law
SIGMIN_REPLAY = 40     # trials per size
CENSUS_REPLAY = 100    # consecutive M from CENSUS_MAX_M // 2, four thresholds each

# per-call medians of span self times: metric -> (replay, span, unit, ns per unit)
PER_CALL = {
    "experiments.trial_stream_us": ("tails", "experiments.trial_stream", "us", 1e3),
    "experiments.sample_us": ("tails", "experiments.sample", "us", 1e3),
    "matrices.embed_toeplitz_us": ("interlace", "matrices.embed_toeplitz", "us", 1e3),
    "matrices.materialize_circulant_ms": ("interlace", "matrices.materialize_circulant", "ms", 1e6),
    "matrices.materialize_toeplitz_ms": ("interlace", "matrices.materialize_toeplitz", "ms", 1e6),
    "spectral.circulant_eigenvalues_us": ("table1", "spectral.circulant_eigenvalues", "us", 1e3),
    "spectral.circulant_extremes_us": ("table1", "spectral.circulant_extremes", "us", 1e3),
    "spectral.build_schur_block_ms": ("table1", "spectral.build_schur_block", "ms", 1e6),
    "spectral.sigma_min_fast_ms": ("table1", "spectral.sigma_min_fast", "ms", 1e6),
    "spectral.dense_svd_stack_ms": ("interlace", "spectral.dense_svd_stack", "ms", 1e6),
    "spectral.dense_svd_toeplitz_ms": ("interlace", "spectral.dense_svd_toeplitz", "ms", 1e6),
    "spectral.dense_svd_schur_ms": ("interlace", "spectral.dense_svd_schur", "ms", 1e6),
    "spectral.verify_interlacing_ms": ("interlace", "spectral.verify_interlacing", "ms", 1e6),
    "spectral.cauchy_check_ms": ("interlace", "spectral.cauchy_check", "ms", 1e6),
    "polynomials.max_modulus_ms": ("tails", "polynomials.max_modulus", "ms", 1e6),
    "arithmetic.gcd_census_first_us": ("census", "arithmetic.gcd_census_first", "us", 1e3),
    "arithmetic.gcd_census_cached_us": ("census", "arithmetic.gcd_census_cached", "us", 1e3),
}

# totals over the traced dispatch pass: metric -> (span, self time or duration, unit, ns per unit)
DISPATCH_TOTALS = {
    "experiments.run_s": ("experiments.run", False, "s", 1e9),
    "cli.output_ms": ("cli.output", False, "ms", 1e6),
    "cli.self_ms": ("cli.dispatch", True, "ms", 1e6),
}

COUNTS = {
    "matrices.dense_bytes": "bytes",
    "spectral.schur_block_bytes": "bytes",
    "spectral.fallbacks": "count",
    "spectral.singular_embeddings": "count",
    "polynomials.grid_points": "count",
    "arithmetic.cases": "count",
}


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def self_ns(self) -> list[int]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        """One JSON array per span: [id, name, start_ns, end_ns, parent id or -1]."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start - t0, end - t0, parent]) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


@contextlib.contextmanager
def _spans_around_cli_calls(tracer: Tracer):
    """Wrap the module attributes through which ``cli.dispatch`` reaches the other layers."""
    targets = [(experiments, f, "experiments.run") for f in
               ("run_table1", "run_sigma_max_tail", "run_sigma_min_tail", "run_interlacing_suite")]
    targets += [(experiments, f, "cli.output") for f in ("trials_to_csv", "ratios_to_csv", "summary_to_json")]
    targets += [(arithmetic, "lemma_rows_to_csv", "cli.output"),
                (arithmetic, "gcd_census", "arithmetic.gcd_census")]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, name in targets:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# replays; each returns the values it computed, keyed like the CLI outputs


def _draw(tr: Tracer, master_seed: int, law: str, key: tuple[int, int], size: int):
    with tr.span("experiments.trial_stream"):
        gen, _ = experiments.trial_stream(master_seed, *key)
    with tr.span("experiments.sample"):
        return gen, experiments.Distribution(law).sample(gen, size)


def _spectrum(tr: Tracer, row):
    spec = matrices.CirculantSpec(row.size, matrices.CoefficientSequence(row))
    with tr.span("spectral.circulant_eigenvalues"):
        lam = spectral.circulant_eigenvalues(spec)
    with tr.span("spectral.circulant_extremes"):
        spectral.circulant_extremes(lam)
    return spec


def replay_table1(tr: Tracer, seed: int, counts: Counter) -> dict:
    two_n = wl.TABLE1_TWO_N
    values = {}
    for p, (i, law) in itertools.product(range(REPLAY_PASSES), enumerate(wl.LAWS)):
        ms = wl.pass_seed(seed, p, i)
        for t in range(wl.TABLE1_TRIALS):
            with tr.span("trial"):
                _, row = _draw(tr, ms, law, (two_n, t), two_n)
                spec = _spectrum(tr, row)
                try:
                    with tr.span("spectral.build_schur_block"):
                        block = spectral.build_schur_block(spec)
                except spectral.SingularEmbeddingError:
                    counts["spectral.singular_embeddings"] += 1
                    continue
                counts["spectral.schur_block_bytes"] = block.matrix.nbytes
                with tr.span("spectral.sigma_min_fast"):
                    res = spectral.sigma_min_fast(block.matrix)
                counts["spectral.fallbacks"] += res.used_fallback
                if p == 0:  # the pass the traced dispatch ran
                    values[(law, t)] = two_n * res.value
    return values


def replay_interlace(tr: Tracer, seed: int, counts: Counter) -> dict:
    n = max(wl.INTERLACE_SIZES)
    values = {}
    for p, (i, law) in itertools.product(range(REPLAY_PASSES), enumerate(wl.INTERLACE_LAWS)):
        ms = wl.pass_seed(seed, p, i)
        for t in range(wl.INTERLACE_TRIALS):
            with tr.span("trial"):
                gen, vals = _draw(tr, ms, law, (n, t), 2 * n - 1)
                with tr.span("experiments.sample"):
                    xi_star = float(experiments.Distribution(law).sample(gen, 1)[0])
                spec = matrices.ToeplitzSpec(n, matrices.CoefficientSequence(vals, index_origin=-(n - 1)))
                # the steps of spectral.verify_interlacing, one span each
                with tr.span("matrices.embed_toeplitz"):
                    cspec = matrices.embed_toeplitz(spec, xi_star)
                with tr.span("spectral.circulant_eigenvalues"):
                    spectral.circulant_eigenvalues(cspec)
                with tr.span("matrices.materialize_circulant"):
                    cmat = matrices.materialize_circulant(cspec)
                with tr.span("spectral.dense_svd_stack"):
                    spectral.dense_svd(cmat[:, :n])
                with tr.span("matrices.materialize_toeplitz"):
                    tmat = matrices.materialize_toeplitz(spec)
                with tr.span("spectral.dense_svd_toeplitz"):
                    spectral.dense_svd(tmat)
                counts["matrices.dense_bytes"] = cmat.nbytes + tmat.nbytes
                try:
                    with tr.span("spectral.build_schur_block"):
                        block = spectral.build_schur_block(cspec)
                except spectral.SingularEmbeddingError:
                    pass
                else:
                    with tr.span("spectral.dense_svd_schur"):
                        spectral.dense_svd(block.matrix)
                # the call the runner makes, as one opaque span
                with tr.span("spectral.verify_interlacing"):
                    values[(p, law, t)] = spectral.verify_interlacing(spec, xi_star).ok
                with tr.span("spectral.cauchy_check"):
                    spectral.cauchy_interlacing_check(cmat[:, : min(n, 12)])
    return values


def replay_tails(tr: Tracer, seed: int, counts: Counter) -> dict:
    values = {}
    for i, law in enumerate(wl.TAILS_LAWS):
        ms = wl.pass_seed(seed, 0, i)
        for n in wl.TAILS_SIZES:
            for t in range(SIGMAX_REPLAY):
                with tr.span("trial"):
                    _, row = _draw(tr, ms, law, (n, t), n)
                    _spectrum(tr, row)
                    poly = polynomials.TrigPolynomial(matrices.CoefficientSequence(row))
                    with tr.span("polynomials.max_modulus"):
                        bracket = polynomials.max_modulus(poly, wl.TAILS_OVERSAMPLING)
                    counts["polynomials.grid_points"] += wl.TAILS_OVERSAMPLING * n
                    values[(law, n, t)] = polynomials.salem_zygmund_ratio(bracket, n)[0]
    ms = wl.pass_seed(seed, 0, len(wl.TAILS_LAWS))
    for n in wl.TAILS_SIZES:
        for t in range(SIGMIN_REPLAY):
            with tr.span("trial"):
                _, row = _draw(tr, ms, "normal", (n, t), n)
                _spectrum(tr, row)
    return values


def replay_census(tr: Tracer, seed: int, counts: Counter) -> dict:
    values = {}
    start = wl.CENSUS_MAX_M // 2
    for m in range(start, start + CENSUS_REPLAY):
        for k, y in enumerate((1.0, 2.0, math.sqrt(m), float(m))):
            # the first call for a new M builds its gcd table
            with tr.span("arithmetic.gcd_census_first" if k == 0 else "arithmetic.gcd_census_cached"):
                census = arithmetic.gcd_census(m, max(y, 1.0))
            counts["arithmetic.cases"] += 1
            values[(m, y)] = census.exact_count - census.totient_sum
    return values


REPLAYS = {"table1": replay_table1, "interlace": replay_interlace,
           "tails": replay_tails, "census": replay_census}


def _check_replay(ck: wl.Checker, name: str, values: dict, out: Path) -> None:
    """The replay reproduces what the CLI wrote for the same trials."""
    if name == "table1":
        for law in wl.LAWS:
            _, rows = wl.read_trials(out / f"table1_{law}_trials.csv")
            for (vlaw, t), want in values.items():
                if vlaw == law:
                    ck.close(wl.num(rows[t]["sigmin_S"]), want, f"replay table1 {law} trial {t}", rtol=1e-9)
    elif name == "tails":
        got = {}
        for law in wl.TAILS_LAWS:
            with open(out / f"sigmax_{law}_ratios.csv", newline="") as fh:
                got.update({(law, int(r["n"]), int(r["trial"])): wl.num(r["ratio_lower"])
                            for r in csv.DictReader(fh)})
        for key, want in values.items():
            ck.close(got.get(key), want, f"replay sigmax {key} ratio_lower", rtol=1e-12)
    elif name == "interlace":
        ck.expect(all(values.values()), f"replay interlace: reports not ok {values}")
    else:  # census margins
        ck.expect(not any(values.values()), "replay census: nonzero margin")


# ---------------------------------------------------------------------------


def _span_cost_ns() -> float:
    probe = Tracer()
    reps = 5000
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        with probe.span("probe"):
            pass
    return (time.perf_counter_ns() - t0) / reps


def traced_run(seed: int, work: Path, ck: wl.Checker, rng, spans_path: Path) -> tuple[dict, int, int]:
    """Trace every workload; returns (per-layer metrics, operations attempted, failed)."""
    tr = Tracer()
    attempted = failed = 0
    segments = {}
    for name, workload in wl.WORKLOADS.items():
        out = work / f"trace-{name}"
        out.mkdir()
        calls = workload.calls(seed, 0)
        with _spans_around_cli_calls(tr):
            for call in calls:
                with tr.span("cli.dispatch"), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.dispatch(["--out", str(out), *call.argv])
                attempted += 1
                failed += code != 0
        for call in calls:
            call.verify(ck, out, rng)
        lo, counts = len(tr.spans), Counter()
        values = REPLAYS[name](tr, seed, counts)
        segments[name] = (lo, len(tr.spans), counts)
        attempted += sum(1 for span in tr.spans[lo:] if span[3] == -1)  # replayed trials and census cases
        _check_replay(ck, name, values, out)

    own = tr.self_ns()
    metrics = {}
    for metric, (replay, span, unit, scale) in PER_CALL.items():
        lo, hi, _ = segments[replay]
        vals = [own[i] for i in range(lo, hi) if tr.spans[i][0] == span]
        metrics[metric] = {"value": statistics.median(vals) / scale, "unit": unit}
    for metric, (span, use_self, unit, scale) in DISPATCH_TOTALS.items():
        total = sum(own[i] if use_self else s[2] - s[1] for i, s in enumerate(tr.spans) if s[0] == span)
        metrics[metric] = {"value": total / scale, "unit": unit}
    merged = sum((counts for _, _, counts in segments.values()), Counter())
    for metric, unit in COUNTS.items():
        metrics[metric] = {"value": int(merged[metric]), "unit": unit}
    traced_ns = sum(end - start for _, start, end, parent in tr.spans if parent == -1)
    metrics["trace.overhead_pct"] = {"value": 100.0 * len(tr.spans) * _span_cost_ns() / traced_ns, "unit": "%"}
    tr.write(spans_path)
    return metrics, attempted, failed
