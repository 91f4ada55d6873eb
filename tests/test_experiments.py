import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

import circulab
from circulab import experiments, spectral
from circulab.experiments import (
    Distribution,
    ExperimentConfig,
    TrialRecord,
    ratios_to_csv,
    run_condition_number,
    run_interlacing_suite,
    run_rectangular,
    run_sigma_max_tail,
    run_sigma_min_tail,
    run_table1,
    summarize,
    summary_to_json,
    trial_stream,
    trials_to_csv,
    wilson_interval,
)
from circulab.matrices import CirculantSpec, CoefficientSequence
from circulab.spectral import (
    _SchurOperator,
    circulant_eigenvalues,
    dense_svd,
    schur_block_oracle,
    sigma_min_fast,
)


def cfg(**kw):
    base = dict(
        experiment="test",
        distribution=Distribution("normal"),
        trials=10,
        master_seed=42,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestDistribution:
    def test_kinds_and_ranges(self):
        gen, _ = trial_stream(0, 1, 0)
        for kind, check in [
            ("bernoulli", lambda x: set(np.unique(x)) <= {0.0, 1.0}),
            ("rademacher", lambda x: set(np.unique(x)) <= {-1.0, 1.0}),
            ("uniform", lambda x: np.all((x > 0) & (x < 1))),
            ("normal", lambda x: np.all(np.isfinite(x))),
        ]:
            x = Distribution(kind).sample(gen, 500)
            assert check(x), kind

    def test_top_integer_stays_below_one(self):
        # above 2^52, bits + 0.5 rounds to even: unclamped, 2^53 - 1 gave u = 1.0 and +inf
        bits = np.array([0, 2**53 - 2, 2**53 - 1])
        u = Distribution("uniform").transform(bits)
        assert u[2] < 1.0 and u[2] == u[1]
        assert np.array_equal(u[:2], (bits[:2] + 0.5) * 2.0**-53)
        x = Distribution("normal").transform(bits)
        assert np.all(np.isfinite(x)) and x[2] == x[1] > 8.0

    def test_scale_shift(self):
        gen, _ = trial_stream(0, 1, 0)
        x = Distribution("rademacher", scale=3.0, shift=1.0).sample(gen, 100)
        assert set(np.unique(x)) <= {-2.0, 4.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Distribution("cauchy")

    def test_normal_moments(self):
        gen, _ = trial_stream(7, 1, 0)
        x = Distribution("normal").sample(gen, 50_000)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02


class TestStreams:
    def test_reproducible_and_distinct(self):
        g1, s1 = trial_stream(42, 64, 3)
        g2, s2 = trial_stream(42, 64, 3)
        g3, s3 = trial_stream(42, 64, 4)
        a = g1.integers(0, 1 << 53, size=8)
        assert np.array_equal(a, g2.integers(0, 1 << 53, size=8))
        assert s1 == s2
        assert s3 != s1 or not np.array_equal(a, g3.integers(0, 1 << 53, size=8))


class TestSummarize:
    def test_hand_numbers(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.minimum == 1.0
        assert s.mean == 2.5
        assert s.q25 == 1.75  # type-7 linear interpolation
        assert s.q50 == 2.5

    def test_constant_samples(self):
        s = summarize([2.0] * 10)
        assert s.q01 == s.q25 == s.q50 == s.q75 == s.q99 == 2.0
        assert sum(c for _, _, c in s.bins) == 10

    def test_uniform_mean(self):
        gen, _ = trial_stream(0, 1, 0)
        x = Distribution("uniform").sample(gen, 10_000)
        s = summarize(x)
        assert abs(s.mean - 0.5) < 0.01

    def test_quantile_ordering(self):
        gen, _ = trial_stream(1, 1, 0)
        s = summarize(Distribution("normal").sample(gen, 2000))
        assert s.minimum <= s.q01 <= s.q25 <= s.q50 <= s.q75 <= s.q99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_tight_cluster_with_outlier_caps_bins(self):
        # IQR ~1e-16 against a unit range asks Freedman-Diaconis for ~1e16 bins
        x = np.concatenate([np.full(30, 0.5) + np.arange(30) * 1e-17, [0.0, 1.0]])
        s = summarize(x)
        assert len(s.bins) <= 10_000
        assert sum(c for _, _, c in s.bins) == x.size

    def test_histogram_counts_total(self):
        gen, _ = trial_stream(2, 1, 0)
        x = Distribution("normal").sample(gen, 500)
        s = summarize(x)
        assert sum(c for _, _, c in s.bins) == 500


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(5, 10)
        assert 0.2 < lo < 0.5 < hi < 0.8

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.12
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.88


class TestTable1:
    def test_oracle_chain_small_n(self):
        # harness sigmin_S equals 2n * dense_svd(schur_block_oracle) per trial
        config = cfg(experiment="table1", n=8, trials=20)
        res = run_table1(config)
        for rec in res.records[8]:
            if rec.sigmin_s is None:
                continue
            gen, _ = trial_stream(config.master_seed, 8, rec.trial_index)
            row = config.distribution.sample(gen, 8)
            oracle = schur_block_oracle(CirculantSpec(8, CoefficientSequence(row)))
            ref = 8 * dense_svd(oracle.matrix)[-1]
            assert rec.sigmin_s == pytest.approx(ref, rel=1e-8)

    def test_oracle_chain_all_distributions_2n32(self):
        for kind in ("bernoulli", "rademacher", "uniform", "normal"):
            config = cfg(experiment="table1", n=32, trials=10,
                         distribution=Distribution(kind))
            res = run_table1(config)
            for rec in res.records[32]:
                if rec.sigmin_s is None:
                    continue
                gen, _ = trial_stream(config.master_seed, 32, rec.trial_index)
                row = config.distribution.sample(gen, 32)
                oracle = schur_block_oracle(CirculantSpec(32, CoefficientSequence(row)))
                ref = 32 * dense_svd(oracle.matrix)[-1]
                assert rec.sigmin_s == pytest.approx(ref, rel=1e-8)

    def test_singular_trials_flagged_not_summarized(self):
        # Rademacher at tiny size hits exact zero eigenvalue sums regularly
        config = cfg(experiment="table1", n=4, trials=200,
                     distribution=Distribution("rademacher"))
        res = run_table1(config)
        flagged = [r for r in res.records[4] if "singular-embedding" in r.flags]
        assert res.singular_count == len(flagged) > 0
        assert all(r.sigmin_s is None for r in flagged)
        assert res.summary.count == config.trials - res.singular_count

    def test_resample_mode_fills_all_trials(self):
        config = cfg(experiment="table1", n=4, trials=100,
                     distribution=Distribution("rademacher"), resample_singular=True)
        res = run_table1(config)
        assert res.singular_count == 0
        assert res.summary.count == 100
        assert any("resampled" in f for r in res.records[4] for f in r.flags)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            run_table1(cfg(experiment="table1", n=7))

    @staticmethod
    def gathered_block(config, t):
        gen, _ = trial_stream(config.master_seed, config.n, t)
        row = config.distribution.sample(gen, config.n)
        lam = circulant_eigenvalues(CirculantSpec(config.n, CoefficientSequence(row)))
        return _SchurOperator(lam).matrix()

    def test_levinson_garbage_falls_back_to_lu(self):
        # at 2n = 8 and 16 Levinson on the block of a discrete draw can return
        # without an error and still be wrong: the guard must send those trials
        # to the LU path, flag them and report the LU value
        silent = 0
        for kind in ("rademacher", "bernoulli"):
            for big_n in (8, 16):
                config = cfg(experiment="table1", n=big_n, trials=40, master_seed=5,
                             distribution=Distribution(kind))
                res = run_table1(config)
                flagged = [r for r in res.records[big_n] if "structured-fallback" in r.flags]
                assert res.structured_fallback_count == len(flagged)
                assert res.to_dict()["structured_fallback_count"] == len(flagged)
                for rec in res.records[big_n]:
                    if rec.sigmin_s is None:
                        continue
                    block = self.gathered_block(config, rec.trial_index)
                    lu = big_n * sigma_min_fast(block).value
                    if rec not in flagged:
                        assert rec.sigmin_s == pytest.approx(lu, rel=1e-10, abs=0.0)
                        continue
                    assert rec.sigmin_s == lu
                    n = big_n // 2
                    try:
                        solve_toeplitz((block[:, 0], block[0]), np.eye(n)[:, [0, n - 1]])
                    except np.linalg.LinAlgError:
                        continue
                    silent += 1
        assert silent >= 5

    def test_levinson_error_falls_back_to_lu(self, monkeypatch):
        def singular_minor(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular principal minor.")

        monkeypatch.setattr(spectral, "solve_toeplitz", singular_minor)
        config = cfg(experiment="table1", n=64, trials=6)
        res = run_table1(config)
        assert res.structured_fallback_count == 6
        for rec in res.records[64]:
            assert rec.flags == ("structured-fallback",)
            assert rec.sigmin_s == 64 * sigma_min_fast(self.gathered_block(config, rec.trial_index)).value


def _kernel_failing_on_block_0(log_dir, gens, n, block, config):
    """Stand-in block kernel: log that ``block`` started, fail on the first block."""
    (log_dir / f"block-{block.start}").touch()
    if block.start == 0:
        raise RuntimeError("block 0 fails")
    return [({}, None) for _ in block]


class TestDeterminism:
    def test_first_failure_stops_the_pool(self, tmp_path):
        # 64 trials at n = 8 on two workers are eight one-block tasks; once block 0
        # raises, no task beyond those already submitted with it may start
        config = cfg(experiment="sigmin", sizes=(8,), trials=64, workers=2)
        kernel = partial(_kernel_failing_on_block_0, tmp_path)
        with pytest.raises(RuntimeError, match="block 0 fails"):
            experiments._run("sigmin", config, kernel, reduce=None)
        started = sorted(p.name for p in tmp_path.iterdir())
        assert "block-0" in started and len(started) <= config.workers, started

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        # sigmin, kappa and sigmax are FFT-only (the symmetric cases draw the
        # free coefficients); rect and interlace run LAPACK dgejsv in every
        # trial; table1 runs the structured Schur-block kernel (FFTs and
        # Levinson) at a size where a dense LAPACK path would thread
        cases = [
            ("sigmin", run_sigma_min_tail, (32,), 60, False),
            ("sigmin", run_sigma_min_tail, (31, 32), 40, True),
            ("kappa", run_condition_number, (16, 64), 40, False),
            ("sigmax", run_sigma_max_tail, (16, 64), 30, False),
            ("sigmax", run_sigma_max_tail, (15, 16), 20, True),
            ("rect", run_rectangular, (8, 24), 20, False),
            ("interlace", run_interlacing_suite, (8, 24), 12, False),
            ("table1", run_table1, (64,), 12, False),
            ("table1", run_table1, (1024,), 6, False),
        ]
        for kind, run, sizes, trials, symmetric in cases:
            blobs = {}
            for workers in (1, 4):
                if kind == "table1":
                    config = cfg(experiment=kind, n=sizes[0], trials=trials, workers=workers)
                else:
                    config = cfg(experiment=kind, sizes=sizes, trials=trials, rho=0.2,
                                 symmetric=symmetric, workers=workers)
                res = run(config)
                out = tmp_path / f"{kind}{sizes[0]}_w{workers}"
                out.mkdir()
                for n in sizes:
                    trials_to_csv(res.records[n], out / f"n{n}.csv", config.science_dict())
                summary_to_json(res.to_dict(), out / "summary.json")
                if kind == "sigmax":
                    ratios_to_csv(res.records, "normal", out / "ratios.csv")
                blobs[workers] = [p.read_bytes() for p in sorted(out.iterdir())]
                if kind == "table1":
                    assert res.structured_fallback_count == 0
            assert len(blobs[1]) == len(sizes) + 1 + (kind == "sigmax")
            assert blobs[1] == blobs[4], kind

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trial_blocks_do_not_change_records(self, monkeypatch, workers):
        # the FFT-only kernels take one half spectrum per block of trials;
        # a record must not depend on which trials share its block
        runs = [("sigmin", run_sigma_min_tail), ("kappa", run_condition_number),
                ("sigmax", run_sigma_max_tail)]
        for (kind, run), symmetric in itertools.product(runs, (False, True)):
            config = cfg(experiment=kind, sizes=(15, 16, 64), trials=70, rho=0.2,
                         symmetric=symmetric, workers=workers,
                         distribution=Distribution("rademacher" if symmetric else "normal"))
            records = {}
            for coeffs in (experiments._BLOCK_COEFFS, 100, 1):  # default, uneven, one trial
                monkeypatch.setattr(experiments, "_BLOCK_COEFFS", coeffs)
                records[coeffs] = run(config).records
                monkeypatch.undo()
            assert records[100] == records[experiments._BLOCK_COEFFS], (kind, symmetric)
            assert records[1] == records[experiments._BLOCK_COEFFS], (kind, symmetric)

    # the CLI, then the count of its child processes still alive
    _CLI = ("import multiprocessing, sys; from circulab.cli import main\n"
            "try: main()\n"
            "finally: print(f'live children: {len(multiprocessing.active_children())}')")

    @classmethod
    def _cli_outputs(cls, out, threads, *argv):
        """Every output file of one CLI run in a subprocess under OPENBLAS_NUM_THREADS=threads;
        no worker process may outlive the run."""
        src = str(Path(circulab.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", cls._CLI, "--out", str(out), *argv],
                              env=env, check=True, capture_output=True, timeout=300)
        assert proc.stdout.endswith(b"live children: 0\n")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_table1_bytes_independent_of_blas_threads(self, tmp_path):
        # runs pin OpenBLAS to one thread, so the LU fallback does not follow
        # the thread count either; these draws stay on the structured kernel
        for kind in ("normal", "rademacher"):
            blobs = {
                threads: self._cli_outputs(
                    tmp_path / f"{kind}_t{threads}", threads, "experiment", "table1",
                    "--dist", kind, "--two-n", "1024", "--trials", "6", "--seed", "11")
                for threads in ("1", "2")
            }
            assert blobs["1"] == blobs["2"], kind
            assert b"structured-fallback" not in blobs["1"][f"table1_{kind}_trials.csv"]

    @pytest.mark.parametrize("kind,dist", [("rect", "normal"), ("interlace", "rademacher")])
    def test_lapack_bytes_independent_of_blas_threads(self, tmp_path, kind, dist):
        # dgejsv on 512-column matrices threads unless the run pins OpenBLAS; the
        # worker processes must be forked after the pin to inherit it
        blobs = {
            (threads, workers): self._cli_outputs(
                tmp_path / f"t{threads}w{workers}", threads, "experiment", kind, "--dist", dist,
                "--sizes", "512", "--trials", "2", "--seed", "3", "--workers", workers)
            for threads, workers in (("1", "1"), ("2", "1"), ("2", "2"))
        }
        first = blobs["1", "1"]
        assert sorted(first) == sorted([f"{kind}_{dist}_n512_trials.csv", f"{kind}_{dist}_summary.json"])
        assert blobs["2", "1"] == first
        assert blobs["2", "2"] == first

    def test_rerun_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            config = cfg(experiment="table1", n=16, trials=15)
            res = run_table1(config)
            p = tmp_path / f"r{run}.csv"
            trials_to_csv(res.records[16], p, config.science_dict())
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_trial_records_independent_of_trial_count(self):
        # trial t is a pure function of (seed, n, t): prefix runs agree
        r10 = run_table1(cfg(experiment="table1", n=16, trials=10)).records[16]
        r5 = run_table1(cfg(experiment="table1", n=16, trials=5)).records[16]
        assert r10[:5] == r5


class TestSigmaMaxTail:
    def test_ratios_and_fit(self):
        config = cfg(experiment="sigmax", sizes=(16, 32), trials=40,
                     distribution=Distribution("rademacher"))
        res = run_sigma_max_tail(config)
        assert set(res.records) == {16, 32}
        assert res.tail.fitted_constant > 0
        for rec in res.records[16]:
            assert rec.ratio_lower is not None
            assert rec.ratio_lower <= rec.ratio_upper
        # ratio uses the bracket lower bound over sqrt(n log n)
        r0 = res.records[16][0]
        assert r0.ratio_lower >= r0.sigma_max / math.sqrt(16 * math.log(16)) - 1e-12

    def test_degenerate_single_spike_row(self):
        # only xi_0 nonzero: sigma_max = |xi_0| for every trial
        config = cfg(experiment="sigmax", sizes=(8,), trials=5,
                     distribution=Distribution("bernoulli", scale=0.0, shift=3.0),
                     oversampling=0)
        res = run_sigma_max_tail(config)
        for rec in res.records[8]:
            assert rec.sigma_max == pytest.approx(3.0 * 8)  # constant row => lambda_0 = 3n
        # constant rows are singular embeddings elsewhere, but sigmax only samples

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_singular_draws_carry_no_flags(self, symmetric):
        # sigmax records never flag, not even draws that sigmin flags singular
        config = cfg(experiment="sigmax", sizes=(4, 16), trials=60, symmetric=symmetric,
                     distribution=Distribution("rademacher"))
        records = run_sigma_max_tail(config).records
        assert any(math.isinf(r.kappa) for r in records[4])
        assert all(r.flags == () for recs in records.values() for r in recs)
        flagged = run_sigma_min_tail(dataclasses.replace(config, experiment="sigmin")).records
        assert ([("singular-embedding",) if math.isinf(r.kappa) else () for r in records[4]]
                == [r.flags for r in flagged[4]])

    @pytest.mark.parametrize("k", [-1, 1, 4])
    def test_oversampling_without_bracket_rejected(self, k):
        # 0 is the explicit no-bracket mode; 1..4 and negatives used to drop it silently
        with pytest.raises(ValueError, match="oversampling"):
            cfg(experiment="sigmax", sizes=(8,), oversampling=k)

    def test_toeplitz_dominated_by_embedding(self):
        # sigma_max(T_n) <= sigma_max(C_2n) on every trial (via the suite)
        config = cfg(experiment="interlace", sizes=(8,), trials=10)
        res = run_interlacing_suite(config, cauchy_trials=0)
        assert res.violations == 0


class TestSigmaMinTail:
    def test_monotone_in_epsilon_exactly(self):
        config = cfg(experiment="sigmin", sizes=(32,), trials=80, rho=0.2,
                     epsilons=(0.1, 0.5, 1.0, 2.0))
        res = run_sigma_min_tail(config)
        probs = [p.exceedance for p in res.tail.points]
        assert probs == sorted(probs)

    def test_epsilon_zero_counts_exact_singulars(self):
        config = cfg(experiment="sigmin", sizes=(16,), trials=50, rho=0.2,
                     epsilons=(0.0,), distribution=Distribution("uniform"))
        res = run_sigma_min_tail(config)
        assert res.tail.points[0].exceedance == 0.0

    def test_epsilon_zero_counts_flagged_singulars(self):
        # 166 of these draws sit below the singular cutoff, but FFT roundoff
        # leaves sigma_min == 0.0 in only 141 of them
        config = cfg(experiment="sigmin", sizes=(15,), trials=2000, master_seed=606,
                     distribution=Distribution("bernoulli"), epsilons=(0.0, 1e-14, 1e-3, 0.5))
        res = run_sigma_min_tail(config)
        singular = [r for r in res.records[15] if "singular-embedding" in r.flags]
        assert len(singular) == 166
        assert sum(r.sigma_min == 0.0 for r in singular) == 141
        counts = [p.count for p in res.tail.points]
        assert counts[0] == counts[1] == 166
        assert counts == sorted(counts) and counts[-1] > 166

    def test_symmetric_variant_uses_051(self):
        config = cfg(experiment="sigmin", sizes=(31,), trials=20, symmetric=True)
        res = run_sigma_min_tail(config)
        assert res.tail.rho == 0.51

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            cfg(experiment="sigmin", sizes=(16,), rho=0.3)

    def test_repeated_sizes_rejected(self):
        with pytest.raises(ValueError, match=r"distinct sizes, got sizes \[16, 8, 16\]"):
            run_sigma_min_tail(cfg(experiment="sigmin", sizes=(16, 8, 16), trials=5))

    @pytest.mark.parametrize("built_as, fields, run, message", [
        ("rect", dict(sizes=(8,), xi_star_mode="fixed"), run_sigma_min_tail,
         "xi_star_mode is for rect, interlace only; sigmin does not read it"),
        ("sigmin", dict(sizes=(8,), epsilons=(0.5,)), run_rectangular,
         "epsilons is for sigmin only; rect does not read it"),
        ("sigmin", dict(n=8, epsilons=(0.5,)), run_table1,
         "epsilons is for sigmin only; table1 does not read it"),
        ("table1", dict(n=8, sizes=(8,)), run_condition_number, "kappa reads sizes or n, not both"),
    ])
    def test_unread_fields_judged_by_the_runner(self, built_as, fields, run, message):
        # a config built as one kind is checked against the kind of the runner it reaches
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(cfg(experiment=built_as, **fields))

    @pytest.mark.parametrize("kind", ["sigmin", "kappa", "sigmax", "table1", "rect", "interlace"])
    @pytest.mark.parametrize("rho", [0.9, 0.25, 0.0, -0.4])
    def test_rho_checked_for_every_kind(self, kind, rho):
        # kinds that do not read rho keep its in-range default, so one check serves all
        with pytest.raises(ValueError, match=r"rho needs a value in \(0, 1/4\)"):
            cfg(experiment=kind, sizes=(8,), rho=rho)

    @pytest.mark.parametrize("built_as", ["sigmin", "kappa"])
    def test_kappa_epsilon_judged_by_the_runner(self, built_as):
        # a zero epsilon is a valid sigmin threshold but would divide kappa's fitted constant
        config = cfg(experiment=built_as, sizes=(8,), epsilon=0.0, trials=3)
        with pytest.raises(ValueError, match=r"^kappa needs epsilon > 0, got 0\.0$"):
            run_condition_number(config)
        assert run_sigma_min_tail(config).tail.points[0].epsilon == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_xi_star_value_rejected(self, value):
        with pytest.raises(ValueError, match="xi_star_value needs a finite number"):
            cfg(experiment="rect", sizes=(4,), xi_star_mode="fixed", xi_star_value=value)

    def test_resample_singular_rejected(self):
        # only table1 redraws; the tail kinds record every draw
        config = cfg(experiment="sigmin", sizes=(4,), distribution=Distribution("rademacher"),
                     resample_singular=True)
        with pytest.raises(ValueError, match="table1 only"):
            run_sigma_min_tail(config)


class TestConditionNumber:
    def test_shares_the_sigma_min_kernel(self):
        # sigmin and kappa differ only in their reducers: the same config gives the same trials
        for symmetric in (False, True):
            config = cfg(sizes=(15, 16, 64), trials=25, rho=0.2, symmetric=symmetric,
                         distribution=Distribution("rademacher"))
            kappa = run_condition_number(config).records
            sigmin = run_sigma_min_tail(config).records
            assert kappa == sigmin
            assert any("singular-embedding" in r.flags for r in kappa[16])

    def test_kappa_at_least_one(self):
        config = cfg(experiment="kappa", sizes=(16, 64), trials=30, rho=0.2)
        res = run_condition_number(config)
        for n, recs in res.records.items():
            for rec in recs:
                assert rec.kappa >= 1.0

    def test_shift_row_kappa_one(self):
        # all |lambda_k| = 1 for the pure shift
        from circulab.spectral import circulant_extremes, circulant_eigenvalues

        spec = CirculantSpec(8, CoefficientSequence(np.eye(8)[1]))
        rep = circulant_extremes(circulant_eigenvalues(spec))
        assert rep.kappa == pytest.approx(1.0)

    def test_coverage_points(self):
        config = cfg(experiment="kappa", sizes=(16, 32), trials=50, rho=0.2, epsilon=1.0)
        res = run_condition_number(config)
        smallest = res.tail.points[0]
        assert smallest.n == 16
        assert smallest.exceedance >= 0.98  # fitted on its own q99


class TestRectangular:
    def test_n1_closed_form(self):
        config = cfg(experiment="rect", sizes=(1,), trials=10,
                     xi_star_mode="fixed", xi_star_value=0.5)
        res = run_rectangular(config)
        for rec in res.records[1]:
            gen, _ = trial_stream(config.master_seed, 1, rec.trial_index)
            a = float(config.distribution.sample(gen, 1)[0])
            # A = [a; 0.5] column: sigma_1 = sqrt(a^2 + 0.25)
            assert rec.sigma_max == pytest.approx(math.sqrt(a * a + 0.25), rel=1e-12)
        assert res.violations == 0

    def test_no_clause_violations(self):
        config = cfg(experiment="rect", sizes=(4, 8, 16), trials=25)
        res = run_rectangular(config)
        assert res.violations == 0
        for n in (4, 8, 16):
            assert res.summaries[n].count > 0

    def test_kappa_bounded_by_embedding_ratio(self):
        config = cfg(experiment="rect", sizes=(8,), trials=20)
        res = run_rectangular(config)
        for rec in res.records[8]:
            gen, _ = trial_stream(config.master_seed, 8, rec.trial_index)
            # zero violations means sigma_1(A) <= smax(C) and sigma_n(A) >= smin(C),
            # hence kappa(A) <= smax(C)/smin(C); spot check through the flags
            assert "clause-violation" not in rec.flags


class TestInterlacingSuite:
    def test_zero_violations_with_margins(self):
        config = cfg(experiment="interlace", sizes=(4, 8), trials=20)
        res = run_interlacing_suite(config, cauchy_trials=4)
        assert res.violations == 0
        assert res.cauchy_failures == 0
        assert res.cauchy_checked == 8
        assert set(res.margin_summaries) == {"a", "b", "c"}
        assert res.margin_summaries["a"].minimum >= 0.0

    def test_repeated_sizes_rejected(self):
        # one Cauchy check per distinct trial: a repeated size would count its checks twice
        with pytest.raises(ValueError, match=r"distinct sizes, got sizes \[8, 4, 8\]"):
            run_interlacing_suite(cfg(experiment="interlace", sizes=(8, 4, 8), trials=10))

    def test_rademacher_singulars_counted(self):
        config = cfg(experiment="interlace", sizes=(2,), trials=120,
                     distribution=Distribution("rademacher"))
        res = run_interlacing_suite(config, cauchy_trials=0)
        assert res.violations == 0
        assert res.singular_count > 0


class TestExports:
    def test_trials_csv_schema(self, tmp_path):
        recs = [
            TrialRecord(0, 1, sigma_max=2.0, sigma_min=1.0, kappa=2.0, sigmin_s=0.5),
            TrialRecord(1, 2, kappa=float("inf"), flags=("singular-embedding",)),
        ]
        p = tmp_path / "t.csv"
        trials_to_csv(recs, p, {"a": 1})
        lines = p.read_text().splitlines()
        assert lines[0] == '# config: {"a": 1}'
        assert lines[1] == "trial,seed,sigma_max,sigma_min,kappa,sigmin_S,flags"
        assert lines[2] == "0,1,2.0,1.0,2.0,0.5,"
        assert lines[3] == "1,2,,,inf,,singular-embedding"

    def test_records_sorted_by_trial(self, tmp_path):
        recs = [TrialRecord(1, 0), TrialRecord(0, 0)]
        p = tmp_path / "t.csv"
        trials_to_csv(recs, p)
        lines = p.read_text().splitlines()
        assert lines[1].startswith("0,") and lines[2].startswith("1,")

    def test_ratio_csv(self, tmp_path):
        recs = {8: [TrialRecord(0, 1, ratio_lower=1.5, ratio_upper=1.6)]}
        p = tmp_path / "r.csv"
        ratios_to_csv(recs, "normal", p)
        lines = p.read_text().splitlines()
        assert lines[0] == "trial,n,dist,ratio_lower,ratio_upper"
        assert lines[1] == "0,8,normal,1.5,1.6"

    def test_summary_json_deterministic(self, tmp_path):
        payload = {"b": 1, "a": {"z": 2, "y": 3}}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        summary_to_json(payload, p1)
        summary_to_json(payload, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == payload

    def test_config_roundtrip(self):
        for fields in [
            dict(experiment="table1", n=64, trials=5, distribution=Distribution("uniform"),
                 epsilons=(0.5, 1.0)),
            dict(experiment="table1", n=16, resample_singular=True),
            dict(experiment="sigmax", sizes=(8, 16), oversampling=0),
            dict(experiment="sigmin", sizes=(16,), rho=0.1, epsilons=(0.25, 0.5, 1.0)),
            dict(experiment="sigmin", sizes=(16, 32), symmetric=True, epsilon=2.0),
            dict(experiment="kappa", sizes=(8, 16), distribution=Distribution("rademacher")),
            dict(experiment="rect", sizes=(4,), xi_star_mode="fixed", xi_star_value=0.5),
            dict(experiment="interlace", sizes=(4, 8),
                 distribution=Distribution("bernoulli", 2.0, -1.0)),
        ]:
            config = cfg(**fields)
            echo = config.science_dict()
            back = ExperimentConfig.from_dict(json.loads(json.dumps(echo)))
            assert back == config and back.science_dict() == echo
        # a JSON integer in a float field echoes as a float
        assert repr(ExperimentConfig.from_dict({**echo, "epsilon": 1}).epsilon) == "1.0"
