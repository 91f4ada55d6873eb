import json
import math
import re

import pytest

from circulab import cli, experiments, spectral
from circulab.arithmetic import gcd_census
from circulab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, dispatch


def run(tmp_path, *argv):
    return dispatch(["--out", str(tmp_path), *argv])


class TestSpectrum:
    def test_identity_row(self, tmp_path, capsys):
        code = run(tmp_path, "spectrum", "--n", "4", "--row", "1,0,0,0")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "0,1.0,0.0"
        assert (tmp_path / "spectrum.csv").exists()

    def test_json_format(self, tmp_path, capsys):
        code = dispatch(["--out", str(tmp_path), "--format", "json",
                         "spectrum", "--row", "0,1,0,0"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["sigma_max"] == pytest.approx(1.0)
        assert data["kappa"] == pytest.approx(1.0)

    def test_symmetric_row(self, tmp_path, capsys):
        code = dispatch(["--out", str(tmp_path), "--format", "json",
                         "spectrum", "--symmetric", "--n", "4", "--row", "1,2,3"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        eigs = [complex(re, im) for re, im in data["eigenvalues"]]
        assert eigs == pytest.approx([8, -2, 0, -2], abs=1e-12)

    def test_symmetric_draw_is_sigmin_trial_zero(self, tmp_path, capsys):
        # --dist draws the n//2+1 free coefficients of trial 0 of `experiment sigmin --symmetric`
        argv = ["--dist", "normal", "--seed", "3"]
        assert dispatch(["--out", str(tmp_path), "--format", "json",
                         "spectrum", "--symmetric", "--n", "6", *argv]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data["eigenvalues"]) == 6
        assert all(im == 0.0 for _, im in data["eigenvalues"])
        assert run(tmp_path, "experiment", "sigmin", "--symmetric", "--sizes", "6",
                   "--trials", "1", *argv) == EXIT_OK
        rows = (tmp_path / "sigmin_normal_n6_trials.csv").read_text().splitlines()
        trial0 = dict(zip(rows[1].split(","), rows[2].split(",")))
        # the cosine formula and the experiment's FFT agree to roundoff
        assert data["sigma_max"] == pytest.approx(float(trial0["sigma_max"]), rel=1e-12)
        assert data["sigma_min"] == pytest.approx(float(trial0["sigma_min"]), rel=1e-12)

    def test_missing_args_usage_error(self, tmp_path):
        assert run(tmp_path, "spectrum") == EXIT_USAGE


class TestSchur:
    def test_oracle_check_passes(self, tmp_path, capsys):
        code = run(tmp_path, "schur", "--dist", "normal", "--two-n", "16",
                   "--seed", "3", "--check-oracle")
        assert code == EXIT_OK
        assert "oracle relative Frobenius error" in capsys.readouterr().out
        assert (tmp_path / "schur_block.csv").exists()

    def test_singular_embedding_exit_code(self, tmp_path, capsys):
        code = run(tmp_path, "schur", "--row", "1,1,1,1")
        assert code == EXIT_VIOLATION


class TestMaxmod:
    def test_all_ones(self, tmp_path, capsys):
        code = run(tmp_path, "maxmod", "--coeffs", "1,1,1,1,1,1,1,1")
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["lower"] == pytest.approx(8.0, rel=1e-12)
        assert data["upper"] >= 8.0


class TestLcd:
    def test_vector(self, tmp_path, capsys):
        code = run(tmp_path, "lcd", "--vector", "1,1,1,1", "--L", "2")
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["lower_bound"] >= 0.5 - 1e-12
        assert data["upper_witness"] is not None

    def test_vk_matrix(self, tmp_path, capsys):
        code = run(tmp_path, "lcd", "--vk", "12,1", "--L", "2", "--r-max", "3")
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["lower_bound"] >= 0.5 - 1e-12


class TestVerifyLemmas:
    def test_cos_full_small(self, tmp_path, capsys):
        code = run(tmp_path, "verify-lemmas", "--lemma", "cos-full",
                   "--m", "500", "--theta-grid", "24", "--r-min", "2", "--r-max-int", "4")
        assert code == EXIT_OK
        assert "0 violations" in capsys.readouterr().out
        assert (tmp_path / "lemma_cos-full.csv").exists()

    def test_cos_half_small(self, tmp_path, capsys):
        code = run(tmp_path, "verify-lemmas", "--lemma", "cos-half",
                   "--n", "600", "--k-max", "10")
        assert code == EXIT_OK

    def test_vk_det(self, tmp_path, capsys):
        code = run(tmp_path, "verify-lemmas", "--lemma", "vk-det", "--count", "20")
        assert code == EXIT_OK

    def test_gcd_census(self, tmp_path, capsys):
        # the CSV equals rows built here from point queries, byte for byte
        code = run(tmp_path, "verify-lemmas", "--lemma", "gcd-census", "--max-m", "300")
        assert code == EXIT_OK
        lines = ["case_id,M,y,applicable,holds,margin"]
        for m in range(1, 301):
            for y in (1.0, 2.0, math.sqrt(m), float(m)):
                census = gcd_census(m, y)
                margin = census.exact_count - census.totient_sum
                lines.append(f"census-M{m}-y{y:g},{m},{y!r},True,{margin == 0},{margin}")
        want = "".join(line + "\r\n" for line in lines).encode()
        assert (tmp_path / "lemma_gcd-census.csv").read_bytes() == want

    def test_gcd_census_max_m_one(self, tmp_path, capsys):
        code = run(tmp_path, "verify-lemmas", "--lemma", "gcd-census", "--max-m", "1")
        assert code == EXIT_OK
        assert len((tmp_path / "lemma_gcd-census.csv").read_text().splitlines()) == 1 + 4

    @pytest.mark.parametrize("max_m", ["0", "-5"])
    def test_gcd_census_rejects_max_m_below_one(self, tmp_path, capsys, max_m):
        code = run(tmp_path, "verify-lemmas", "--lemma", "gcd-census", "--max-m", max_m)
        assert code == EXIT_USAGE
        assert "--max-m" in capsys.readouterr().err
        assert not (tmp_path / "lemma_gcd-census.csv").exists()


# the config fields each kind reads, beside experiment, distribution, trials,
# master_seed and workers; table1's n is its 2n
KIND_READS = {
    "table1": {"n", "resample_singular"},
    "sigmax": {"sizes", "n", "symmetric", "oversampling"},
    "sigmin": {"sizes", "n", "symmetric", "epsilons", "epsilon", "rho"},
    "kappa": {"sizes", "n", "symmetric", "rho", "epsilon"},
    "rect": {"sizes", "n", "xi_star_mode", "xi_star_value"},
    "interlace": {"sizes", "n", "xi_star_mode", "xi_star_value"},
}
# a non-default value of each field, as flags (None: no flag sets it alone) and as a
# config key; resample_singular has its own test
NON_DEFAULT = {
    "sizes": (["--sizes", "8"], [8]),
    "epsilon": (["--eps", "0.5"], 0.5),
    "epsilons": (["--eps-grid", "0.5,1"], [0.5, 1.0]),
    "rho": (["--rho", "0.1"], 0.1),
    "symmetric": (["--symmetric"], True),
    "xi_star_mode": (["--xi-star", "fixed:0"], "fixed"),
    "xi_star_value": (None, 0.5),
    "oversampling": (["--oversampling", "0"], 0),
}


# a run of each kind that sets fields beside the five common ones
ROUNDTRIP_FLAGS = {
    "table1": ["--dist", "uniform", "--two-n", "16", "--seed", "9"],
    "sigmax": ["--dist", "rademacher", "--sizes", "4,8", "--symmetric", "--oversampling", "8"],
    "sigmin": ["--sizes", "8,16", "--rho", "0.1", "--eps-grid", "0.5,1"],
    "kappa": ["--n", "8", "--rho", "0.1", "--eps", "0.5"],
    "rect": ["--dist", "bernoulli", "--sizes", "3", "--xi-star", "fixed:0.5"],
    "interlace": ["--sizes", "3,4", "--seed", "2"],
}


def _unread_cases():
    """(kind, flags, config keys, error) for every kind x field it does not read, and
    for every pair of fields that a kind reads one of, not both."""
    cases = []
    for kind, reads in KIND_READS.items():
        for field, (flags, value) in NON_DEFAULT.items():
            if field in reads:
                continue
            readers = ", ".join(k for k, r in KIND_READS.items() if field in r)
            error = f"{field} is for {readers} only; {kind} does not read it"
            if flags is not None:
                cases.append(pytest.param(kind, flags, None, error, id=f"{kind}-{field}-flag"))
            cases.append(pytest.param(kind, [], {field: value}, error, id=f"{kind}-{field}-config"))
    both = [(kind, "sizes", "n", ["--n", "8"], {"n": 8}) for kind in KIND_READS if kind != "table1"]
    both += [("sigmin", "symmetric", "rho", ["--symmetric", "--rho", "0.1"],
              {"symmetric": True, "rho": 0.1}),
             ("sigmin", "epsilons", "epsilon", ["--eps", "0.3", "--eps-grid", "0.1,0.2"],
              {"epsilon": 0.3, "epsilons": [0.1, 0.2]})]
    for kind, a, b, flags, config in both:
        error = f"{kind} reads {a} or {b}, not both"
        cases.append(pytest.param(kind, flags, None, error, id=f"{kind}-{a}|{b}-flag"))
        cases.append(pytest.param(kind, [], config, error, id=f"{kind}-{a}|{b}-config"))
    for kind in ("rect", "interlace"):
        cases.append(pytest.param(kind, [], {"xi_star_value": 0.5},
                                  f"{kind} reads xi_star_value only when xi_star_mode is not 'random'",
                                  id=f"{kind}-xi_star_value-random-config"))
    cases.append(pytest.param("table1", ["--n", "64"], None, "--n is not for table1", id="table1---n"))
    cases.append(pytest.param("sigmin", ["--two-n", "16"], None, "--two-n is not for sigmin",
                              id="sigmin---two-n"))
    return cases


class TestExperimentCommand:
    def test_table1_small(self, tmp_path, capsys):
        code = run(tmp_path, "experiment", "table1", "--dist", "uniform",
                   "--two-n", "32", "--trials", "10", "--seed", "42")
        assert code == EXIT_OK
        trials = tmp_path / "table1_uniform_trials.csv"
        summary = tmp_path / "table1_uniform_summary.json"
        assert trials.exists() and summary.exists()
        data = json.loads(summary.read_text())
        assert data["schema_version"] == 1
        assert data["config"]["master_seed"] == 42
        assert data["summary"]["count"] == 10

    @pytest.mark.parametrize("kind, sizes, files, stdout", [
        ("table1", ["--two-n", "8"], ["table1_normal_trials.csv"],
         "table1 normal 2n=8: mean sigmin_S=0.475953 "
         "(0 singular, 0 fallback, 0 structured-fallback)\n"),
        ("sigmax", ["--sizes", "4,6"],
         ["sigmax_normal_n4_trials.csv", "sigmax_normal_n6_trials.csv", "sigmax_normal_ratios.csv"],
         "sigmax normal: fitted C0=1.9953\n"),
        ("sigmin", ["--sizes", "4,6", "--eps-grid", "0.5,1"],
         ["sigmin_normal_n4_trials.csv", "sigmin_normal_n6_trials.csv"],
         "sigmin normal n=4 eps=0.5: P=0.0000 [0.0000, 0.5615]\n"
         "sigmin normal n=4 eps=1: P=0.3333 [0.0615, 0.7923]\n"
         "sigmin normal n=6 eps=0.5: P=0.3333 [0.0615, 0.7923]\n"
         "sigmin normal n=6 eps=1: P=1.0000 [0.4385, 1.0000]\n"),
        ("kappa", ["--sizes", "4,6"],
         ["kappa_normal_n4_trials.csv", "kappa_normal_n6_trials.csv"],
         "kappa normal: fitted C0=2.0094\n"),
        ("rect", ["--sizes", "3,4"], ["rect_normal_n3_trials.csv", "rect_normal_n4_trials.csv"],
         "rect normal: 0 clause violations\n"),
        ("interlace", ["--sizes", "3,4"],
         ["interlace_normal_n3_trials.csv", "interlace_normal_n4_trials.csv"],
         "interlace normal: 0 violations, 0 singular embeddings, cauchy 0/6 failures\n"),
    ])
    def test_every_kind_files_line_and_exit(self, tmp_path, capsys, kind, sizes, files, stdout):
        code = run(tmp_path, "experiment", kind, *sizes, "--trials", "3", "--seed", "5")
        assert code == EXIT_OK
        assert capsys.readouterr().out == stdout
        want = sorted([*files, f"{kind}_normal_summary.json"])
        assert sorted(f.name for f in tmp_path.iterdir()) == want

    def test_cli_reaches_experiments_through_module_attributes(self, tmp_path, monkeypatch):
        # the benchmark's trace spans wrap these attributes, so the CLI must look them up per call
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("run_sigma_min_tail", "trials_to_csv"):
            monkeypatch.setattr(experiments, name, counting(name, getattr(experiments, name)))
        assert run(tmp_path, "experiment", "sigmin", "--sizes", "4,6", "--trials", "3") == EXIT_OK
        assert calls == ["run_sigma_min_tail", "trials_to_csv", "trials_to_csv"]

    def test_same_argv_identical_outputs(self, tmp_path):
        argv = ["experiment", "sigmin", "--dist", "normal", "--sizes", "16",
                "--trials", "20", "--seed", "7", "--rho", "0.2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert dispatch(["--out", str(out1), *argv]) == EXIT_OK
        assert dispatch(["--out", str(out2), *argv]) == EXIT_OK
        f = "sigmin_normal_n16_trials.csv"
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()

    def test_consecutive_calls_leak_nothing(self, tmp_path, capsys):
        # the parser is built once per process; no call's flags reach the next
        base = ["experiment", "sigmin", "--dist", "rademacher", "--sizes", "8",
                "--trials", "5", "--seed", "3"]

        def echo(name):
            return json.loads((tmp_path / name / "sigmin_rademacher_summary.json").read_text())["config"]

        assert dispatch(["-v", "--out", str(tmp_path / "sym"), *base, "--symmetric"]) == EXIT_OK
        assert "took" in capsys.readouterr().err
        assert dispatch(["--out", str(tmp_path / "plain"), *base]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert echo("sym")["symmetric"] is True
        assert echo("plain")["symmetric"] is False
        with pytest.raises(SystemExit) as exc_info:
            dispatch([*base, "--trials", "many"])
        assert exc_info.value.code == EXIT_USAGE
        assert dispatch(["--out", str(tmp_path / "after"), *base]) == EXIT_OK
        assert echo("after") == echo("plain")
        assert cli._parser() is cli._parser()

    def test_worker_flag_does_not_change_trials(self, tmp_path):
        base = ["experiment", "sigmin", "--dist", "normal", "--sizes", "16",
                "--trials", "20", "--seed", "7", "--rho", "0.2"]
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert dispatch(["--out", str(out1), *base, "--workers", "1"]) == EXIT_OK
        assert dispatch(["--out", str(out2), *base, "--workers", "4"]) == EXIT_OK
        f = "sigmin_normal_n16_trials.csv"
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()

    @pytest.mark.parametrize("kind", ROUNDTRIP_FLAGS)
    def test_config_echo_roundtrip(self, tmp_path, kind):
        run1, run2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["experiment", kind, *ROUNDTRIP_FLAGS[kind], "--trials", "5"]
        assert dispatch(["--out", str(run1), *argv]) == EXIT_OK
        summary, = run1.glob("*_summary.json")
        # feed the emitted summary (with its config block) back in: every output is the same
        assert dispatch(["--out", str(run2), "--config", str(summary), "experiment", kind]) == EXIT_OK
        files = sorted(f.name for f in run1.iterdir())
        assert sorted(f.name for f in run2.iterdir()) == files
        for name in files:
            assert (run2 / name).read_bytes() == (run1 / name).read_bytes(), name

    def test_unknown_config_key_usage_error(self, tmp_path, capsys):
        # a typo must not silently fall back to the default (100 trials here)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"trails": 5, "n": 8}))
        out = tmp_path / "out"
        assert dispatch(["--out", str(out), "--config", str(config),
                         "experiment", "table1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("circulab: error: unknown config keys ['trails']")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("config, flags", [
        ([1, 2], []),
        ({"sizes": 5}, []),
        ({"distribution": 5}, []),
        ({"distribution": {"scale": 2.0}}, []),
        ({"distribution": {"kind": "normal", "sclae": 2.0}}, []),
        ({"symmetric": "false"}, []),
        ({"trials": "x"}, []),
        ({"trials": 2.5}, []),
        ({"epsilon": 10**400}, []),
        (None, ["--sizes", "4", "--trials", "2", "--xi-star", "fixed"]),
        (None, ["--sizes", "4", "--trials", "2", "--xi-star", "bogus"]),
        ({"epsilon": math.nan}, []),
        ({"epsilons": [0.5, math.inf]}, []),
        (None, ["--sizes", "4", "--trials", "2", "--eps", "-1"]),
        (None, ["--sizes", "4", "--trials", "2", "--eps", "nan"]),
    ])
    def test_mistyped_config_usage_error(self, tmp_path, capsys, config, flags):
        # one error line, no traceback and no files; sizes and trials are valid unless mistyped
        if isinstance(config, dict):
            config = {"sizes": [4], "trials": 2, **config}
        top = []
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            top = ["--config", str(path)]
        out = tmp_path / "out"
        argv = ["--out", str(out), *top, "experiment", "sigmin", *flags]
        assert dispatch(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("circulab: error:") and err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("eps", ["0", "nan"])
    def test_kappa_epsilon_usage_error(self, tmp_path, capsys, eps):
        # the fitted constant is divided by epsilon
        out = tmp_path / "out"
        argv = ["--out", str(out), "experiment", "kappa", "--sizes", "4", "--trials", "2", "--eps", eps]
        assert dispatch(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("circulab: error:") and err.count("\n") == 1
        assert not list(out.iterdir())

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "experiment": "table1",
            "distribution": {"kind": "uniform"},
            "trials": 5,
            "master_seed": 1,
            "n": 16,
        }))
        out = tmp_path / "o"
        assert dispatch(["--out", str(out), "--config", str(cfg_path),
                         "experiment", "table1", "--trials", "3"]) == EXIT_OK
        data = json.loads((out / "table1_uniform_summary.json").read_text())
        assert data["config"]["trials"] == 3
        assert data["config"]["master_seed"] == 1

    def test_interlace_exit_zero(self, tmp_path, capsys):
        code = run(tmp_path, "experiment", "interlace", "--dist", "normal",
                   "--sizes", "4,8", "--trials", "5", "--seed", "1")
        assert code == EXIT_OK

    def test_interlace_rademacher_tight_margins(self, tmp_path):
        # clause-c margins cluster within ~1e-16 but span ~1; Freedman-Diaconis
        # binning once asked for exabytes here
        code = run(tmp_path, "experiment", "interlace", "--dist", "rademacher",
                   "--sizes", "2,3", "--trials", "40", "--seed", "4")
        assert code == EXIT_OK
        data = json.loads((tmp_path / "interlace_rademacher_summary.json").read_text())
        for summary in data["margin_summaries"].values():
            assert sum(b["count"] for b in summary["bins"]) == summary["count"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_numerical_failure_exit_code(self, tmp_path, capsys, nonconverging_dgejsv, workers):
        # a forked worker inherits the stand-in; its ConvergenceError reaches the CLI pickled
        code = run(tmp_path, "experiment", "rect", "--dist", "normal",
                   "--sizes", "4", "--trials", "2", "--seed", "2", "--workers", workers)
        assert code == EXIT_NUMERICAL == 3
        err = capsys.readouterr().err
        assert err.startswith("circulab: numerical failure:") and "8x4" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_interlace_numerical_failure_exit_code(self, tmp_path, capsys, nonconverging_dgesdd, workers):
        # the interlacing checks run dgesdd; the first one is on the 8x4 stack [T; B]
        code = run(tmp_path, "experiment", "interlace", "--dist", "normal",
                   "--sizes", "4", "--trials", "2", "--seed", "2", "--workers", workers)
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("circulab: numerical failure: dgesdd") and "8x4" in err
        assert err.count("\n") == 1

    def test_xi_star_fixed(self, tmp_path):
        code = run(tmp_path, "experiment", "rect", "--dist", "normal",
                   "--sizes", "4", "--trials", "5", "--seed", "2",
                   "--xi-star", "fixed:0")
        assert code == EXIT_OK
        data = json.loads((tmp_path / "rect_normal_summary.json").read_text())
        assert data["config"]["xi_star_mode"] == "fixed"

    @pytest.mark.parametrize("value", ["fixed:abc", "fixed:", "fixed:nan", "fixed:inf", "fixed", "bogus"])
    def test_bad_xi_star_usage_error(self, tmp_path, capsys, value):
        code = run(tmp_path, "experiment", "rect", "--sizes", "4", "--trials", "3", "--xi-star", value)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (f"circulab: error: --xi-star takes 'random' or "
                                           f"'fixed:<finite number>', got {value!r}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["kappa", "--rho", "0.9"],
        ["kappa", "--rho", "-0.4"],
        ["sigmin", "--rho", "0.25"],
    ])
    def test_rho_out_of_range_usage_error(self, tmp_path, capsys, argv):
        code = run(tmp_path, "experiment", *argv, "--sizes", "8", "--trials", "3")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"circulab: error: rho needs a value in (0, 1/4), got {float(argv[2])!r}\n"
        assert not list(tmp_path.iterdir())

    def test_unknown_subcommand_usage(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            dispatch(["frobnicate"])
        assert exc_info.value.code == EXIT_USAGE

    def test_bad_rho_usage_error(self, tmp_path):
        code = run(tmp_path, "experiment", "sigmin", "--dist", "normal",
                   "--sizes", "16", "--trials", "5", "--seed", "1", "--rho", "0.4")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("k", ["4", "-3"])
    def test_oversampling_without_bracket_usage_error(self, tmp_path, capsys, k):
        code = run(tmp_path, "experiment", "sigmax", "--dist", "normal",
                   "--sizes", "16", "--trials", "5", "--seed", "1", "--oversampling", k)
        assert code == EXIT_USAGE
        assert "oversampling" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["kappa", "--sizes", "1"],                         # kappa / (n^(rho+1/2) sqrt(log n))
        ["sigmax", "--oversampling", "0", "--sizes", "1"],  # sigma_max / sqrt(n log n)
        ["kappa", "--sizes", "16,1"],
        ["sigmin", "--sizes", "0"],
        ["rect", "--sizes", "0"],
        ["interlace", "--sizes", "4,0"],
        ["sigmax", "--sizes", "0"],
        ["sigmin", "--sizes", "16,8,16"],                   # repeated sizes
        ["interlace", "--sizes", "8,4,8"],
    ])
    def test_bad_sizes_usage_error(self, tmp_path, capsys, argv):
        # checked before any trial runs: exit 1 with a message naming the sizes, no files
        code = run(tmp_path, "experiment", *argv[:1], "--dist", "normal", "--trials", "5",
                   "--seed", "1", *argv[1:])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        sizes = argv[-1].replace(",", ", ")
        assert err.startswith("circulab: error:") and f"sizes [{sizes}]" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["sigmin", "sigmax", "kappa", "rect", "interlace"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_resample_singular_only_for_table1(self, tmp_path, capsys, kind, via):
        # only table1 redraws; set by flag or by a config key, the others exit 1 and write nothing
        out = tmp_path / "out"
        argv = ["experiment", kind, "--dist", "rademacher", "--sizes", "4", "--trials", "3"]
        if via == "flag":
            argv.append("--resample-singular")
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"resample_singular": True}))
            argv = ["--config", str(config), *argv]
        assert dispatch(["--out", str(out), *argv]) == EXIT_USAGE
        assert "resample_singular is for table1 only" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("kind, flags, config, error", _unread_cases())
    def test_unread_field_usage_error(self, tmp_path, capsys, monkeypatch, kind, flags, config, error):
        # a field the kind ignores would be echoed as if used: exit 1 before any trial runs,
        # so no trial stream is ever drawn
        monkeypatch.setattr(experiments, "trial_stream", None)
        top = []
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            top = ["--config", str(tmp_path / "c.json")]
        size = ["--two-n", "8"] if kind == "table1" else ["--sizes", "4"]
        out = tmp_path / "out"
        argv = ["--out", str(out), *top, "experiment", kind, *size, "--trials", "2", *flags]
        assert dispatch(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"circulab: error: {error}\n"
        assert not list(out.iterdir())

    def test_size_one_still_runs(self, tmp_path):
        for kind in ("sigmin", "rect", "interlace"):
            assert run(tmp_path, "experiment", kind, "--sizes", "1", "--trials", "3") == EXIT_OK
            assert (tmp_path / f"{kind}_normal_n1_trials.csv").exists()

    @pytest.mark.parametrize("w", ["0", "-1"])
    def test_workers_below_one_usage_error(self, tmp_path, capsys, w):
        code = run(tmp_path, "experiment", "sigmin", "--dist", "normal",
                   "--sizes", "16", "--trials", "5", "--seed", "1", "--workers", w)
        assert code == EXIT_USAGE
        assert "workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_verbose_reports_time_and_blas_state(self, tmp_path, capsys):
        argv = ["experiment", "interlace", "--dist", "normal", "--sizes", "8,16",
                "--trials", "4", "--seed", "2"]
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert dispatch(["--out", str(quiet), *argv]) == EXIT_OK
        plain = capsys.readouterr()
        assert dispatch(["-v", "--out", str(loud), *argv]) == EXIT_OK
        verbose = capsys.readouterr()
        assert verbose.out == plain.out
        assert plain.err == ""
        line, = verbose.err.splitlines()
        assert re.fullmatch(r"circulab: experiment took \d+\.\d{3} s, BLAS (pinned: .+ 1 thread"
                            r"|unpinned, no OpenBLAS build found)", line)
        for f in quiet.iterdir():
            assert (loud / f.name).read_bytes() == f.read_bytes()
        assert len(list(loud.iterdir())) == 3

    def test_verbose_without_openblas(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "_openblas_builds", lambda: ())
        assert dispatch(["-v", "--out", str(tmp_path), "spectrum", "--row", "1,0"]) == EXIT_OK
        assert capsys.readouterr().err.endswith(", BLAS unpinned, no OpenBLAS build found\n")

    def test_no_command_prints_help(self, capsys):
        assert dispatch([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().out.lower()

    def test_env_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CIRCULAB_OUT", str(tmp_path / "envout"))
        code = dispatch(["spectrum", "--row", "1,0"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "spectrum.csv").exists()
