import json
import math
import re

import pytest

from circulab import spectral
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

    def test_same_argv_identical_outputs(self, tmp_path):
        argv = ["experiment", "sigmin", "--dist", "normal", "--sizes", "16",
                "--trials", "20", "--seed", "7", "--rho", "0.2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert dispatch(["--out", str(out1), *argv]) == EXIT_OK
        assert dispatch(["--out", str(out2), *argv]) == EXIT_OK
        f = "sigmin_normal_n16_trials.csv"
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()

    def test_worker_flag_does_not_change_trials(self, tmp_path):
        base = ["experiment", "sigmin", "--dist", "normal", "--sizes", "16",
                "--trials", "20", "--seed", "7", "--rho", "0.2"]
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert dispatch(["--out", str(out1), *base, "--workers", "1"]) == EXIT_OK
        assert dispatch(["--out", str(out2), *base, "--workers", "4"]) == EXIT_OK
        f = "sigmin_normal_n16_trials.csv"
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()

    def test_config_echo_roundtrip(self, tmp_path):
        run1 = tmp_path / "r1"
        assert dispatch(["--out", str(run1), "experiment", "table1", "--dist", "uniform",
                         "--two-n", "16", "--trials", "5", "--seed", "9"]) == EXIT_OK
        summary = run1 / "table1_uniform_summary.json"
        # feed the emitted summary (with its config block) back in
        run2 = tmp_path / "r2"
        assert dispatch(["--out", str(run2), "--config", str(summary),
                         "experiment", "table1"]) == EXIT_OK
        t1 = (run1 / "table1_uniform_trials.csv").read_bytes()
        t2 = (run2 / "table1_uniform_trials.csv").read_bytes()
        assert t1 == t2

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

    def test_numerical_failure_exit_code(self, tmp_path, capsys, nonconverging_dgejsv):
        code = run(tmp_path, "experiment", "rect", "--dist", "normal",
                   "--sizes", "4", "--trials", "2", "--seed", "2")
        assert code == EXIT_NUMERICAL == 3
        err = capsys.readouterr().err
        assert err.startswith("circulab: numerical failure:") and "8x4" in err
        assert err.count("\n") == 1

    def test_xi_star_fixed(self, tmp_path):
        code = run(tmp_path, "experiment", "rect", "--dist", "normal",
                   "--sizes", "4", "--trials", "5", "--seed", "2",
                   "--xi-star", "fixed:0")
        assert code == EXIT_OK
        data = json.loads((tmp_path / "rect_normal_summary.json").read_text())
        assert data["config"]["xi_star_mode"] == "fixed"

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
