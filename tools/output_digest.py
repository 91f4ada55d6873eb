"""Fingerprint what a fixed list of circulab commands writes and prints.

    python3 tools/output_digest.py OUT_DIR

Runs every case below in this process through ``cli.dispatch``, each with
``--out OUT_DIR/<case>``, then prints one ``sha256 relative-path`` line per
file under OUT_DIR and, per case, the exit code and the sha256 of its stdout
and of its stderr, with OUT_DIR replaced by the literal ``OUT_DIR`` first.
Two checkouts that should give the same bytes give digests with no ``diff``:

    python3 tools/output_digest.py /tmp/a > a.txt   # in one checkout
    python3 tools/output_digest.py /tmp/b > b.txt   # in the other
    diff a.txt b.txt

The package is imported from the checkout's ``src`` without installing.
OUT_DIR must be missing or empty.  The list covers every command and every
experiment kind: table1 at 2n = 8 and 16 on discrete laws (structured
fallbacks and singular draws), with ``--resample-singular``, at 2n = 2048
and under ``--workers 2``; ``schur --check-oracle`` on regular, singular and
odd rows; interlace with singular embeddings; sigmin at epsilon = 0 on draws
whose sigma_min is singular but not exactly 0.0; and invalid inputs whose
error messages are part of the interface.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (case name, argv without --out, text of {dir}/config.json or None)
CASES = [
    ("spectrum-row", ["spectrum", "--row", "1,2,3,4"], None),
    ("spectrum-symmetric", ["spectrum", "--dist", "normal", "--n", "6", "--symmetric"], None),
    ("spectrum-json", ["--format", "json", "spectrum", "--dist", "rademacher", "--n", "8"], None),
    ("schur-row", ["schur", "--row", "2,0.5,-0.25,0.1", "--check-oracle"], None),
    ("schur-drawn", ["schur", "--dist", "normal", "--two-n", "16", "--seed", "3", "--check-oracle"], None),
    ("schur-singular", ["schur", "--row", "1,1,0,0,0,0", "--check-oracle"], None),
    ("schur-odd", ["schur", "--row", "1,2,3", "--check-oracle"], None),
    ("maxmod", ["maxmod", "--dist", "normal", "--n", "16", "--seed", "2"], None),
    ("lcd-vector", ["lcd", "--vector", "1,1,1,1", "--L", "2"], None),
    ("lcd-vk", ["lcd", "--vk", "12,1", "--L", "2", "--r-max", "3"], None),
    ("lemma-cos-full", ["verify-lemmas", "--lemma", "cos-full", "--m", "500", "--theta-grid", "24",
                        "--r-min", "2", "--r-max-int", "4"], None),
    ("lemma-cos-half", ["verify-lemmas", "--lemma", "cos-half", "--n", "600", "--k-max", "10"], None),
    ("lemma-vk-det", ["verify-lemmas", "--lemma", "vk-det", "--count", "20"], None),
    ("lemma-gcd-census", ["verify-lemmas", "--lemma", "gcd-census", "--max-m", "300"], None),
    ("table1-8-rademacher", ["experiment", "table1", "--two-n", "8", "--dist", "rademacher",
                             "--trials", "40", "--seed", "5"], None),
    ("table1-16-bernoulli", ["experiment", "table1", "--two-n", "16", "--dist", "bernoulli",
                             "--trials", "40", "--seed", "5"], None),
    ("table1-resample", ["experiment", "table1", "--two-n", "8", "--dist", "rademacher",
                         "--trials", "40", "--seed", "5", "--resample-singular"], None),
    ("table1-2048", ["experiment", "table1", "--two-n", "2048", "--dist", "normal",
                     "--trials", "3", "--seed", "11"], None),
    ("table1-workers", ["experiment", "table1", "--two-n", "64", "--dist", "uniform",
                        "--trials", "24", "--seed", "2", "--workers", "2"], None),
    ("sigmax", ["experiment", "sigmax", "--sizes", "16,32", "--trials", "10", "--seed", "3"], None),
    ("sigmax-symmetric", ["experiment", "sigmax", "--sizes", "16,17", "--trials", "10",
                          "--oversampling", "0", "--symmetric", "--dist", "uniform"], None),
    ("sigmin", ["experiment", "sigmin", "--sizes", "15,16", "--eps-grid", "0,0.5,1",
                "--dist", "bernoulli", "--trials", "30", "--seed", "4"], None),
    ("sigmin-eps0", ["experiment", "sigmin", "--sizes", "15", "--eps-grid", "0,1e-14,0.001",
                     "--dist", "bernoulli", "--trials", "2000", "--seed", "606"], None),
    ("sigmin-symmetric", ["experiment", "sigmin", "--symmetric", "--sizes", "31",
                          "--trials", "10"], None),
    ("kappa-workers", ["experiment", "kappa", "--sizes", "16,32", "--rho", "0.1", "--eps", "0.5",
                       "--trials", "20", "--workers", "2"], None),
    ("rect", ["experiment", "rect", "--sizes", "3,8", "--trials", "10", "--xi-star", "fixed:0.5"], None),
    ("interlace-rademacher", ["experiment", "interlace", "--sizes", "4,8,16", "--trials", "10",
                              "--dist", "rademacher", "--seed", "1"], None),
    ("interlace-workers", ["experiment", "interlace", "--sizes", "8", "--trials", "10",
                           "--workers", "2"], None),
    ("config", ["--config", "{dir}/config.json", "experiment", "sigmin"],
     '{"sizes": [8, 12], "trials": 6, "rho": 0.1, "epsilon": 0.5, "distribution": "uniform"}'),
    # invalid inputs
    ("bad-kappa-rho-high", ["experiment", "kappa", "--sizes", "8",
                            "--rho", "0.9", "--trials", "3"], None),
    ("bad-kappa-rho-negative", ["experiment", "kappa", "--sizes", "8",
                                "--rho", "-0.4", "--trials", "3"], None),
    ("bad-kappa-eps", ["experiment", "kappa", "--sizes", "8", "--eps", "0", "--trials", "3"], None),
    ("bad-xi-star-word", ["experiment", "rect", "--sizes", "4", "--trials", "3",
                          "--xi-star", "fixed:abc"], None),
    ("bad-xi-star-empty", ["experiment", "rect", "--sizes", "4", "--trials", "3",
                           "--xi-star", "fixed:"], None),
    ("bad-xi-star-nan", ["experiment", "rect", "--sizes", "4", "--trials", "3",
                         "--xi-star", "fixed:nan"], None),
    ("bad-xi-star-inf", ["experiment", "rect", "--sizes", "4", "--trials", "3",
                         "--xi-star", "fixed:inf"], None),
    ("bad-xi-star-mode", ["experiment", "rect", "--sizes", "4", "--trials", "3",
                          "--xi-star", "fixed"], None),
    ("bad-config-xi-star", ["--config", "{dir}/config.json", "experiment", "interlace"],
     '{"sizes": [4], "trials": 3, "xi_star_mode": "fixed", "xi_star_value": NaN}'),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(cli, out_dir: Path, name: str, argv: list[str], config: str | None) -> tuple[str, str, str]:
    """Exit code, stdout and stderr of one case, with ``out_dir`` written as OUT_DIR."""
    case_dir = out_dir / name
    case_dir.mkdir()
    if config is not None:
        (case_dir / "config.json").write_text(config)
    argv = [arg.replace("{dir}", str(case_dir)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.dispatch(["--out", str(case_dir), *argv]))
        except SystemExit as exc:  # argparse's usage errors
            code = str(exc.code)
        except Exception as exc:  # a crash is a digest line too, not the end of the list
            code = f"crash:{type(exc).__name__}"
    return code, *(s.getvalue().replace(str(out_dir), "OUT_DIR") for s in (out, err))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    if out_dir.exists() and any(out_dir.iterdir()):
        print(f"output_digest: {out_dir} is not empty", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    from circulab import cli

    lines = []
    for name, case_argv, config in CASES:
        code, out, err = run_case(cli, out_dir, name, case_argv, config)
        lines += [f"{_sha(out.encode())} {name}/<stdout> exit={code}",
                  f"{_sha(err.encode())} {name}/<stderr>"]
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        lines.append(f"{_sha(path.read_bytes())} {path.relative_to(out_dir)}")
    print("\n".join(sorted(lines, key=lambda line: line.split(" ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
