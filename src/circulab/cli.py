"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 invariant-class violation (a lemma
sweep or experiment reported a violation, or an oracle cross-check failed),
3 numerical failure (a LAPACK routine did not converge).
JSON config files share the schema of the ``config`` block echoed into every
summary output; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import arithmetic, experiments, matrices, polynomials, spectral

ENV_OUTPUT_DIR = "CIRCULAB_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad int list {text!r}") from exc


def _output_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUTPUT_DIR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_parser() -> _Parser:
    p = _Parser(prog="circulab", description=__doc__)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help=f"output directory (default ${ENV_OUTPUT_DIR} or cwd)")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="primary output format for query subcommands")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="after the command, print its wall time and BLAS thread state to stderr")
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    sp = sub.add_parser("spectrum", help="eigenvalues of a circulant")
    sp.add_argument("--n", type=int)
    sp.add_argument("--row", type=_parse_floats, help="first row, comma separated")
    sp.add_argument("--symmetric", action="store_true",
                    help="treat --row as the free coefficients of a symmetric circulant")
    sp.add_argument("--dist", choices=experiments.DISTRIBUTION_KINDS)
    sp.add_argument("--seed", type=int, default=0)

    sc = sub.add_parser("schur", help="Schur block of a 2n circulant")
    sc.add_argument("--two-n", type=int, dest="two_n")
    sc.add_argument("--row", type=_parse_floats)
    sc.add_argument("--dist", choices=experiments.DISTRIBUTION_KINDS)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--check-oracle", action="store_true",
                    help="cross-check against dense inversion (exit 2 on mismatch)")

    mm = sub.add_parser("maxmod", help="certified sup-norm bracket of a random polynomial")
    mm.add_argument("--n", type=int)
    mm.add_argument("--coeffs", type=_parse_floats)
    mm.add_argument("--dist", choices=experiments.DISTRIBUTION_KINDS)
    mm.add_argument("--seed", type=int, default=0)
    mm.add_argument("--oversampling", type=int, default=64)

    lc = sub.add_parser("lcd", help="least common denominator interval estimate")
    lc.add_argument("--vector", type=_parse_floats, help="vector form")
    lc.add_argument("--vk", type=_parse_ints, help="matrix form on the cosine/sine matrix: n,k")
    lc.add_argument("--L", type=float, default=2.0)
    lc.add_argument("--theta-max", type=float, dest="theta_max")
    lc.add_argument("--step", type=float)
    lc.add_argument("--r-max", type=float, dest="r_max")
    lc.add_argument("--r-step", type=float, dest="r_step")
    lc.add_argument("--phi-step", type=float, dest="phi_step")

    vl = sub.add_parser("verify-lemmas", help="exhaustive lemma sweeps (exit 2 on violations)")
    vl.add_argument("--lemma", required=True,
                    choices=["cos-full", "cos-half", "vk-det", "gcd-census"])
    vl.add_argument("--m", type=int, default=1000, help="cos-full: vector length")
    vl.add_argument("--theta-grid", type=int, default=360, dest="theta_grid")
    vl.add_argument("--r-min", type=int, default=2, dest="r_min")
    vl.add_argument("--r-max-int", type=int, default=13, dest="r_max_int")
    vl.add_argument("--n", type=int, default=2000, help="cos-half: polygon size")
    vl.add_argument("--k-max", type=int, default=50, dest="k_max")
    vl.add_argument("--r-list", type=_parse_floats, default=None, dest="r_list")
    vl.add_argument("--count", type=int, default=100, help="vk-det: random (n, k) pairs")
    vl.add_argument("--max-m", type=int, default=1000, dest="max_m", help="gcd-census sweep limit")
    vl.add_argument("--seed", type=int, default=0)

    ex = sub.add_parser("experiment", help="Monte Carlo experiments")
    ex.add_argument("kind", choices=["table1", "sigmax", "sigmin", "kappa", "rect", "interlace"])
    ex.add_argument("--dist", choices=experiments.DISTRIBUTION_KINDS)
    ex.add_argument("--trials", type=int)
    ex.add_argument("--seed", type=int, dest="master_seed")
    ex.add_argument("--two-n", type=int, dest="two_n", help="table1 dimension 2n")
    ex.add_argument("--n", type=int)
    ex.add_argument("--sizes", type=_parse_ints)
    ex.add_argument("--rho", type=float)
    ex.add_argument("--eps", type=float, dest="epsilon")
    ex.add_argument("--eps-grid", type=_parse_floats, dest="eps_grid")
    ex.add_argument("--symmetric", action="store_true", default=None)
    ex.add_argument("--xi-star", dest="xi_star",
                    help="'random' (default) or 'fixed:<value>'")
    ex.add_argument("--oversampling", type=int,
                    help="sigmax grid factor K > 4 for the certified sup-norm bracket "
                         "(default 64); 0 skips the bracket and fits sigma_max/sqrt(n log n)")
    ex.add_argument("--workers", type=int,
                    help="trial threads, at least 1 (default 1); BLAS runs on one thread")
    ex.add_argument("--resample-singular", action="store_true", default=None,
                    dest="resample_singular")

    return p


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _cmd_spectrum(args, out: Path) -> int:
    if args.row is not None:
        if args.symmetric:
            n = args.n or (2 * (len(args.row) - 1))
            spec = matrices.SymmetricCirculantSpec(n, matrices.CoefficientSequence(args.row))
            eigs = spectral.symmetric_circulant_eigenvalues(spec).astype(complex)
        else:
            row = matrices.CoefficientSequence(args.row)
            eigs = spectral.circulant_eigenvalues(matrices.CirculantSpec(len(row), row))
    elif args.dist and args.n:
        gen, _ = experiments.trial_stream(args.seed, args.n, 0)
        row = experiments.Distribution(args.dist).sample(gen, args.n)
        eigs = spectral.circulant_eigenvalues(
            matrices.CirculantSpec(args.n, matrices.CoefficientSequence(row))
        )
    else:
        print("spectrum needs --row or (--dist and --n)", file=sys.stderr)
        return EXIT_USAGE
    rep = spectral.circulant_extremes(eigs)
    if args.format == "json":
        _print_json({
            "eigenvalues": [[float(z.real), float(z.imag)] for z in eigs],
            "sigma_max": rep.sigma_max,
            "sigma_min": rep.sigma_min,
            "kappa": "singular" if rep.singular else rep.kappa,
        })
    else:
        for k, z in enumerate(eigs):
            print(f"{k},{float(z.real)!r},{float(z.imag)!r}")
        kappa = "singular" if rep.singular else repr(float(rep.kappa))
        print(f"# sigma_max={rep.sigma_max!r} sigma_min={rep.sigma_min!r} kappa={kappa}")
    spectral.spectrum_to_csv(eigs, out / "spectrum.csv")
    return EXIT_OK


def _cmd_schur(args, out: Path) -> int:
    if args.row is not None:
        row = args.row
    elif args.dist and args.two_n:
        gen, _ = experiments.trial_stream(args.seed, args.two_n, 0)
        row = experiments.Distribution(args.dist).sample(gen, args.two_n)
    else:
        print("schur needs --row or (--dist and --two-n)", file=sys.stderr)
        return EXIT_USAGE
    spec = matrices.CirculantSpec(len(row), matrices.CoefficientSequence(row))
    try:
        block = spectral.build_schur_block(spec)
    except spectral.SingularEmbeddingError as exc:
        print(f"singular embedding at index {exc.index}", file=sys.stderr)
        return EXIT_VIOLATION
    spectral.schur_block_to_csv(block, out / "schur_block.csv")
    print(f"wrote {out / 'schur_block.csv'} (n={block.n})")
    if args.check_oracle:
        oracle = spectral.schur_block_oracle(spec)
        num = float(np.linalg.norm(block.matrix - oracle.matrix))
        den = float(np.linalg.norm(oracle.matrix))
        rel = num / den if den > 0 else num
        print(f"oracle relative Frobenius error: {rel:.3e}")
        if rel > 1e-9:
            return EXIT_VIOLATION
    return EXIT_OK


def _cmd_maxmod(args, out: Path) -> int:
    if args.coeffs is not None:
        coeffs = args.coeffs
    elif args.dist and args.n:
        gen, _ = experiments.trial_stream(args.seed, args.n, 0)
        coeffs = experiments.Distribution(args.dist).sample(gen, args.n)
    else:
        print("maxmod needs --coeffs or (--dist and --n)", file=sys.stderr)
        return EXIT_USAGE
    poly = polynomials.TrigPolynomial(matrices.CoefficientSequence(coeffs))
    bracket = polynomials.max_modulus(poly, args.oversampling)
    payload = {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "oversampling": bracket.oversampling,
        "witness_x": bracket.witness_x,
    }
    if poly.n >= 2:
        lo, hi = polynomials.salem_zygmund_ratio(bracket, poly.n)
        payload["ratio_lower"] = lo
        payload["ratio_upper"] = hi
    _print_json(payload)
    return EXIT_OK


def _cmd_lcd(args, out: Path) -> int:
    if args.vector is not None:
        est = arithmetic.lcd_vector(args.vector, args.L, args.theta_max, args.step)
        witness = est.upper_witness
    elif args.vk is not None:
        n, k = args.vk
        vmat, _ = arithmetic.vk_matrix(n, k)
        est = arithmetic.lcd_matrix2(vmat, args.L, args.r_max, args.r_step, args.phi_step)
        witness = None if est.upper_witness is None else [float(x) for x in est.upper_witness]
    else:
        print("lcd needs --vector or --vk n,k", file=sys.stderr)
        return EXIT_USAGE
    _print_json({
        "lower_bound": est.lower_bound,
        "upper_witness": witness,
        "witness_distance": est.witness_distance,
        "L": est.L,
        "search_resolution": est.search_resolution,
    })
    return EXIT_OK


def _cmd_verify_lemmas(args, out: Path) -> int:
    if args.lemma == "cos-full":
        rows = arithmetic.sweep_cosine_full(
            args.m, range(args.r_min, args.r_max_int + 1), args.theta_grid
        )
    elif args.lemma == "cos-half":
        r_list = args.r_list if args.r_list is not None else [1.0, 2.0, 4.0]
        rows = arithmetic.sweep_cosine_half(args.n, range(1, args.k_max + 1), r_list)
    elif args.lemma == "vk-det":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
        rows = []
        made = 0
        while made < args.count:
            n = int(rng.integers(3, 2001))
            k = int(rng.integers(1, n))
            if k == 0 or 2 * k == n:
                continue
            _, det = arithmetic.vk_matrix(n, k)
            expected = n * n / 4.0
            margin = 1e-9 - abs(det - expected) / expected
            rows.append({
                "case_id": f"vk-n{n}-k{k}", "n": n, "k": k,
                "applicable": True, "holds": margin >= 0, "margin": margin,
            })
            made += 1
    path = out / f"lemma_{args.lemma}.csv"
    if args.lemma == "gcd-census":
        try:
            cases, applicable, violations = arithmetic.gcd_census_to_csv(args.max_m, path)
        except ValueError as exc:
            raise ValueError(f"--max-m: {exc}") from None
    else:
        cases, applicable, violations = arithmetic.lemma_rows_to_csv(rows, path)
    print(f"{args.lemma}: {cases} cases, {applicable} applicable, "
          f"{violations} violations -> {path}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _experiment_config(args) -> experiments.ExperimentConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if "config" in base:  # accept a whole summary JSON back
            base = base["config"]
    merged = dict(base)
    merged["experiment"] = args.kind
    if args.dist is not None:
        merged["distribution"] = {"kind": args.dist}
    if args.trials is not None:
        merged["trials"] = args.trials
    if args.master_seed is not None:
        merged["master_seed"] = args.master_seed
    if args.two_n is not None:
        merged["n"] = args.two_n
    if args.n is not None:
        merged["n"] = args.n
    if args.sizes is not None:
        merged["sizes"] = list(args.sizes)
    if args.rho is not None:
        merged["rho"] = args.rho
    if args.epsilon is not None:
        merged["epsilon"] = args.epsilon
    if args.eps_grid is not None:
        merged["epsilons"] = [float(e) for e in args.eps_grid]
    if args.symmetric is not None:
        merged["symmetric"] = args.symmetric
    if args.xi_star is not None:
        if args.xi_star.startswith("fixed:"):
            merged["xi_star_mode"] = "fixed"
            merged["xi_star_value"] = float(args.xi_star.split(":", 1)[1])
        elif args.xi_star == "random":
            merged["xi_star_mode"] = "random"
        else:
            raise ValueError(f"bad --xi-star {args.xi_star!r}")
    if args.oversampling is not None:
        merged["oversampling"] = args.oversampling
    if args.workers is not None:
        merged["workers"] = args.workers
    if args.resample_singular is not None:
        merged["resample_singular"] = args.resample_singular
    merged.setdefault("trials", 100)
    merged.setdefault("master_seed", 0)
    merged.setdefault("distribution", {"kind": "normal"})
    return experiments.ExperimentConfig.from_dict(merged)


def _cmd_experiment(args, out: Path) -> int:
    config = _experiment_config(args)
    dist = config.distribution.label
    echo = config.science_dict()
    code = EXIT_OK
    if args.kind == "table1":
        res = experiments.run_table1(config)
        experiments.trials_to_csv(res.records[config.n], out / f"table1_{dist}_trials.csv", echo)
        experiments.summary_to_json(res.to_dict(), out / f"table1_{dist}_summary.json")
        mean = res.summary.mean if res.summary else float("nan")
        print(f"table1 {dist} 2n={config.n}: mean sigmin_S={mean:.6f} "
              f"({res.singular_count} singular, {res.fallback_count} fallback, "
              f"{res.structured_fallback_count} structured-fallback)")
    elif args.kind == "sigmax":
        res = experiments.run_sigma_max_tail(config)
        for n, recs in res.records.items():
            experiments.trials_to_csv(recs, out / f"sigmax_{dist}_n{n}_trials.csv", echo)
        experiments.ratios_to_csv(res.records, dist, out / f"sigmax_{dist}_ratios.csv")
        experiments.summary_to_json(res.to_dict(), out / f"sigmax_{dist}_summary.json")
        print(f"sigmax {dist}: fitted C0={res.tail.fitted_constant:.4f}")
    elif args.kind == "sigmin":
        res = experiments.run_sigma_min_tail(config)
        for n, recs in res.records.items():
            experiments.trials_to_csv(recs, out / f"sigmin_{dist}_n{n}_trials.csv", echo)
        experiments.summary_to_json(res.to_dict(), out / f"sigmin_{dist}_summary.json")
        for pt in res.tail.points:
            print(f"sigmin {dist} n={pt.n} eps={pt.epsilon:g}: "
                  f"P={pt.exceedance:.4f} [{pt.wilson_low:.4f}, {pt.wilson_high:.4f}]")
    elif args.kind == "kappa":
        res = experiments.run_condition_number(config)
        for n, recs in res.records.items():
            experiments.trials_to_csv(recs, out / f"kappa_{dist}_n{n}_trials.csv", echo)
        experiments.summary_to_json(res.to_dict(), out / f"kappa_{dist}_summary.json")
        print(f"kappa {dist}: fitted C0={res.tail.fitted_constant:.4f}")
    elif args.kind == "rect":
        res = experiments.run_rectangular(config)
        for n, recs in res.records.items():
            experiments.trials_to_csv(recs, out / f"rect_{dist}_n{n}_trials.csv", echo)
        experiments.summary_to_json(res.to_dict(), out / f"rect_{dist}_summary.json")
        print(f"rect {dist}: {res.violations} clause violations")
        code = EXIT_VIOLATION if res.violations else EXIT_OK
    else:  # interlace
        res = experiments.run_interlacing_suite(config)
        for n, recs in res.records.items():
            experiments.trials_to_csv(recs, out / f"interlace_{dist}_n{n}_trials.csv", echo)
        experiments.summary_to_json(res.to_dict(), out / f"interlace_{dist}_summary.json")
        print(f"interlace {dist}: {res.violations} violations, "
              f"{res.singular_count} singular embeddings, "
              f"cauchy {res.cauchy_failures}/{res.cauchy_checked} failures")
        code = EXIT_VIOLATION if res.violations or res.cauchy_failures else EXIT_OK
    return code


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "schur": _cmd_schur,
    "maxmod": _cmd_maxmod,
    "lcd": _cmd_lcd,
    "verify-lemmas": _cmd_verify_lemmas,
    "experiment": _cmd_experiment,
}


def _run_command(args, out: Path) -> int:
    try:
        return _COMMANDS[args.command](args, out)
    except (ValueError, OSError) as exc:
        print(f"circulab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except spectral.ConvergenceError as exc:
        print(f"circulab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _blas_state(command: str) -> str:
    """The OpenBLAS builds and the thread counts the command ran under."""
    pinned = command == "experiment"  # every experiments.run_* pins
    with spectral.single_blas_thread() if pinned else contextlib.nullcontext():
        counts = spectral.blas_thread_counts()
    if not counts:
        return "BLAS unpinned, no OpenBLAS build found"
    builds = ", ".join(f"{name} {n} thread{'s' * (n != 1)}" for name, n in counts)
    return f"BLAS {'pinned' if pinned else 'unpinned'}: {builds}"


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    out = _output_dir(args)
    start = time.perf_counter()
    code = _run_command(args, out)
    if args.verbose:
        print(f"circulab: {args.command} took {time.perf_counter() - start:.3f} s, "
              f"{_blas_state(args.command)}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
