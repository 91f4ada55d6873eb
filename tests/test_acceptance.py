"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  The Table-1 reproduction dominates the runtime; the whole
module took 18 s on two cores at ``WORKERS = 2`` (measured 2026-10-20), 8.5 s
of it Table 1.
"""

import math

import numpy as np

from circulab.arithmetic import gcd_census, sweep_cosine_full, sweep_cosine_half, vk_matrix
from circulab.experiments import (
    Distribution,
    ExperimentConfig,
    run_interlacing_suite,
    run_sigma_max_tail,
    run_sigma_min_tail,
    run_table1,
    trial_stream,
    trials_to_csv,
)
from circulab.matrices import (
    CirculantSpec,
    CoefficientSequence,
    ToeplitzSpec,
    exchange_transform,
    fourier_matrix,
    materialize_circulant,
    materialize_toeplitz,
)
from circulab.spectral import (
    SingularEmbeddingError,
    build_schur_block,
    circulant_eigenvalues,
    circulant_extremes,
    dense_svd,
    schur_block_oracle,
)

WORKERS = 2

TABLE1_REFERENCE = {
    # distribution: (mean, first quartile) at 2n = 2048
    "bernoulli": (0.4676160, 0.1778511),
    "rademacher": (0.2335359, 0.0882868),
    "uniform": (0.796888, 0.293408),
    "normal": (0.2279807, 0.0859852),
}


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_table1_reproduction():
    """Mean within 15% and first quartile within 25% of the reference table."""
    ok = True
    details = []
    for i, (kind, (ref_mean, ref_q1)) in enumerate(TABLE1_REFERENCE.items()):
        config = ExperimentConfig(
            experiment="table1", distribution=Distribution(kind), trials=500,
            master_seed=101 + i, n=2048, workers=WORKERS,
        )
        res = run_table1(config)
        mean = res.summary.mean
        q1 = res.summary.q25
        mean_err = abs(mean - ref_mean) / ref_mean
        q1_err = abs(q1 - ref_q1) / ref_q1
        ok &= mean_err <= 0.15 and q1_err <= 0.25
        details.append(
            f"{kind}: mean {mean:.6f} vs {ref_mean} ({100 * mean_err:.1f}%), "
            f"q1 {q1:.6f} vs {ref_q1} ({100 * q1_err:.1f}%), "
            f"{res.singular_count} singular"
        )
    assert _report("criterion 1 (table-1 reproduction)", ok, "; ".join(details))


def test_c02_schur_oracle_equivalence():
    """Relative Frobenius gap between fast build and dense inversion <= 1e-9."""
    worst = 0.0
    checked = 0
    skipped = 0
    for half_n in (4, 8, 16, 32, 64):
        for d, kind in enumerate(TABLE1_REFERENCE):
            dist = Distribution(kind)
            for t in range(50):
                gen, _ = trial_stream(7_000 + d, half_n, t)
                row = dist.sample(gen, 2 * half_n)
                spec = CirculantSpec(2 * half_n, CoefficientSequence(row))
                try:
                    built = build_schur_block(spec)
                except SingularEmbeddingError:
                    skipped += 1
                    continue
                oracle = schur_block_oracle(spec)
                rel = float(
                    np.linalg.norm(built.matrix - oracle.matrix)
                    / np.linalg.norm(oracle.matrix)
                )
                worst = max(worst, rel)
                checked += 1
    ok = worst <= 1e-9 and checked > 800
    assert _report(
        "criterion 2 (schur oracle equivalence)", ok,
        f"{checked} trials, worst relative Frobenius {worst:.2e}, {skipped} singular skipped",
    )


def test_c03_interlacing_suite():
    """1000 trials across n in 8..128, Gaussian and Rademacher: zero violations."""
    total = 0
    violations = 0
    cauchy_failures = 0
    singular = 0
    for kind in ("normal", "rademacher"):
        config = ExperimentConfig(
            experiment="interlace", distribution=Distribution(kind), trials=100,
            master_seed=303, sizes=(8, 16, 32, 64, 128), workers=WORKERS,
        )
        res = run_interlacing_suite(config, cauchy_trials=2)
        total += sum(len(r) for r in res.records.values())
        violations += res.violations
        cauchy_failures += res.cauchy_failures
        singular += res.singular_count
    ok = violations == 0 and cauchy_failures == 0 and total == 1000
    assert _report(
        "criterion 3 (interlacing suite)", ok,
        f"{total} trials, {violations} violations, {cauchy_failures} cauchy failures, "
        f"{singular} singular embeddings (clause c skipped there)",
    )


def _direct_dft_extended(row, k):
    n = len(row)
    two_pi = 2 * np.arccos(np.clongdouble(-1.0)).real
    acc = np.clongdouble(0) + 1j * np.clongdouble(0)
    for j in range(n):
        ang = two_pi * ((j * k) % n) / np.clongdouble(n)
        acc += np.clongdouble(row[j]) * (np.cos(ang) + 1j * np.sin(ang))
    return complex(acc)


def test_c04_circulant_spectral_identities():
    """FFT vs extended-precision DFT, diagonalization, extremes vs dense SVD."""
    rng = np.random.default_rng(404)
    worst_dft = 0.0
    for n in (2, 3, 5, 8, 16, 33, 64):
        row = rng.standard_normal(n)
        lam = circulant_eigenvalues(CirculantSpec(n, CoefficientSequence(row)))
        scale = float(np.abs(lam).max())
        for k in range(n):
            worst_dft = max(worst_dft, abs(lam[k] - _direct_dft_extended(row, k)) / scale)
    ok_dft = worst_dft <= 1e-10

    worst_diag = 0.0
    for n in (2, 17, 64, 128, 256):
        spec = CirculantSpec(n, CoefficientSequence(rng.standard_normal(n)))
        c = materialize_circulant(spec)
        f = fourier_matrix(n)
        lam = circulant_eigenvalues(spec)
        rel = float(np.linalg.norm(c - f.conj().T @ (lam[:, None] * f)) / np.linalg.norm(c))
        worst_diag = max(worst_diag, rel)
    ok_diag = worst_diag <= 1e-9

    worst_ext = 0.0
    for n in (16, 64, 256):
        spec = CirculantSpec(n, CoefficientSequence(rng.standard_normal(n)))
        rep = circulant_extremes(circulant_eigenvalues(spec))
        sv = dense_svd(materialize_circulant(spec))
        worst_ext = max(
            worst_ext,
            abs(rep.sigma_max - sv[0]) / sv[0],
            abs(rep.sigma_min - sv[-1]) / sv[-1],
        )
    ok_ext = worst_ext <= 1e-9

    ok = ok_dft and ok_diag and ok_ext
    assert _report(
        "criterion 4 (spectral identities)", ok,
        f"dft {worst_dft:.2e} (<=1e-10), diagonalization {worst_diag:.2e} (<=1e-9), "
        f"extremes {worst_ext:.2e} (<=1e-9)",
    )


def test_c05_salem_zygmund_shape():
    """q99 growth from n=256 to n=4096 at most 10%; no trial above 3x the 256 median."""
    ok = True
    details = []
    for kind in ("rademacher", "normal"):
        config = ExperimentConfig(
            experiment="sigmax", distribution=Distribution(kind), trials=200,
            master_seed=505, sizes=(256, 1024, 4096), oversampling=64, workers=WORKERS,
        )
        res = run_sigma_max_tail(config)
        ratios = {n: np.array([r.ratio_lower for r in res.records[n]]) for n in (256, 1024, 4096)}
        q99 = {n: float(np.quantile(ratios[n], 0.99)) for n in ratios}
        med256 = float(np.median(ratios[256]))
        growth = q99[4096] / q99[256] - 1.0
        peak = max(float(ratios[n].max()) for n in ratios)
        this_ok = growth <= 0.10 and peak <= 3.0 * med256
        ok &= this_ok
        details.append(
            f"{kind}: q99 growth {100 * growth:+.1f}%, peak {peak:.3f} vs 3*median {3 * med256:.3f}"
        )
    assert _report("criterion 5 (salem-zygmund shape)", ok, "; ".join(details))


def test_c06_sigma_min_tail_shape():
    """Exceedance at eps=1 nonincreasing in n within twice the Wilson half-width."""
    config = ExperimentConfig(
        experiment="sigmin", distribution=Distribution("normal"), trials=2000,
        master_seed=606, sizes=(256, 1024, 4096), rho=0.2,
        epsilons=(0.1, 0.5, 1.0, 2.0), workers=WORKERS,
    )
    res = run_sigma_min_tail(config)
    by_n_eps = {(p.n, p.epsilon): p for p in res.tail.points}

    mono_n_ok = True
    seq = []
    prev = None
    for n in (256, 1024, 4096):
        p = by_n_eps[(n, 1.0)]
        half = (p.wilson_high - p.wilson_low) / 2.0
        seq.append(f"n={n}: {p.exceedance:.4f}")
        if prev is not None:
            prev_p, prev_half = prev
            if p.exceedance > prev_p + 2.0 * max(half, prev_half):
                mono_n_ok = False
        prev = (p.exceedance, half)

    mono_eps_ok = True
    for n in (256, 1024, 4096):
        probs = [by_n_eps[(n, e)].exceedance for e in (0.1, 0.5, 1.0, 2.0)]
        if probs != sorted(probs):
            mono_eps_ok = False

    ok = mono_n_ok and mono_eps_ok
    assert _report(
        "criterion 6 (sigma-min tail shape)", ok,
        f"eps=1 exceedance {', '.join(seq)}; nested-epsilon monotone: {mono_eps_ok}",
    )


def test_c07_lemma_verifier_sweeps():
    """Exhaustive distance-lemma sweeps and the Gram determinant identity."""
    full_rows = sweep_cosine_full(1000, range(2, 14), 360)
    full_app = [r for r in full_rows if r["applicable"]]
    full_bad = [r for r in full_app if not r["holds"]]

    half_rows = sweep_cosine_half(2000, range(1, 51), [1.0, 2.0, 4.0])
    half_app = [r for r in half_rows if r["applicable"]]
    half_bad = [r for r in half_app if not r["holds"]]

    rng = np.random.default_rng(707)
    worst_det = 0.0
    made = 0
    while made < 100:
        n = int(rng.integers(3, 3000))
        k = int(rng.integers(1, n))
        if 2 * k == n:
            continue
        _, det = vk_matrix(n, k)
        worst_det = max(worst_det, abs(det - n * n / 4.0) / (n * n / 4.0))
        made += 1

    ok = (
        len(full_app) == 12 * 360
        and not full_bad
        and len(half_app) > 0
        and not half_bad
        and worst_det <= 1e-9
    )
    assert _report(
        "criterion 7 (lemma sweeps)", ok,
        f"full: {len(full_app)} applicable 0 violations expected, got {len(full_bad)}; "
        f"half: {len(half_app)} applicable, {len(half_bad)} violations; "
        f"det worst rel {worst_det:.2e}",
    )


def test_c08_gcd_census_identity():
    """exact_count == totient_sum for every M <= 1e5 and y in {1, 2, sqrt(M), M}."""
    limit = 100_000
    mismatches = 0
    first_bad = None
    for m in range(1, limit + 1):
        for y in (1.0, 2.0, math.sqrt(m), float(m)):
            y = max(y, 1.0)
            census = gcd_census(m, y)
            if census.exact_count != census.totient_sum:
                mismatches += 1
                if first_bad is None:
                    first_bad = (m, y, census.exact_count, census.totient_sum)
    ok = mismatches == 0
    assert _report(
        "criterion 8 (gcd census identity)", ok,
        f"all M <= {limit}, 4 thresholds each, {mismatches} mismatches"
        + (f", first {first_bad}" if first_bad else ""),
    )


def test_c09_hankel_equivalence():
    """Singular values of H and JH agree to 1e-10 relative, 100 random sizes <= 128."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 129))
        vals = rng.standard_normal(2 * n - 1)
        t = materialize_toeplitz(ToeplitzSpec(n, CoefficientSequence(vals, index_origin=-(n - 1))))
        h = exchange_transform(t)  # J T is Hankel, and J H = T
        sv_h = dense_svd(h)
        sv_jh = dense_svd(exchange_transform(h))
        rel = float(np.max(np.abs(sv_h - sv_jh) / np.maximum(np.maximum(sv_h, sv_jh), 1e-300)))
        worst = max(worst, rel)
    ok = worst <= 1e-10
    assert _report(
        "criterion 9 (hankel equivalence)", ok,
        f"100 matrices, worst per-value relative gap {worst:.2e}",
    )


def test_c10_determinism(tmp_path):
    """Byte-identical trial CSV under worker counts 1 and 4."""
    blobs = {}
    for workers in (1, 4):
        config = ExperimentConfig(
            experiment="sigmin", distribution=Distribution("normal"), trials=100,
            master_seed=1010, sizes=(64,), rho=0.2, workers=workers,
        )
        res = run_sigma_min_tail(config)
        path = tmp_path / f"trials_w{workers}.csv"
        trials_to_csv(res.records[64], path, config.science_dict())
        blobs[workers] = path.read_bytes()
    rerun_config = ExperimentConfig(
        experiment="sigmin", distribution=Distribution("normal"), trials=100,
        master_seed=1010, sizes=(64,), rho=0.2, workers=4,
    )
    rerun = run_sigma_min_tail(rerun_config)
    path = tmp_path / "trials_rerun.csv"
    trials_to_csv(rerun.records[64], path, rerun_config.science_dict())
    ok = blobs[1] == blobs[4] == path.read_bytes()
    assert _report(
        "criterion 10 (determinism)", ok,
        f"{len(blobs[1])} bytes identical across worker counts 1/4 and rerun",
    )
