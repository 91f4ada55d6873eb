import pickle

import numpy as np
import pytest
import scipy

from circulab import experiments, spectral
from circulab.experiments import (
    DISTRIBUTION_KINDS,
    Distribution,
    ExperimentConfig,
    run_rectangular,
    trial_stream,
)
from circulab.matrices import (
    CirculantSpec,
    CoefficientSequence,
    SymmetricCirculantSpec,
    ToeplitzSpec,
    expand_symmetric_circulant,
    fourier_matrix,
    materialize_circulant,
)
from circulab.spectral import (
    ConvergenceError,
    SigmaMinResult,
    SingularEmbeddingError,
    _GohbergSemencul,
    _inverse_circulant_row,
    _schur_from_eigenvalues,
    _schur_matvec,
    build_schur_block,
    cauchy_interlacing_check,
    circulant_eigenvalues,
    circulant_extremes,
    dense_svd,
    schur_block_oracle,
    schur_sigma_min,
    sigma_min_fast,
    singular_values_to_csv,
    spectrum_to_csv,
    symmetric_circulant_eigenvalues,
    verify_interlacing,
)


def circ(values):
    values = np.asarray(values, dtype=float)
    return CirculantSpec(len(values), CoefficientSequence(values))


def direct_dft_extended(row, k):
    """Independent oracle: direct sum xi_j w^{jk} in 80-bit accumulation.

    The phase j*k mod n is reduced exactly in integer arithmetic before the
    complex exponential is formed.
    """
    n = len(row)
    two_pi = 2 * np.arccos(np.clongdouble(-1.0)).real
    acc = np.clongdouble(0) + 1j * np.clongdouble(0)
    for j in range(n):
        ang = two_pi * ((j * k) % n) / np.clongdouble(n)
        acc += np.clongdouble(row[j]) * (np.cos(ang) + 1j * np.sin(ang))
    return complex(acc)


class TestCirculantEigenvalues:
    def test_identity(self):
        assert np.allclose(circulant_eigenvalues(circ([1, 0, 0, 0])), np.ones(4), atol=1e-15)

    def test_shift(self):
        lam = circulant_eigenvalues(circ([0, 1, 0, 0]))
        assert np.allclose(lam, [1, 1j, -1, -1j], atol=1e-15)

    def test_all_ones(self):
        lam = circulant_eigenvalues(circ([1, 1, 1, 1]))
        assert np.allclose(lam, [4, 0, 0, 0], atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64])
    def test_fft_matches_extended_precision_dft(self, n):
        rng = np.random.default_rng(n)
        row = rng.standard_normal(n)
        lam = circulant_eigenvalues(circ(row))
        scale = np.abs(lam).max()
        for k in range(n):
            ref = direct_dft_extended(row, k)
            assert abs(lam[k] - ref) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [2, 5, 16, 100, 256])
    def test_diagonalization_identity(self, n):
        rng = np.random.default_rng(n + 1)
        spec = circ(rng.standard_normal(n))
        c = materialize_circulant(spec)
        f = fourier_matrix(n)
        lam = circulant_eigenvalues(spec)
        resid = np.linalg.norm(c - f.conj().T @ (lam[:, None] * f))
        assert resid <= 1e-9 * np.linalg.norm(c)


class TestSymmetricEigenvalues:
    def test_n4_against_dense_eigendecomposition(self):
        spec = SymmetricCirculantSpec(4, CoefficientSequence([1.0, 2.0, 3.0]))
        lam = symmetric_circulant_eigenvalues(spec)
        # oracle: dense symmetric eigendecomposition of the materialized matrix
        dense = np.linalg.eigvalsh(materialize_circulant(expand_symmetric_circulant(spec)).real)
        assert np.allclose(sorted(lam), dense, atol=1e-12)
        assert np.allclose(lam, [8.0, -2.0, 0.0, -2.0], atol=1e-12)

    def test_identity_n3(self):
        spec = SymmetricCirculantSpec(3, CoefficientSequence([1.0, 0.0]))
        assert np.allclose(symmetric_circulant_eigenvalues(spec), np.ones(3), atol=1e-15)

    def test_pairing_symmetry_n5(self):
        rng = np.random.default_rng(55)
        spec = SymmetricCirculantSpec(5, CoefficientSequence(rng.standard_normal(3)))
        lam = symmetric_circulant_eigenvalues(spec)
        for k in (1, 2):
            assert lam[k] == pytest.approx(lam[5 - k], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 16, 31])
    def test_agrees_with_fft_on_expanded_row(self, n):
        rng = np.random.default_rng(n + 100)
        spec = SymmetricCirculantSpec(n, CoefficientSequence(rng.standard_normal(n // 2 + 1)))
        lam = symmetric_circulant_eigenvalues(spec)
        via_fft = circulant_eigenvalues(expand_symmetric_circulant(spec))
        scale = max(np.abs(via_fft).max(), 1.0)
        assert np.abs(lam - via_fft).max() <= 1e-10 * scale


class TestExtremes:
    def test_singular_spectrum(self):
        rep = circulant_extremes(np.array([4.0, 0.0, 0.0, 0.0]))
        assert rep.sigma_max == 4.0 and rep.sigma_min == 0.0
        assert rep.singular and np.isinf(rep.kappa)

    def test_unit_moduli(self):
        rep = circulant_extremes(np.array([1, 1j, -1, -1j]))
        assert rep.sigma_max == pytest.approx(1.0)
        assert rep.sigma_min == pytest.approx(1.0)
        assert rep.kappa == pytest.approx(1.0)
        assert not rep.singular

    def test_zero_spectrum_flagged_singular(self):
        rep = circulant_extremes(np.zeros(3, dtype=complex))
        assert rep.singular

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_dense_svd(self, n):
        rng = np.random.default_rng(n + 9)
        spec = circ(rng.standard_normal(n))
        rep = circulant_extremes(circulant_eigenvalues(spec))
        sv = dense_svd(materialize_circulant(spec))
        assert rep.sigma_max == pytest.approx(sv[0], rel=1e-9)
        assert rep.sigma_min == pytest.approx(sv[-1], rel=1e-9)


class TestDenseSvd:
    def test_identity(self):
        assert np.allclose(dense_svd(np.eye(5)), np.ones(5))

    def test_diagonal_with_sign(self):
        assert dense_svd(np.diag([3.0, -4.0])).tolist() == [4.0, 3.0]

    def test_single_column(self):
        assert dense_svd(np.array([[3.0], [4.0]])).tolist() == [5.0]

    def test_wide_matrix_transposed(self):
        a = np.array([[1.0, 2.0, 2.0]])
        assert dense_svd(a).tolist() == [3.0]

    def test_zero_matrix(self):
        assert dense_svd(np.zeros((4, 3))).tolist() == [0.0, 0.0, 0.0]

    def test_sorted_descending_nonnegative(self):
        rng = np.random.default_rng(0)
        s = dense_svd(rng.standard_normal((20, 12)))
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)

    @pytest.mark.parametrize("shape", [(8, 8), (13, 7), (16, 16), (24, 10), (7, 19)])
    def test_against_lapack(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        mine = dense_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(mine - ref).max() <= 1e-12 * ref[0]

    def test_high_relative_accuracy_on_graded_diagonal(self):
        # column scaling spans 16 orders of magnitude; the preconditioned
        # Jacobi SVD keeps relative accuracy per singular value
        d = np.array([1e8, 1.0, 1e-8])
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a = q * d  # columns scaled exactly
        s = dense_svd(a)
        assert np.allclose(s, [1e8, 1.0, 1e-8], rtol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((30, 18))
        assert np.array_equal(dense_svd(a), dense_svd(a))

    def test_rank_deficient_schur_block(self):
        # inverse block of a +-1 embedding whose Toeplitz corner is singular;
        # dependent columns must collapse without stalling the sweeps
        row = np.array([-1.0, -1, 1, 1, -1, -1, -1, -1, -1, 1, 1, 1, -1, -1, 1, 1])
        spec = circ(row)
        block = build_schur_block(spec)
        s = dense_svd(block.matrix)
        ref = np.linalg.svd(block.matrix, compute_uv=False)
        assert np.abs(s[:5] - ref[:5]).max() <= 1e-12 * ref[0]
        assert np.all(s[5:] <= 1e-12 * ref[0])

    def test_extreme_column_scale_disparity(self):
        # norm ratio ~1e160 used to overflow the rotation parameter
        a = np.array([[1e-160, 1.0], [1e-160, 1.0 + 1e-8]])
        s = dense_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert s[0] == pytest.approx(ref[0], rel=1e-12)

    def test_nonconvergence_error_names_size(self, nonconverging_dgejsv):
        a = np.random.default_rng(1).standard_normal((6, 6))
        with pytest.raises(ConvergenceError, match="6x6"):
            dense_svd(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dense_svd(np.array([[1.0, np.nan]]))


class TestSigmaMinFast:
    def test_diagonal(self):
        res = sigma_min_fast(np.diag([1.0, 10.0]))
        assert res.value == pytest.approx(1.0, rel=1e-10)
        assert not res.singular and not res.used_fallback

    def test_matches_dense_svd_on_gaussian(self):
        rng = np.random.default_rng(64)
        a = rng.standard_normal((64, 64))
        res = sigma_min_fast(a)
        assert res.value == pytest.approx(dense_svd(a)[-1], rel=1e-6)

    def test_complex_matrix(self):
        # every matrix in the package is real; complex input is a caller error
        rng = np.random.default_rng(65)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        with pytest.raises(TypeError):
            sigma_min_fast(a)
        with pytest.raises(TypeError):
            dense_svd(a)

    def test_exactly_singular_duplicate_rows(self):
        a = np.random.default_rng(3).standard_normal((5, 5))
        a[3] = a[1]
        res = sigma_min_fast(a)
        assert res.singular and res.value == 0.0

    def test_fallback_on_iteration_budget(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 12))
        res = sigma_min_fast(a, max_iter=1, tol=1e-16)
        assert res.used_fallback
        assert res.iterations == 1 and res.residual > 1e-16
        assert res.value == pytest.approx(dense_svd(a)[-1], rel=1e-10)

    def test_telemetry_certifies_the_value(self):
        a = np.random.default_rng(9).standard_normal((40, 40))
        res = sigma_min_fast(a)
        assert 1 <= res.iterations < 500
        assert 0.0 <= res.residual <= 1e-10


class TestSchurBlock:
    def test_n1_closed_form(self):
        a, b = 3.0, 1.0
        block = build_schur_block(circ([a, b]))
        assert block.matrix[0, 0] == pytest.approx(a / (a * a - b * b), rel=1e-12)

    def test_identity_circulant(self):
        block = build_schur_block(circ([1, 0, 0, 0, 0, 0]))
        assert np.allclose(block.matrix, np.eye(3), atol=1e-14)

    def test_shift_circulant_permutation_inverse(self):
        # first row (0,1,0,0): the inverse permutation's trailing block
        block = build_schur_block(circ([0, 1, 0, 0]))
        inv = np.linalg.inv(materialize_circulant(circ([0, 1, 0, 0])))
        assert np.allclose(block.matrix, inv[2:, 2:], atol=1e-13)
        assert np.allclose(block.matrix, [[0, 0], [1, 0]], atol=1e-13)

    @pytest.mark.parametrize("dist", ["normal", "uniform", "rademacher", "bernoulli"])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_matches_oracle(self, n, dist):
        rng = np.random.default_rng(n * 1000 + hash(dist) % 997)
        u = rng.random(2 * n)
        row = {
            "normal": rng.standard_normal(2 * n),
            "uniform": u,
            "rademacher": np.where(u < 0.5, 1.0, -1.0),
            "bernoulli": np.where(u < 0.5, 1.0, 0.0),
        }[dist]
        spec = circ(row)
        try:
            built = build_schur_block(spec)
        except SingularEmbeddingError:
            return  # discrete laws can produce exactly singular embeddings
        oracle = schur_block_oracle(spec)
        assert built.matrix.dtype == oracle.matrix.dtype == np.float64  # C_2n is real
        rel = np.linalg.norm(built.matrix - oracle.matrix) / np.linalg.norm(oracle.matrix)
        assert rel <= 1e-9

    def test_matches_explicit_fourier_partition(self):
        # assemble F2* D1 F2 + F4* D2 F4 literally from the partitioned DFT matrix
        rng = np.random.default_rng(77)
        n = 6
        spec = circ(rng.standard_normal(2 * n))
        block = build_schur_block(spec)
        f = fourier_matrix(2 * n)
        f2 = f[:n, n:]
        f4 = f[n:, n:]
        d1 = np.diag(block.diag1)
        d2 = np.diag(block.diag2)
        explicit = f2.conj().T @ d1 @ f2 + f4.conj().T @ d2 @ f4
        assert np.linalg.norm(block.matrix - explicit) <= 1e-12 * np.linalg.norm(explicit)

    def test_diagonals_are_reciprocal_eigenvalues(self):
        spec = circ([2.0, 0.5, -0.25, 0.1])
        block = build_schur_block(spec)
        lam = circulant_eigenvalues(spec)
        assert np.allclose(block.diag1, 1.0 / lam[:2])
        assert np.allclose(block.diag2, 1.0 / lam[2:])

    def test_singular_embedding_error_carries_index(self):
        # G(z) = 1 + z vanishes only at z = -1, i.e. at k = n for even size
        row = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(SingularEmbeddingError) as exc_info:
            build_schur_block(circ(row))
        assert exc_info.value.index == 3

    def test_singular_embedding_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(SingularEmbeddingError(3, 1e-20)))
        assert type(err) is SingularEmbeddingError
        assert (err.index, err.magnitude) == (3, 1e-20)
        assert str(err) == str(SingularEmbeddingError(3, 1e-20))

    def test_alternating_row_singular_at_zero(self):
        # alternating +-1: G vanishes at every root except -1, first at k = 0
        row = np.tile([1.0, -1.0], 3)
        with pytest.raises(SingularEmbeddingError) as exc_info:
            build_schur_block(circ(row))
        assert exc_info.value.index == 0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_schur_block(circ([1.0, 2.0, 3.0]))


def _table1_spectrum(kind, master_seed, two_n, t):
    gen, _ = trial_stream(master_seed, two_n, t)
    return circulant_eigenvalues(circ(Distribution(kind).sample(gen, two_n)))


class TestStructuredSchurKernel:
    @staticmethod
    def gohberg_semencul(c, r):
        # an n x n Toeplitz matrix is the leading block of the 2n circulant with
        # first row (r_0..r_{n-1}, 0, c_{n-1}..c_1); its spectrum is 2n * ifft(row)
        row = np.concatenate([r, [0.0], c[:0:-1]])
        return _GohbergSemencul(np.fft.ifft(row) * row.size, row)

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 64])
    def test_gohberg_semencul_inverse_against_dense(self, n):
        rng = np.random.default_rng(500 + n)
        c, r = rng.standard_normal(n), rng.standard_normal(n)
        r[0] = c[0]
        t = np.array([[c[i - j] if i >= j else r[j - i] for j in range(n)] for i in range(n)])
        gs = self.gohberg_semencul(c, r)
        assert gs.ok
        inv = np.linalg.inv(t)
        scale = np.abs(inv).max()
        assert np.abs(gs.solve(np.eye(n)) - inv).max() <= 1e-11 * scale
        assert np.abs(gs.solve(np.eye(n), trans=True) - inv.T).max() <= 1e-11 * scale

    @pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
    @pytest.mark.parametrize("two_n", [2, 16, 130])
    def test_fft_matvec_matches_gathered_block(self, kind, two_n):
        rng = np.random.default_rng(two_n)
        v = rng.standard_normal((two_n // 2, 3))
        for t in range(8):
            lam = _table1_spectrum(kind, 31, two_n, t)
            try:
                weights, _ = _inverse_circulant_row(lam, None)
            except SingularEmbeddingError:
                continue
            s = _schur_from_eigenvalues(lam).matrix
            for trans, want in ((False, s @ v), (True, s.T @ v)):
                got = _schur_matvec(weights, v, trans=trans)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(s).sum(axis=1).max()

    @pytest.mark.parametrize("two_n,trials", [(4, 25), (8, 25), (16, 25), (64, 10), (256, 4), (2048, 2)])
    def test_agrees_with_lu_path(self, two_n, trials):
        worst = 0.0
        for d, kind in enumerate(DISTRIBUTION_KINDS):
            for t in range(trials):
                lam = _table1_spectrum(kind, 2024 + d, two_n, t)
                try:
                    res = schur_sigma_min(lam)
                except SingularEmbeddingError:
                    continue
                lu = sigma_min_fast(_schur_from_eigenvalues(lam).matrix)
                if res.structured_fallback:
                    assert res == SigmaMinResult(**{**vars(lu), "structured_fallback": True})
                else:
                    assert 1 <= res.iterations < 500 and res.residual <= 1e-10
                    worst = max(worst, abs(res.value - lu.value) / lu.value)
        assert worst <= 1e-10

    @pytest.mark.parametrize("kind,master_seed,t", [("uniform", 103, 22), ("normal", 104, 49)])
    def test_ill_conditioned_tail_draw(self, kind, master_seed, t):
        # criterion-1 draws with kappa(S) ~ 4e5 and 3e6: the formula alone misses
        # the LU value by 2e-10 and 1e-10, the refined solves by 1e-11 and 2e-11
        lam = _table1_spectrum(kind, master_seed, 2048, t)
        res = schur_sigma_min(lam)
        lu = sigma_min_fast(_schur_from_eigenvalues(lam).matrix)
        assert not res.structured_fallback
        assert res.value == pytest.approx(lu.value, rel=5e-11, abs=0.0)

    def test_guard_is_what_catches_levinson_garbage(self, monkeypatch):
        # at 2n = 8 and 16 Levinson on the block of a discrete draw can return
        # without an error and still be wrong; with the guard switched off the
        # structured value then misses the LU value by orders of magnitude
        def worst_gap():
            worst = 0.0
            for kind in ("rademacher", "bernoulli"):
                for two_n in (8, 16):
                    for t in range(40):
                        lam = _table1_spectrum(kind, 5, two_n, t)
                        try:
                            res = schur_sigma_min(lam)
                        except SingularEmbeddingError:
                            continue
                        lu = sigma_min_fast(_schur_from_eigenvalues(lam).matrix).value
                        if lu > 0.0:  # an exactly zero LU pivot has no relative gap
                            worst = max(worst, abs(res.value - lu) / lu)
            return worst

        assert worst_gap() <= 1e-10
        monkeypatch.setattr(spectral, "_GS_BACKWARD_TOL", np.inf)
        monkeypatch.setattr(spectral, "_GS_SINGULAR_RATIO", 0.0)
        assert worst_gap() > 1e-2

    def test_odd_or_tiny_spectrum_rejected(self):
        with pytest.raises(ValueError):
            schur_sigma_min(np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            schur_sigma_min(np.ones(1, dtype=complex))

    def test_singular_embedding_error_like_build_schur_block(self):
        with pytest.raises(SingularEmbeddingError) as exc_info:
            schur_sigma_min(circulant_eigenvalues(circ([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])))
        assert exc_info.value.index == 3

    def test_n1_closed_form(self):
        a, b = 3.0, 1.0
        res = schur_sigma_min(circulant_eigenvalues(circ([a, b])))
        assert not res.structured_fallback
        assert res.value == pytest.approx(a / (a * a - b * b), rel=1e-12)


class TestInterlacing:
    def test_hand_checkable_n1(self):
        # T = [3], xi_* = 1: sigma(C_2) = {4, 2}, sigma(T) = 3 in [2, 4]
        spec = ToeplitzSpec(1, CoefficientSequence([3.0], index_origin=0))
        report = verify_interlacing(spec, 1.0)
        assert report.ok
        assert report.sigma_c.tolist() == [4.0, 2.0]
        assert report.sigma_t[0] == pytest.approx(3.0, rel=1e-13)
        # clause (c) closed form: S_1 = 3/8, bounds 4*3/8 = 1.5 and 16*3/8 = 6
        assert report.sigma_s[0] == pytest.approx(3.0 / 8.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_random_trials_no_violations(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            vals = rng.standard_normal(2 * n - 1)
            spec = ToeplitzSpec(n, CoefficientSequence(vals, index_origin=-(n - 1)))
            report = verify_interlacing(spec, float(rng.standard_normal()))
            assert report.ok
            assert not report.singular_embedding

    def test_diagonal_toeplitz_everything_tight(self):
        a = 2.5
        vals = np.zeros(5)
        vals[2] = a
        spec = ToeplitzSpec(3, CoefficientSequence(vals, index_origin=-2))
        report = verify_interlacing(spec, 0.0)
        assert report.ok
        assert np.allclose(report.sigma_c, a)
        assert np.allclose(report.sigma_t, a)

    def test_zero_toeplitz_nonzero_star_tight_clauses(self):
        # embedding is +-xi_* unimodular, so nonsingular; all T margins are zero
        spec = ToeplitzSpec(2, CoefficientSequence(np.zeros(3), index_origin=-1))
        report = verify_interlacing(spec, 1.5)
        assert report.ok
        assert not report.singular_embedding
        assert np.allclose(report.sigma_t, 0.0)
        assert np.allclose(report.sigma_s, 0.0, atol=1e-15)

    def test_zero_toeplitz_zero_star_singular(self):
        spec = ToeplitzSpec(2, CoefficientSequence(np.zeros(3), index_origin=-1))
        report = verify_interlacing(spec, 0.0)
        assert report.singular_embedding
        assert report.clause_c is None

    def test_sigma_max_toeplitz_bounded_by_embedding(self):
        rng = np.random.default_rng(17)
        for n in (4, 8, 16):
            vals = rng.standard_normal(2 * n - 1)
            spec = ToeplitzSpec(n, CoefficientSequence(vals, index_origin=-(n - 1)))
            report = verify_interlacing(spec, float(rng.standard_normal()))
            assert report.sigma_t[0] <= report.sigma_c[0] + 1e-8 * report.sigma_c[0]


class TestCauchyInterlacing:
    def test_diagonal_true(self):
        assert cauchy_interlacing_check(np.diag([5.0, 3.0, 1.0]))

    def test_single_column_vacuous(self):
        assert cauchy_interlacing_check(np.array([[1.0], [2.0]]))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rectangular(self, seed):
        rng = np.random.default_rng(seed)
        assert cauchy_interlacing_check(rng.standard_normal((20, 12)))

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            cauchy_interlacing_check(np.zeros((3, 5)))


class TestCsvExports:
    def test_spectrum_csv(self, tmp_path):
        path = tmp_path / "spec.csv"
        spectrum_to_csv(np.array([1 + 2j, -3j]), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,re,im"
        assert lines[1] == "0,1.0,2.0"
        assert lines[2] == "1,-0.0,-3.0"

    def test_singular_values_csv(self, tmp_path):
        path = tmp_path / "sv.csv"
        singular_values_to_csv(np.array([2.0, 1.0]), path)
        assert path.read_text().strip().splitlines() == ["i,sigma", "1,2.0", "2,1.0"]


def _linked_openblas_builds() -> set[str]:
    """Library names of the scipy-openblas builds that numpy and scipy report linking."""
    names = set()
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") == "scipy-openblas":
            wide = "USE64BITINT" in blas.get("openblas configuration", "")
            names.add("libscipy_openblas64_" if wide else "libscipy_openblas")
    return names


@pytest.fixture
def blas_builds():
    """The discovered builds, each set to 2 threads for the test and restored after."""
    builds = spectral._openblas_builds()
    if not builds:
        pytest.skip("no OpenBLAS build loaded")
    old = [b.get_threads() for b in builds]
    for b in builds:
        b.set_threads(2)
    yield builds
    for b, count in zip(builds, old):
        b.set_threads(count)


@pytest.fixture
def fresh_blas_discovery():
    spectral._openblas_builds.cache_clear()
    yield
    spectral._openblas_builds.cache_clear()


def _rect_run():
    config = ExperimentConfig(experiment="rect", distribution=Distribution("normal"), trials=3,
                              master_seed=5, sizes=(8, 16))
    return run_rectangular(config)


class TestSingleBlasThread:
    def test_finds_numpy_and_scipy_builds(self):
        expected = _linked_openblas_builds()
        if not expected:
            pytest.skip("numpy and scipy do not link scipy-openblas")
        assert {name for name, _ in spectral.blas_thread_counts()} == expected

    def test_one_thread_inside(self, blas_builds):
        with spectral.single_blas_thread():
            assert [b.get_threads() for b in blas_builds] == [1] * len(blas_builds)

    def test_restores_on_exit(self, blas_builds):
        with spectral.single_blas_thread():
            pass
        assert [b.get_threads() for b in blas_builds] == [2] * len(blas_builds)

    def test_restores_after_exception(self, blas_builds):
        with pytest.raises(ZeroDivisionError):
            with spectral.single_blas_thread():
                1 / 0
        assert [b.get_threads() for b in blas_builds] == [2] * len(blas_builds)

    def test_restores_after_nested_entry(self, blas_builds):
        with spectral.single_blas_thread():
            with spectral.single_blas_thread():
                pass
            assert [b.get_threads() for b in blas_builds] == [1] * len(blas_builds)
        assert [b.get_threads() for b in blas_builds] == [2] * len(blas_builds)

    def test_experiment_runs_pinned(self, blas_builds, monkeypatch):
        seen = []
        real = spectral.dense_svd

        def spy(m):
            seen.append(tuple(b.get_threads() for b in blas_builds))
            return real(m)

        monkeypatch.setattr(experiments, "dense_svd", spy)  # the rect kernel's SVD
        _rect_run()
        assert seen and set(seen) == {(1,) * len(blas_builds)}
        assert [b.get_threads() for b in blas_builds] == [2] * len(blas_builds)

    def test_no_build_found_is_a_no_op(self, blas_builds, monkeypatch):
        monkeypatch.setattr(spectral, "_openblas_builds", lambda: ())
        with spectral.single_blas_thread():
            assert [b.get_threads() for b in blas_builds] == [2] * len(blas_builds)
        assert spectral.blas_thread_counts() == ()
        assert _rect_run().violations == 0

    def test_unreadable_memory_map_is_a_no_op(self, tmp_path, monkeypatch, fresh_blas_discovery):
        monkeypatch.setattr(spectral, "_PROC_MAPS", str(tmp_path / "missing"))
        assert spectral.blas_thread_counts() == ()
        with spectral.single_blas_thread():
            pass
        assert _rect_run().violations == 0

    def test_unloadable_library_is_skipped(self, tmp_path, monkeypatch, fresh_blas_discovery):
        maps = tmp_path / "maps"
        maps.write_text("7f00-7f01 r-xp 00000000 00:00 0 /nonexistent/libopenblas.so.0\n")
        monkeypatch.setattr(spectral, "_PROC_MAPS", str(maps))
        assert spectral.blas_thread_counts() == ()
