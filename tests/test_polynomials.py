import math

import numpy as np
import pytest

from circulab.matrices import CirculantSpec, CoefficientSequence
from circulab.polynomials import (
    MaxModulusBracket,
    TrigPolynomial,
    _twiddles,
    evaluate_on_grid,
    max_modulus,
    salem_zygmund_ratio,
)
from circulab.spectral import circulant_eigenvalues, symmetric_circulant_eigenvalues
from circulab.matrices import SymmetricCirculantSpec


def poly(values, symmetric=False):
    return TrigPolynomial(CoefficientSequence(np.asarray(values, dtype=float)), symmetric)


class TestEvaluateOnGrid:
    def test_constant(self):
        vals = evaluate_on_grid(poly([1.0]), 7)
        assert np.allclose(vals, np.ones(7), atol=1e-15)

    def test_monomial_fourth_roots(self):
        vals = evaluate_on_grid(poly([0.0, 1.0]), 4)
        assert np.allclose(vals, [1, 1j, -1, -1j], atol=1e-15)

    def test_grid_equal_n_reproduces_circulant_eigenvalues(self):
        rng = np.random.default_rng(12)
        row = rng.standard_normal(16)
        vals = evaluate_on_grid(poly(row), 16)
        lam = circulant_eigenvalues(CirculantSpec(16, CoefficientSequence(row)))
        assert np.array_equal(vals, lam)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            evaluate_on_grid(poly([1.0, 2.0, 3.0]), 2)

    def test_symmetric_palindrome_enforced(self):
        with pytest.raises(ValueError):
            poly([1.0, 2.0, 3.0], symmetric=True)
        p = poly([1.0, 2.0, 2.0], symmetric=True)
        assert p.n == 3


class TestMaxModulus:
    def test_all_ones_bracket_contains_n(self):
        for n in (4, 16, 33):
            b = max_modulus(poly(np.ones(n)))
            assert b.lower <= n <= b.upper
            # the peak at x = 0 is on the grid, so the lower bound is exact
            assert b.lower == pytest.approx(n, rel=1e-12)
            assert b.witness_x == 0.0

    def test_unit_modulus_monomial(self):
        b = max_modulus(poly([0.0, 1.0]))
        assert b.lower == pytest.approx(1.0, rel=1e-12)
        assert b.upper == pytest.approx(1.0 / (1.0 - math.pi / 64.0), rel=1e-12)

    def test_coarse_bracket_contains_fine_value(self):
        rng = np.random.default_rng(32)
        p = poly(rng.standard_normal(32))
        coarse = max_modulus(p, 64)
        fine = max_modulus(p, 1024)
        assert coarse.lower <= fine.lower <= coarse.upper

    def test_lower_grows_with_refinement(self):
        rng = np.random.default_rng(9)
        p = poly(rng.standard_normal(24))
        lowers = [max_modulus(p, k).lower for k in (8, 16, 64, 256)]
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_bracket_sound_against_brute_force(self, n):
        # 2^20-point brute-force grid stands in for the true sup
        rng = np.random.default_rng(n)
        p = poly(rng.standard_normal(n))
        b = max_modulus(p, 64)
        brute = float(np.abs(evaluate_on_grid(p, 1 << 20)).max())
        assert b.lower <= brute * (1 + 1e-12)
        assert brute <= b.upper * (1 + 1e-12)

    def test_bracket_exceeds_spectrum_maximum(self):
        rng = np.random.default_rng(21)
        row = rng.standard_normal(20)
        lam = circulant_eigenvalues(CirculantSpec(20, CoefficientSequence(row)))
        b = max_modulus(poly(row))
        assert b.lower >= np.abs(lam).max() - 1e-12

    def test_oversampling_must_exceed_four(self):
        with pytest.raises(ValueError):
            max_modulus(poly([1.0, 2.0]), 4)

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            MaxModulusBracket(2.0, 1.0, 64, 0.0)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(40)
        vals = rng.standard_normal(15)
        b1 = max_modulus(poly(vals))
        b2 = max_modulus(poly(-vals))
        assert b1.lower == b2.lower and b1.upper == b2.upper


class TestHalfSpectrumGrid:
    """max_modulus scans k = 0..floor(m/2); the full grid is the oracle."""

    @staticmethod
    def direct_sum(values, x):
        return abs(np.sum(values * np.exp(1j * np.arange(values.size) * x)))

    @pytest.mark.parametrize("k, n", [(7, 9), (8, 9), (64, 16), (65, 33)])
    def test_lower_is_full_grid_maximum(self, k, n):
        # odd grids (7*9, 65*33) have no Nyquist point; even ones do
        rng = np.random.default_rng(100 * k + n)
        p = poly(rng.standard_normal(n))
        full = float(np.abs(evaluate_on_grid(p, k * n)).max())
        assert max_modulus(p, k).lower == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("k, n", [(7, 9), (8, 9), (64, 31)])
    def test_witness_in_upper_half_and_attains_lower(self, k, n):
        rng = np.random.default_rng(7 * n + k)
        vals = rng.standard_normal(n)
        b = max_modulus(poly(vals), k)
        assert 0.0 <= b.witness_x <= math.pi
        assert self.direct_sum(vals, b.witness_x) == pytest.approx(b.lower, rel=1e-12)

    def test_symmetric_polynomial(self):
        rng = np.random.default_rng(5)
        free = rng.standard_normal(6)
        row = np.concatenate([free, free[:0:-1]])  # xi_j = xi_{n-j}, n = 11
        p = poly(row, symmetric=True)
        b = max_modulus(p, 7)
        full = float(np.abs(evaluate_on_grid(p, 7 * 11)).max())
        assert b.lower == pytest.approx(full, rel=1e-12)
        assert 0.0 <= b.witness_x <= math.pi
        assert self.direct_sum(row, b.witness_x) == pytest.approx(b.lower, rel=1e-12)


class TestPrunedGrid:
    """Rows r = 0..floor(K/2) of the decimated K n grid against the padded full grid."""

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9, 64, 65])
    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_matches_full_grid(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        vals = rng.standard_normal(n)
        b = max_modulus(poly(vals), k)
        full = float(np.abs(evaluate_on_grid(poly(vals), k * n)).max())
        assert abs(b.lower - full) <= 1e-14 * full
        assert 0.0 <= b.witness_x <= math.pi
        assert TestHalfSpectrumGrid.direct_sum(vals, b.witness_x) == pytest.approx(
            b.lower, rel=1e-13)

    @pytest.mark.parametrize("k", [6, 8, 64])
    def test_maximum_on_self_mirrored_row(self, k):
        # |W|^2 = 19 + 12 cos x - 6 cos 2x peaks only at x = pi/3 = pi/n, grid
        # point q = K/2, which lies on row r = K/2 and is its own mirror row
        b = max_modulus(poly([1.0, -3.0, -3.0]), k)
        assert abs(b.lower - math.sqrt(28.0)) <= 1e-14 * math.sqrt(28.0)
        assert b.witness_x == pytest.approx(math.pi / 3, rel=1e-15)

    @pytest.mark.parametrize("k, n", [(6, 2), (64, 16), (8, 3), (64, 17), (5, 4)])
    def test_alternating_peaks_at_pi(self, k, n):
        # W(pi) = n is the maximum, at q = K n / 2 (row K/2 when n is odd)
        b = max_modulus(poly((-1.0) ** np.arange(n)), k)
        assert abs(b.lower - n) <= 1e-14 * n
        assert b.witness_x == pytest.approx(math.pi, rel=1e-15)

    def test_twiddle_cache_is_read_only(self):
        tw = _twiddles(17, 8)
        assert tw is _twiddles(17, 8)
        assert tw.shape == (5, 17)
        with pytest.raises(ValueError):
            tw[1, 1] = 0.0


class TestSymmetricSpectrum:
    def test_symmetric_polynomial_real_at_roots_of_unity(self):
        rng = np.random.default_rng(8)
        n = 9
        free = rng.standard_normal(n // 2 + 1)
        spec = SymmetricCirculantSpec(n, CoefficientSequence(free))
        lam = symmetric_circulant_eigenvalues(spec)
        from circulab.matrices import expand_symmetric_circulant

        row = expand_symmetric_circulant(spec).first_row.values
        vals = evaluate_on_grid(poly(row, symmetric=True), n)
        assert np.abs(vals.imag).max() <= 1e-10
        assert np.allclose(vals.real, lam, atol=1e-10)


class TestSalemZygmundRatio:
    def test_all_ones_algebra(self):
        n = 16
        b = max_modulus(poly(np.ones(n)))
        lo, hi = salem_zygmund_ratio(b, n)
        assert lo == pytest.approx(n / math.sqrt(n * math.log(n)), rel=1e-12)
        assert hi == pytest.approx(lo / (1.0 - math.pi / 64.0), rel=1e-12)

    def test_zero_bracket(self):
        b = MaxModulusBracket(0.0, 0.0, 64, 0.0)
        assert salem_zygmund_ratio(b, 8) == (0.0, 0.0)

    def test_needs_n_at_least_two(self):
        b = MaxModulusBracket(1.0, 2.0, 64, 0.0)
        with pytest.raises(ValueError):
            salem_zygmund_ratio(b, 1)
