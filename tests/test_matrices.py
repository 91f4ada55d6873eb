import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulab.matrices import (
    CirculantSpec,
    CoefficientSequence,
    SymmetricCirculantSpec,
    ToeplitzSpec,
    embed_toeplitz,
    exchange_transform,
    expand_symmetric_circulant,
    fourier_matrix,
    materialize_circulant,
    materialize_toeplitz,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def random_toeplitz(n, rng):
    vals = rng.standard_normal(2 * n - 1)
    return ToeplitzSpec(n, CoefficientSequence(vals, index_origin=-(n - 1)))


class TestCoefficientSequence:
    def test_indexing(self):
        seq = CoefficientSequence([10.0, 20.0, 30.0], index_origin=-1)
        assert seq.xi(-1) == 10.0
        assert seq.xi(0) == 20.0
        assert seq.xi(1) == 30.0
        with pytest.raises(IndexError):
            seq.xi(2)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            CoefficientSequence([])
        with pytest.raises(ValueError):
            CoefficientSequence([1.0, np.nan])
        with pytest.raises(ValueError):
            CoefficientSequence([np.inf])

    def test_csv_roundtrip(self, tmp_path):
        seq = CoefficientSequence([0.1, -2.5, 3.25, 7.0], index_origin=-3)
        path = tmp_path / "coeffs.csv"
        seq.to_csv(path)
        back = CoefficientSequence.from_csv(path)
        assert back.index_origin == -3
        assert np.array_equal(back.values, seq.values)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            CoefficientSequence.from_csv(path)


class TestToeplitz:
    def test_single_entry(self):
        spec = ToeplitzSpec(1, CoefficientSequence([5.0], index_origin=0))
        assert materialize_toeplitz(spec).tolist() == [[5.0]]

    def test_two_by_two_definition(self):
        # xi_{-1}=c, xi_0=a, xi_1=b -> [[a, b], [c, a]]
        a, b, c = 4.0, 7.0, -2.0
        spec = ToeplitzSpec(2, CoefficientSequence([c, a, b], index_origin=-1))
        m = materialize_toeplitz(spec).real
        assert m.tolist() == [[a, b], [c, a]]

    def test_diagonals_constant(self):
        rng = np.random.default_rng(3)
        spec = random_toeplitz(3, rng)
        m = materialize_toeplitz(spec)
        for d in range(-2, 3):
            diag = np.diagonal(m, offset=d)
            assert np.all(diag == diag[0])

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_entry_depends_only_on_offset(self, n, data):
        vals = data.draw(
            st.lists(finite_floats, min_size=2 * n - 1, max_size=2 * n - 1)
        )
        spec = ToeplitzSpec(n, CoefficientSequence(vals, index_origin=-(n - 1)))
        m = materialize_toeplitz(spec)
        for i in range(n):
            for j in range(n):
                assert m[i, j] == spec.coeffs.xi(j - i)

    def test_symmetric_flag_enforced(self):
        with pytest.raises(ValueError):
            ToeplitzSpec(2, CoefficientSequence([1.0, 0.0, 2.0], index_origin=-1), symmetric=True)
        spec = ToeplitzSpec(2, CoefficientSequence([2.0, 1.0, 2.0], index_origin=-1), symmetric=True)
        m = materialize_toeplitz(spec)
        assert np.array_equal(m, m.T)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ToeplitzSpec(3, CoefficientSequence([1.0, 2.0], index_origin=-2))


class TestCirculant:
    def test_identity_row(self):
        spec = CirculantSpec(4, CoefficientSequence([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(materialize_circulant(spec).real, np.eye(4))

    def test_shift_row(self):
        spec = CirculantSpec(3, CoefficientSequence([0.0, 1.0, 0.0]))
        m = materialize_circulant(spec).real
        assert m.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_row_rotation(self):
        rng = np.random.default_rng(5)
        row = rng.standard_normal(6)
        m = materialize_circulant(CirculantSpec(6, CoefficientSequence(row))).real
        assert np.array_equal(m[1], np.roll(row, 1))

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_entry_depends_on_cyclic_offset(self, n, data):
        vals = data.draw(st.lists(finite_floats, min_size=n, max_size=n))
        spec = CirculantSpec(n, CoefficientSequence(vals))
        m = materialize_circulant(spec)
        for i in range(n):
            for j in range(n):
                assert m[i, j] == vals[(j - i) % n]

    def test_leading_columns_equal_full_slice(self):
        row = np.random.default_rng(6).standard_normal(7)
        spec = CirculantSpec(7, CoefficientSequence(row))
        full = materialize_circulant(spec)
        for k in range(1, 8):
            assert np.array_equal(materialize_circulant(spec, k), full[:, :k])

    @pytest.mark.parametrize("columns", [0, -1, 8])
    def test_columns_out_of_range_rejected(self, columns):
        spec = CirculantSpec(7, CoefficientSequence(np.ones(7)))
        with pytest.raises(ValueError, match=r"columns needs a value in \[1, 7\]"):
            materialize_circulant(spec, columns)


class TestEmbedding:
    def test_one_by_one(self):
        spec = ToeplitzSpec(1, CoefficientSequence([3.0], index_origin=0))
        emb = embed_toeplitz(spec, -1.5)
        assert emb.n == 2
        assert emb.first_row.values.tolist() == [3.0, -1.5]
        c = materialize_circulant(emb).real
        assert c.tolist() == [[3.0, -1.5], [-1.5, 3.0]]

    def test_first_row_layout_n2(self):
        a, b, c = 1.0, 2.0, 3.0
        spec = ToeplitzSpec(2, CoefficientSequence([c, a, b], index_origin=-1))
        emb = embed_toeplitz(spec, 0.0)
        assert emb.first_row.values.tolist() == [a, b, 0.0, c]
        full = materialize_circulant(emb).real
        assert full[:2, :2].tolist() == [[a, b], [c, a]]

    def test_block_structure_and_exact_recovery(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 8):
            spec = random_toeplitz(n, rng)
            xi_star = float(rng.standard_normal())
            t = materialize_toeplitz(spec)
            c = materialize_circulant(embed_toeplitz(spec, xi_star))
            # [[T, B], [B, T]] with bit-exact corners
            assert np.array_equal(c[:n, :n], t)
            assert np.array_equal(c[n:, n:], t)
            assert np.array_equal(c[:n, n:], c[n:, :n])
            b = c[:n, n:]
            assert np.all(np.diagonal(b) == xi_star)

    def test_symmetric_toeplitz_gives_symmetric_embedding(self):
        vals = np.array([2.0, -1.0, 3.0, -1.0, 2.0])
        spec = ToeplitzSpec(3, CoefficientSequence(vals, index_origin=-2), symmetric=True)
        c = materialize_circulant(embed_toeplitz(spec, 0.7))
        assert np.array_equal(c, c.T)

    def test_nonfinite_xi_star_rejected(self):
        spec = ToeplitzSpec(1, CoefficientSequence([1.0], index_origin=0))
        with pytest.raises(ValueError):
            embed_toeplitz(spec, np.nan)


class TestExchange:
    def test_two_by_two(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert exchange_transform(m).tolist() == [[3.0, 4.0], [1.0, 2.0]]

    def test_involution(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        assert np.array_equal(exchange_transform(exchange_transform(m)), m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            exchange_transform(np.zeros((2, 3)))


class TestSymmetricCirculant:
    def test_even_expansion(self):
        spec = SymmetricCirculantSpec(4, CoefficientSequence([1.0, 2.0, 3.0]))
        assert expand_symmetric_circulant(spec).first_row.values.tolist() == [1.0, 2.0, 3.0, 2.0]

    def test_odd_expansion(self):
        spec = SymmetricCirculantSpec(5, CoefficientSequence([1.0, 2.0, 3.0]))
        row = expand_symmetric_circulant(spec).first_row.values
        assert row.tolist() == [1.0, 2.0, 3.0, 3.0, 2.0]

    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matrix_is_symmetric(self, n, data):
        vals = data.draw(st.lists(finite_floats, min_size=n // 2 + 1, max_size=n // 2 + 1))
        spec = SymmetricCirculantSpec(n, CoefficientSequence(vals))
        m = materialize_circulant(expand_symmetric_circulant(spec))
        assert np.array_equal(m, m.T)


class TestFourierMatrix:
    def test_n1(self):
        assert fourier_matrix(1).tolist() == [[1.0 + 0.0j]]

    def test_n2(self):
        f = fourier_matrix(2) * np.sqrt(2)
        assert np.allclose(f, [[1, 1], [1, -1]], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64, 256])
    def test_unitary(self, n):
        f = fourier_matrix(n)
        err = np.abs(f @ f.conj().T - np.eye(n)).max()
        assert err <= 1e-12
