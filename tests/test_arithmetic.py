import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulab import arithmetic, cli
from circulab.arithmetic import (
    CosineVectorSpec,
    condition_h_check,
    cosine_vector,
    dist_to_lattice,
    gcd_census,
    gcd_census_sweep,
    lcd_matrix2,
    lcd_vector,
    lemma_rows_to_csv,
    levy_concentration,
    sweep_cosine_full,
    sweep_cosine_half,
    verify_cosine_distance_full,
    verify_cosine_distance_half,
    vk_matrix,
)

small_floats = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


class TestDistToLattice:
    def test_hand_example(self):
        assert dist_to_lattice([0.4, 1.6]) == pytest.approx(math.sqrt(0.32))

    def test_integer_vector(self):
        assert dist_to_lattice([3.0, -7.0, 0.0]) == 0.0

    def test_half_integer_worst_case(self):
        assert dist_to_lattice([0.5, 0.5, 0.5]) == pytest.approx(math.sqrt(3) / 2)

    @given(st.lists(small_floats, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_cube(self, vec):
        v = np.asarray(vec)
        base = np.floor(v)
        best = math.inf
        for offsets in itertools.product((0.0, 1.0), repeat=len(vec)):
            cand = base + np.asarray(offsets)
            best = min(best, float(np.linalg.norm(v - cand)))
        assert dist_to_lattice(v) == pytest.approx(best, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dist_to_lattice([np.inf])


class TestLcdVector:
    def test_all_ones_witness_near_one(self):
        v = np.ones(16)
        est = lcd_vector(v, L=2.0)
        assert est.lower_bound >= 0.5 - 1e-12
        assert est.upper_witness is not None
        assert est.upper_witness <= 1.0 + est.search_resolution
        # witness satisfies the defining inequality strictly
        theta = est.upper_witness
        lhs = dist_to_lattice(theta * v)
        rhs = 2.0 * math.sqrt(max(math.log(np.linalg.norm(theta * v) / 2.0), 0.0))
        assert lhs < rhs
        assert est.witness_distance == pytest.approx(lhs)

    def test_simple_bound_always_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.standard_normal(rng.integers(1, 12))
            if not np.any(v):
                continue
            est = lcd_vector(v, L=1.5, theta_max=2.0, step=1e-2)
            assert est.lower_bound >= 1.0 / (2.0 * np.abs(v).max()) - 1e-12

    def test_strict_inequality_boundary_case(self):
        # v = (0.5), L = 1: theta = 2 gives dist 0 and rhs 0; strict < fails
        est = lcd_vector(np.array([0.5]), L=1.0, theta_max=2.5, step=1e-3)
        if est.upper_witness is not None:
            assert est.upper_witness > 2.0 + 1e-6

    def test_witness_found_just_past_boundary(self):
        # right above theta = 2 the distance grows like delta/2 but the right
        # side grows like sqrt(delta/2), so the infimum 2 is approached from
        # above and the first grid point past it is a strict witness
        est = lcd_vector(np.array([0.5]), L=1.0, theta_max=5.0, step=1e-3)
        assert est.upper_witness is not None
        assert 2.0 < est.upper_witness <= 2.0 + 5e-3

    def test_lower_bound_below_witness(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        est = lcd_vector(v, L=2.0)
        if est.upper_witness is not None:
            assert est.lower_bound <= est.upper_witness + 1e-12

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            lcd_vector(np.ones(4), L=1.0, theta_max=0.1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            lcd_vector(np.zeros(3), L=1.0)


class TestLcdMatrix2:
    def test_vk_simple_bound(self):
        vmat, _ = vk_matrix(16, 1)
        est = lcd_matrix2(vmat, L=2.0, r_max=1.2, r_step=2e-2)
        # columns have norm <= 1, so the certified bound is at least 1/2
        assert est.lower_bound >= 0.5 - 1e-12

    def test_degenerate_single_direction(self):
        # only the first column is nonzero: reduces to the vector case on (1,)
        vmat = np.zeros((2, 5))
        vmat[0, 0] = 1.0
        est2 = lcd_matrix2(vmat, L=2.0, r_max=4.0, r_step=1e-2)
        est1 = lcd_vector(np.array([1.0]), L=2.0, theta_max=4.0, step=1e-2)
        assert est1.upper_witness is not None and est2.upper_witness is not None
        assert np.linalg.norm(est2.upper_witness) == pytest.approx(est1.upper_witness, rel=5e-2)

    def test_witness_from_fine_grid_oracle(self):
        # n=12, k=1, L=2: r=2 along phi=0 satisfies the inequality (fine grid confirms)
        vmat, _ = vk_matrix(12, 1)
        est = lcd_matrix2(vmat, L=2.0, r_max=3.0, r_step=5e-3, phi_step=2 * math.pi / 360)
        assert est.upper_witness is not None
        r = float(np.linalg.norm(est.upper_witness))
        assert r <= 2.0 + 1e-2
        proj = vmat.T @ est.upper_witness
        lhs = dist_to_lattice(proj)
        rhs = 2.0 * math.sqrt(max(math.log(np.linalg.norm(proj) / 2.0), 0.0))
        assert lhs < rhs


class TestVkMatrix:
    @pytest.mark.parametrize("n,k,expected", [(4, 1, 4.0), (8, 3, 16.0), (6, 2, 9.0)])
    def test_det_identity_examples(self, n, k, expected):
        _, det = vk_matrix(n, k)
        assert det == pytest.approx(expected, rel=1e-9)
        assert det == pytest.approx(n * n / 4.0, rel=1e-9)

    def test_rows_are_cos_sin(self):
        v, _ = vk_matrix(8, 1)
        j = np.arange(8)
        assert np.allclose(v[0], np.cos(2 * np.pi * j / 8))
        assert np.allclose(v[1], np.sin(2 * np.pi * j / 8))

    def test_degenerate_k_rejected(self):
        with pytest.raises(ValueError):
            vk_matrix(8, 0)
        with pytest.raises(ValueError):
            vk_matrix(8, 4)
        with pytest.raises(ValueError):
            vk_matrix(8, 8)

    def test_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(3, 500))
            k = int(rng.integers(1, n))
            if 2 * k == n:
                continue
            _, det = vk_matrix(n, k)
            assert det == pytest.approx(n * n / 4.0, rel=1e-9)


class TestCosineVector:
    def test_full_quarter_turn(self):
        spec = CosineVectorSpec(n=4, k=1, theta=0.0, r=1.0)
        assert np.allclose(cosine_vector(spec), [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_half_range_k0_all_ones(self):
        spec = CosineVectorSpec(n=8, k=0, half_range=True)
        assert np.allclose(cosine_vector(spec), np.ones(3))

    def test_matches_directly_computed_entries(self):
        spec = CosineVectorSpec(n=11, k=3, theta=0.7, r=2.5)
        v = cosine_vector(spec)
        for j in range(11):
            assert v[j] == pytest.approx(2.5 * math.cos(2 * math.pi * 3 * j / 11 - 0.7), abs=1e-14)


class TestCosineDistanceFull:
    def test_holds_with_margin(self):
        chk = verify_cosine_distance_full(CosineVectorSpec(n=1000, k=1, theta=0.0, r=2.0))
        assert chk.applicable and chk.holds
        assert chk.margin > 0
        assert chk.bound == pytest.approx(1000 / (96 * math.pi))

    def test_precondition_window(self):
        # m=50, r=2: 1/(2r 2pi x) = 50/(8 pi) < 6 -> not applicable
        chk = verify_cosine_distance_full(CosineVectorSpec(n=50, k=1, theta=0.0, r=2.0))
        assert not chk.applicable
        assert chk.holds is None

    def test_r_below_two_not_applicable(self):
        chk = verify_cosine_distance_full(CosineVectorSpec(n=1000, k=1, theta=0.0, r=1.0))
        assert not chk.applicable

    def test_sweep_no_violations_small(self):
        rows = sweep_cosine_full(500, range(2, 7), 36)
        applicable = [r for r in rows if r["applicable"]]
        assert applicable
        assert all(r["holds"] for r in applicable)


class TestCosineDistanceHalf:
    def test_holds_n2000(self):
        chk = verify_cosine_distance_half(2000, 3, 1.0)
        assert chk.applicable and chk.holds
        assert chk.bound == pytest.approx(2000 / (1728 * math.pi))

    def test_window_fails_small_n(self):
        # n=100, r=1: needs n/(72 pi) >= 1, i.e. n >= 227
        chk = verify_cosine_distance_half(100, 1, 1.0)
        assert not chk.applicable

    def test_gcd_reduction(self):
        # gcd(2000, 40) = 40 shrinks the window; r=1 needs n/gcd >= 72 pi ~ 226
        chk = verify_cosine_distance_half(2000, 40, 1.0)
        assert not chk.applicable
        chk2 = verify_cosine_distance_half(2000, 8, 1.0)  # gcd 8, n' = 250 > 226
        assert chk2.applicable and chk2.holds

    def test_sweep_no_violations_small(self):
        rows = sweep_cosine_half(600, range(1, 20), [1.0, 2.0])
        applicable = [r for r in rows if r["applicable"]]
        assert applicable
        assert all(r["holds"] for r in applicable)

    def test_rows_export(self, tmp_path):
        rows = sweep_cosine_half(600, range(1, 4), [1.0])
        path = tmp_path / "sweep.csv"
        counts = lemma_rows_to_csv(iter(rows), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "case_id,n,k,r,applicable,holds,margin"
        assert len(lines) == len(rows) + 1
        applicable = [r for r in rows if r["applicable"]]
        assert counts == (len(rows), len(applicable),
                          sum(r["holds"] is False for r in applicable))

    def test_rows_export_counts_violations(self, tmp_path):
        rows = [{"case_id": c, "applicable": a, "holds": h, "margin": 0}
                for c, a, h in [("x", True, True), ("y", True, False), ("z", False, None)]]
        assert lemma_rows_to_csv(iter(rows), tmp_path / "v.csv") == (3, 2, 1)

    def test_rows_export_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            lemma_rows_to_csv(iter(()), tmp_path / "empty.csv")
        assert not (tmp_path / "empty.csv").exists()


class TestGcdCensus:
    def test_example_m12_y3(self):
        census = gcd_census(12, 3)
        assert census.exact_count == 6
        assert census.totient_sum == 6

    def test_y_one_counts_everything(self):
        for m in (1, 2, 17, 100):
            census = gcd_census(m, 1)
            assert census.exact_count == m
            assert census.totient_sum == m

    def test_y_above_m_counts_nothing(self):
        for y in (10.5, 1e300, math.inf):
            census = gcd_census(10, y)
            assert census.exact_count == 0
            assert census.totient_sum == 0

    def test_y_equal_m(self):
        census = gcd_census(10, 10)
        assert census.exact_count == 1
        assert census.totient_sum == 1

    @given(st.integers(min_value=1, max_value=2000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_random(self, m, data):
        y = data.draw(st.floats(min_value=1.0, max_value=float(m) + 2.0, allow_nan=False))
        census = gcd_census(m, y)
        assert census.exact_count == census.totient_sum
        # independent slow check
        slow = sum(1 for k in range(1, m + 1) if math.gcd(k, m) >= y)
        assert census.exact_count == slow

    def test_bound_value(self):
        census = gcd_census(1000, 5)
        b = census.bound_value(1.0)
        assert b == pytest.approx(1000 ** (1 + 1 / math.log(math.log(1000))) / 5)
        assert census.exact_count <= b

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gcd_census(0, 1)
        with pytest.raises(ValueError):
            gcd_census(5, 0.5)
        with pytest.raises(ValueError):
            gcd_census(5, math.nan)
        for max_m in (0, -5):
            with pytest.raises(ValueError, match="max_m"):
                gcd_census_sweep(max_m)

    @staticmethod
    def _np_gcd_half(m):
        return np.gcd(np.arange(1, (m - 1) // 2 + 1), m)

    def test_table_matches_np_gcd_small(self):
        for m in range(1, 3001):
            np.testing.assert_array_equal(arithmetic._gcd_table(m), self._np_gcd_half(m))

    @pytest.mark.parametrize("m", [30_030, 65_536, 65_537, 99_991, 720_720])
    def test_table_matches_np_gcd_structured(self, m):
        np.testing.assert_array_equal(arithmetic._gcd_table(m), self._np_gcd_half(m))

    def test_table_is_read_only(self):
        table = arithmetic._gcd_table(60)
        with pytest.raises(ValueError):
            table[0] = 7

    def test_census_detects_factorization_fault(self, monkeypatch):
        # The enumeration must not share the totient side's factorization:
        # dropping a prime from _factorize has to show up as a mismatch.
        caches = (arithmetic._divisors_with_phi, arithmetic._gcd_table)
        real = arithmetic._factorize
        monkeypatch.setattr(arithmetic, "_factorize", lambda m: real(m)[1:])
        for cached in caches:
            cached.cache_clear()
        try:
            census = gcd_census(60, 2)
        finally:
            for cached in caches:
                cached.cache_clear()
        assert census.exact_count == 44
        assert census.exact_count != census.totient_sum

    def test_sweep_matches_point_queries(self):
        want = [gcd_census(m, y) for m in range(1, 3001)
                for y in (1.0, 2.0, math.sqrt(m), float(m))]
        assert list(gcd_census_sweep(3000)) == want

    def test_sweep_detects_sieve_fault(self, monkeypatch, tmp_path):
        # The enumeration must not share the sweep's totient sieve: one wrong
        # phi value has to show up as a mismatch and leave the exact counts.
        good = list(gcd_census_sweep(60))
        real = arithmetic._totients

        def corrupt(n):
            phi = real(n)
            phi[7] += 1
            return phi

        monkeypatch.setattr(arithmetic, "_totients", corrupt)
        bad = list(gcd_census_sweep(60))
        assert [c.exact_count for c in bad] == [c.exact_count for c in good]
        assert any(c.exact_count != c.totient_sum for c in bad)
        argv = ["--out", str(tmp_path), "verify-lemmas", "--lemma", "gcd-census", "--max-m", "60"]
        assert cli.dispatch(argv) == cli.EXIT_VIOLATION


class TestLevyConcentration:
    def test_rademacher_half(self):
        rng = np.random.default_rng(0)
        samples = np.where(rng.random(10_000) < 0.5, 1.0, -1.0)
        est = levy_concentration(samples, 0.5)
        assert abs(est.estimate - 0.5) <= 0.05

    def test_covering_epsilon(self):
        samples = np.array([0.0, 1.0, 2.0])
        assert levy_concentration(samples, 5.0).estimate == 1.0

    def test_constant_samples(self):
        samples = np.zeros(100)
        assert levy_concentration(samples, 0.0).estimate == 1.0
        assert levy_concentration(samples, 1.0).estimate == 1.0

    def test_epsilon_zero_point_masses(self):
        samples = np.array([1.0] * 3 + [2.0] * 7)
        assert levy_concentration(samples, 0.0).estimate == 0.7

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(10)
        samples = rng.standard_normal(2000)
        eps = [0.0, 0.1, 0.5, 1.0, 3.0]
        vals = [levy_concentration(samples, e).estimate for e in eps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sum_bound_of_independent_variables(self):
        # empirical version of: concentration of X+Y never beats min of the parts
        rng = np.random.default_rng(42)
        x = rng.standard_normal(10_000)
        y = np.where(rng.random(10_000) < 0.5, 1.0, -1.0)
        for eps in (0.3, 1.0):
            lx = levy_concentration(x, eps).estimate
            ly = levy_concentration(y, eps).estimate
            lxy = levy_concentration(x + y, eps).estimate
            assert lxy <= min(lx, ly) + 0.02

    def test_custom_centers(self):
        samples = np.array([0.0, 10.0])
        est = levy_concentration(samples, 0.5, centers=np.array([10.0]))
        assert est.estimate == 0.5


class TestConditionH:
    def test_raw_rademacher_fails_clause_one(self):
        # atoms at distance exactly 2 = 2 eps sit inside the closed unit ball
        # around 0, so the concentration at radius 1 is 1, not 1/2
        rng = np.random.default_rng(1)
        samples = np.where(rng.random(5000) < 0.5, 1.0, -1.0)
        rep = condition_h_check(samples, q=0.4, M=2.0)
        assert rep.concentration_at_1 == 1.0
        assert not rep.passed

    def test_scaled_rademacher_passes(self):
        rng = np.random.default_rng(2)
        samples = 3.0 * np.where(rng.random(5000) < 0.5, 1.0, -1.0)
        rep = condition_h_check(samples, q=0.4, M=4.0)
        assert rep.passed
        assert abs(rep.concentration_at_1 - 0.5) <= 0.05
        assert rep.tail_fraction == 0.0

    def test_constant_fails(self):
        rep = condition_h_check(np.zeros(100), q=0.1, M=1.0)
        assert not rep.passed
        assert rep.concentration_at_1 == 1.0

    def test_uniform_fails_at_unit_radius(self):
        rng = np.random.default_rng(3)
        rep = condition_h_check(rng.random(5000), q=0.05, M=2.0)
        assert not rep.passed
        assert rep.concentration_at_1 == 1.0

    def test_gaussian_passes(self):
        rng = np.random.default_rng(4)
        rep = condition_h_check(rng.standard_normal(20_000), q=0.2, M=3.0)
        assert rep.passed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            condition_h_check(np.ones(3), q=0.0, M=1.0)
        with pytest.raises(ValueError):
            condition_h_check(np.ones(3), q=0.5, M=0.0)
