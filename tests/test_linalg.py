"""Dense symmetric linear algebra, validated against closed forms and LAPACK."""

import numpy as np
import pytest

from swissmc import (
    DecompositionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RngStream,
    cholesky,
    draw_gaussian,
    eigh,
    sample_inverse_wishart,
    spd_inverse,
    spd_roots,
    spsq,
)
from helpers import exact_gaussian_cloud, random_orthogonal, random_spd


class TestEigh:
    def test_identity(self):
        w, u = eigh(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose((u * w) @ u.T, np.eye(3), atol=1e-12)

    def test_two_by_two_roots(self):
        # characteristic polynomial of [[2,1],[1,2]] has roots 3 and 1
        v = np.array([[2.0, 1.0], [1.0, 2.0]])
        w, u = eigh(v)
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)
        for lam, vec in zip(w, u.T):
            assert np.linalg.norm(v @ vec - lam * vec) < 1e-10

    def test_diagonal_is_signed_permutation(self):
        w, u = eigh(np.diag([9.0, 4.0, 1.0]))
        np.testing.assert_allclose(w, [9.0, 4.0, 1.0])
        # columns of U must be +/- unit vectors; the sign convention makes
        # the largest component positive, so here U is exactly a permutation
        np.testing.assert_allclose(np.abs(u), np.eye(3), atol=1e-14)
        assert np.all(u.max(axis=0) == 1.0)

    def test_reconstruction_and_orthonormality_random(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 5, 11, 20, 40, 80):
            v = random_spd(d, rng)
            w, u = eigh(v)
            scale = max(1.0, np.max(np.abs(v)))
            assert np.max(np.abs((u * w) @ u.T - v)) <= 1e-8 * scale
            assert np.max(np.abs(u.T @ u - np.eye(d))) <= 1e-10
            assert np.all(np.diff(w) <= 1e-12)  # sorted descending

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 16))
            v = random_spd(d, rng, jitter=0.01)
            w, _ = eigh(v)
            ref = np.sort(np.linalg.eigvalsh(v))[::-1]
            np.testing.assert_allclose(w, ref, rtol=1e-10, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        v = random_spd(12, rng)
        w1, u1 = eigh(v)
        w2, u2 = eigh(v)
        assert np.array_equal(w1, w2)
        assert np.array_equal(u1, u2)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_lapack_failure_is_decomposition_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(DecompositionError, match="did not converge"):
            eigh(np.eye(2))

    def test_ill_conditioned_spectrum(self):
        # condition number 1e10: eigenvalues must still come back accurately
        rng = np.random.default_rng(101)
        target = np.array([1.0, 1e-2, 1e-5, 1e-10])
        basis = random_orthogonal(4, rng)
        v = (basis * target) @ basis.T
        w, u = eigh((v + v.T) / 2)
        np.testing.assert_allclose(w, target, rtol=1e-8, atol=1e-14)
        np.testing.assert_allclose((u * w) @ u.T, (v + v.T) / 2, atol=1e-12)

    def test_clustered_eigenvalues(self):
        rng = np.random.default_rng(103)
        target = np.array([2.0, 2.0, 2.0, 0.5, 0.5])
        basis = random_orthogonal(5, rng)
        v = (basis * target) @ basis.T
        w, u = eigh((v + v.T) / 2)
        np.testing.assert_allclose(np.sort(w)[::-1], target, rtol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-10)


class TestSpsq:
    def test_identity(self):
        np.testing.assert_allclose(spsq(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(spsq(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_two_by_two_closed_form(self):
        v = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = spsq(v)
        r3 = np.sqrt(3.0)
        expected = np.array([[(r3 + 1) / 2, (r3 - 1) / 2], [(r3 - 1) / 2, (r3 + 1) / 2]])
        np.testing.assert_allclose(m, expected, atol=1e-12)
        assert np.max(np.abs(m @ m - v)) < 1e-10
        assert np.array_equal(m, m.T)
        assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_square_root_property_random(self):
        rng = np.random.default_rng(11)
        for d in range(2, 21):
            v = random_spd(d, rng, jitter=0.05)
            m = spsq(v)
            scale = np.max(np.abs(v))
            assert np.max(np.abs(m @ m - v)) <= 1e-8 * scale
            assert np.array_equal(m, m.T)
            assert np.min(np.linalg.eigvalsh(m)) > 0

    def test_not_spd_raises_and_names_eigenvalue(self):
        v = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
            spsq(v)

    def test_singular_raises(self):
        ones = np.ones((3, 3))
        with pytest.raises(NotPositiveDefiniteError):
            spsq(ones)

    def test_relative_tolerance_boundary(self):
        # an eigenvalue at 1e-13 of the largest sits below the 1e-12 floor
        v = np.diag([1.0, 1e-13])
        with pytest.raises(NotPositiveDefiniteError):
            spsq(v)
        near = spsq(np.diag([1.0, 1e-11]))  # above the floor: fine
        np.testing.assert_allclose(near, np.diag([1.0, np.sqrt(1e-11)]), rtol=1e-10)


class TestSpdRoots:
    def test_root_and_inverse_agree(self):
        rng = np.random.default_rng(5)
        v = random_spd(7, rng)
        root, inv_root = spd_roots(v)
        np.testing.assert_allclose(root @ root, v, atol=1e-10 * np.max(np.abs(v)))
        np.testing.assert_allclose(root @ inv_root, np.eye(7), atol=1e-9)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_hand_worked_two_by_two(self):
        # L00 = 2, L10 = 2/2 = 1, L11 = sqrt(5 - 1) = 2
        v = np.array([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(cholesky(v), np.array([[2.0, 0.0], [1.0, 2.0]]), atol=1e-14)

    def test_factor_property_random(self):
        rng = np.random.default_rng(13)
        for d in (2, 5, 9, 17):
            v = random_spd(d, rng)
            lower = cholesky(v)
            scale = np.max(np.abs(v))
            assert np.max(np.abs(lower @ lower.T - v)) <= 1e-8 * scale
            assert np.all(np.diag(lower) > 0)
            assert np.max(np.abs(np.triu(lower, 1))) == 0.0

    def test_not_spd_raises(self):
        with pytest.raises(NotPositiveDefiniteError, match="pivot"):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_two_by_two_closed_form(self):
        v = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        inv = spd_inverse(v)
        np.testing.assert_allclose(inv, expected, atol=1e-12)
        np.testing.assert_allclose(v @ inv, np.eye(2), atol=1e-12)

    def test_product_with_input_random(self):
        rng = np.random.default_rng(17)
        for d in (2, 6, 12, 25):
            v = random_spd(d, rng)
            inv = spd_inverse(v)
            assert np.max(np.abs(v @ inv - np.eye(d))) <= 1e-8
            assert np.array_equal(inv, inv.T)

    def test_double_inverse_round_trip(self):
        rng = np.random.default_rng(19)
        for d in (2, 8, 15):
            v = random_spd(d, rng)
            back = spd_inverse(spd_inverse(v))
            assert np.max(np.abs(back - v)) <= 1e-6 * np.max(np.abs(v))

    def test_not_spd_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_inverse(np.zeros((2, 2)))


class TestTraceOptimality:
    """The symmetric root has the largest trace among all square roots."""

    def test_trace_dominates_rotated_roots_and_cholesky(self):
        rng = np.random.default_rng(23)
        for d in (2, 4, 7):
            v = random_spd(d, rng)
            root = spsq(v)
            best = np.trace(root)
            assert np.trace(cholesky(v)) <= best + 1e-9
            for _ in range(100):
                o = random_orthogonal(d, rng)
                assert np.trace(root @ o) <= best + 1e-9

    def test_random_orthogonal_is_orthogonal(self):
        rng = np.random.default_rng(29)
        for d in (2, 5, 9):
            o = random_orthogonal(d, rng)
            np.testing.assert_allclose(o @ o.T, np.eye(d), atol=1e-12)


class TestInverseWishart:
    def test_one_dimensional_reduction(self):
        # d = 1: the draw is scale / chi2(df), matching a fresh stream
        scale = 2.5
        df = 9.0
        draw = sample_inverse_wishart(df, [[scale]], RngStream(101, 0).generator())
        expected = scale / RngStream(101, 0).generator().chisquare(df)
        np.testing.assert_allclose(draw[0, 0], expected, rtol=1e-12)

    def test_mean_matches_formula(self):
        # E[X] = scale / (df - d - 1); d=2, df=10 -> I/7
        rng = RngStream(7, 1).generator()
        n = 50_000
        draws = np.empty((n, 2, 2))
        for i in range(n):
            draws[i] = sample_inverse_wishart(10.0, np.eye(2), rng)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        target = np.eye(2) / 7.0
        assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)

    def test_deterministic_given_stream(self):
        a = sample_inverse_wishart(12.0, np.eye(3), RngStream(5, 2).generator())
        b = sample_inverse_wishart(12.0, np.eye(3), RngStream(5, 2).generator())
        assert np.array_equal(a, b)

    def test_spd_output(self):
        rng = RngStream(1, 0).generator()
        for _ in range(50):
            draw = sample_inverse_wishart(15.0, random_spd(3, rng), rng)
            assert np.min(np.linalg.eigvalsh(draw)) > 0

    def test_invalid_df_raises(self):
        with pytest.raises(InvalidInputError, match="df"):
            sample_inverse_wishart(1.5, np.eye(3), RngStream(0, 0).generator())


class TestDrawGaussian:
    def test_moments_converge(self):
        rng = RngStream(31, 0).generator()
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        draws = draw_gaussian([1.0, -2.0], cov, 200_000, rng)
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T, ddof=1), cov, atol=0.03)

    def test_match_moments_is_exact(self):
        rng = RngStream(37, 0).generator()
        mean = np.array([0.5, -1.0, 2.0])
        cov = random_spd(3, np.random.default_rng(2))
        draws = exact_gaussian_cloud(mean, cov, 500, rng)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=1e-12)
        centered = draws - draws.mean(axis=0)
        np.testing.assert_allclose(centered.T @ centered / 499, cov, atol=1e-12)
