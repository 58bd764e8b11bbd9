import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from cdfilter import (
    LinearSystem,
    NotPositiveSemiDefinite,
    NotSymmetric,
    SingularFactor,
    cholesky_lower,
    cubature_points,
    lyapunov_oracle,
    solve_lower_right,
    solve_transpose,
    tria,
)


class TestCholeskyLower:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(2)), np.eye(2))

    def test_zero_matrix(self):
        np.testing.assert_array_equal(cholesky_lower(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_frozen_2x2(self):
        L = cholesky_lower([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(
            L, [[1.4142135, 0.0], [0.7071068, 1.2247449]], atol=1e-6)
        np.testing.assert_allclose(L @ L.T, [[2, 1], [1, 2]], rtol=1e-12)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_lower([[1.0, 0.5], [0.0, 1.0]])

    def test_not_psd(self):
        with pytest.raises(NotPositiveSemiDefinite):
            cholesky_lower([[1.0, 0.0], [0.0, -1.0]])

    def test_singular_psd_accepted(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        L = cholesky_lower(sigma)
        np.testing.assert_allclose(L @ L.T, sigma, atol=1e-14)

    def test_idempotent_on_canonical_factors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.integers(1, 6)
            L = np.tril(rng.standard_normal((d, d)))
            np.fill_diagonal(L, np.abs(np.diag(L)) + 0.1)
            np.testing.assert_allclose(cholesky_lower(L @ L.T), L, rtol=1e-9, atol=1e-12)


class TestTria:
    def test_identity(self):
        np.testing.assert_array_equal(tria(np.eye(2)), np.eye(2))

    def test_row_vector(self):
        np.testing.assert_allclose(tria(np.array([[3.0, 4.0]])), [[5.0]])

    def test_already_triangular(self):
        M = np.array([[2.0, 0.0], [1.0, 3.0]])
        A = np.hstack([M, np.zeros((2, 2))])
        np.testing.assert_allclose(tria(A), M, atol=1e-14)

    def test_covariance_preserving_bulk(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(d, 4 * d + 1))
            A = rng.standard_normal((d, n))
            L = tria(A)
            assert np.allclose(np.triu(L, 1), 0.0)
            assert np.all(np.diag(L) >= 0.0)
            target = A @ A.T
            assert np.linalg.norm(L @ L.T - target) <= 1e-11 * np.linalg.norm(target)

    def test_rank_deficient(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        L = tria(A)
        np.testing.assert_allclose(L @ L.T, A @ A.T, atol=1e-14)

    def test_too_few_columns(self):
        with pytest.raises(ValueError):
            tria(np.ones((3, 2)))

    def test_tria_equals_numpy_qr(self):
        # the numpy QR route tria replaced: R of A.T, transposed, sign-fixed
        def reference(a):
            d = a.shape[0]
            L = np.linalg.qr(a.T, mode="r").T[:d, :d].copy()
            signs = np.sign(np.diag(L))
            signs[signs == 0.0] = 1.0
            return L * signs[np.newaxis, :]

        rng = np.random.default_rng(4)
        cases = [np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                 np.zeros((3, 5)), -np.eye(4), np.array([[-0.0, 1.0], [0.0, -2.0]])]
        for _ in range(500):
            d = int(rng.integers(1, 9))
            A = rng.standard_normal((d, int(rng.integers(d, d + 31))))
            A[:, rng.random(A.shape[1]) < 0.2] = 0.0    # some zero columns
            cases.append(A)
        for A in cases:
            # to the bit, signed zeros included
            assert tria(A).tobytes() == reference(A).tobytes()


class TestCubaturePoints:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(8)
        tiny = np.nextafter(0.0, 1.0)    # the smallest subnormal
        for d in range(1, 9):
            for _ in range(50):
                yield rng.standard_normal(d), rng.standard_normal((d, d))
            # signed zeros and subnormals in the mean and in the factor
            specials = np.array([0.0, -0.0, tiny, -tiny, 3.0 * tiny, -1e-310])
            yield (rng.choice(specials, d),
                   rng.choice(specials, (d, d)))
            yield (rng.standard_normal(d),
                   np.where(rng.random((d, d)) < 0.5, rng.choice(specials, (d, d)),
                            rng.standard_normal((d, d))))

    def test_equals_both_old_layouts(self):
        # rows as the cubature time-update built them, columns as the
        # measurement update did: to the bit, signed zeros included
        for mean, M in self._cases():
            d = mean.shape[0]
            points, offsets = cubature_points(mean, M)
            assert points.shape == offsets.shape == (2 * d, d)
            spread = np.sqrt(d) * M.T
            rows = np.concatenate([mean + spread, mean - spread])
            assert points.tobytes() == rows.tobytes()
            cols = np.sqrt(d) * np.concatenate([M, -M], axis=1)
            assert np.ascontiguousarray(offsets.T).tobytes() == cols.tobytes()
            col_points = mean[:, None] + cols
            assert np.ascontiguousarray(points.T).tobytes() == col_points.tobytes()

    def test_moments(self):
        # equal weights 1/(2d) reproduce the mean and M M^T exactly in
        # exact arithmetic
        rng = np.random.default_rng(9)
        for d in range(1, 9):
            mean, M = rng.standard_normal(d), rng.standard_normal((d, d))
            points, offsets = cubature_points(mean, M)
            np.testing.assert_allclose(points.mean(axis=0), mean, atol=1e-14)
            np.testing.assert_allclose(offsets.T @ offsets / (2 * d), M @ M.T,
                                       atol=1e-13)


class TestSolveTranspose:
    def test_identity(self):
        np.testing.assert_array_equal(solve_transpose(np.eye(2), np.eye(2)), np.eye(2))

    def test_diagonal_scaling(self):
        X = solve_transpose(2.0 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(X, 0.5 * np.eye(2))

    def test_random_residual(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        K = rng.standard_normal((3, 3))
        X = solve_transpose(M, K)
        assert np.linalg.norm(X @ M.T - K) <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularFactor):
            solve_transpose(np.array([[1.0, 0.0], [1.0, 0.0]]), np.eye(2))

    @pytest.mark.parametrize("m", [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_exactly_singular_raises_without_warning(self, m):
        # under warnings-as-errors a warning would escape in place of the
        # SingularFactor an adaptive step is rejected on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularFactor):
                solve_transpose(m, np.eye(m.shape[0]))

    def test_equals_scipy_lu_solve(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            d = int(rng.integers(1, 9))
            M = rng.standard_normal((d, d))
            K = rng.standard_normal((d, d))
            lu, piv = lu_factor(M, check_finite=False)
            want = lu_solve((lu, piv), K.T, check_finite=False).T
            assert np.array_equal(solve_transpose(M, K), want)


class TestSolveLowerRight:
    def test_random_residual(self):
        rng = np.random.default_rng(5)
        L = np.tril(rng.standard_normal((3, 3))) + 3.0 * np.eye(3)
        B = rng.standard_normal((7, 3))
        X = solve_lower_right(L, B)
        assert np.linalg.norm(X @ L - B) <= 1e-10

    def test_equals_scipy_solve_triangular(self):
        # the call measurement_update made before: L the leading block of
        # a larger lower-triangular C-ordered matrix, B the block below it
        rng = np.random.default_rng(6)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            rows = d + int(rng.integers(1, 9))
            T = np.tril(rng.standard_normal((rows, rows)))
            T[np.diag_indices(rows)] = np.abs(np.diag(T)) + 0.5
            L, B = T[:d, :d], T[d:, :d]
            want = solve_triangular(L.T, B.T, lower=False).T
            got = solve_lower_right(L, B)
            assert got.tobytes() == want.tobytes()


class TestLyapunovOracle:
    def test_frozen_system(self):
        sys = LinearSystem(J=np.zeros((2, 2)), K=np.zeros((2, 2)))
        s0 = np.array([[2.0, 1.0], [1.0, 2.0]])
        x, s = lyapunov_oracle(sys, np.array([1.0, -1.0]), s0, 5.0)
        np.testing.assert_allclose(x, [1.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(s, s0, atol=1e-10)

    def test_pure_diffusion(self):
        sys = LinearSystem(J=np.zeros((2, 2)), K=np.eye(2))
        _, s = lyapunov_oracle(sys, np.zeros(2), np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-10)

    def test_tolerance_consistency(self):
        # the linear benchmark system; two tolerances must agree
        sys = LinearSystem(J=np.array([[0.0, 0.1], [0.0, 0.0]]),
                           K=2.0 * np.array([[0.5, 0.25], [0.25, 1.5]]))
        s0 = np.array([[2.0, 1.0], [1.0, 2.0]])
        tol = 1e-8
        _, s1 = lyapunov_oracle(sys, np.zeros(2), s0, 10.0, tol)
        _, s2 = lyapunov_oracle(sys, np.zeros(2), s0, 10.0, tol / 100)
        assert np.abs(s1 - s2).max() <= 50 * tol
        assert np.abs(s1 - s1.T).max() <= 1e-12
