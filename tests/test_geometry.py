"""SPD geometry tests: covariances, metric ops, Karcher mean, tangent vectors, MDRM."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from conftest import random_invertible, random_spd, random_symmetric

from spd_bci import geometry
from spd_bci.data import SynthSpec, synth_spd_classes
from spd_bci.errors import NumericalError
from spd_bci.filters import uniform_bands
from spd_bci.geometry import (
    MdrmClassifier,
    airm_distance,
    euclidean_mean,
    exp_map,
    expm,
    invsqrtm,
    log_map,
    logm,
    pca_spatial_filter,
    reduce_covariance,
    reduce_signal,
    ridge_regularize,
    riemannian_mean,
    scm,
    sqrtm,
    tangent_dimension,
    tangent_vectorize,
    upper_vectorize,
)
from spd_bci.pipeline import fit_spatial_reducers, spatial_features_for

BANDS = uniform_bands(8.0, 40.0, 8.0)  # 4 bands; a band failure names its edges from these


def diag_distance(a, b):
    """Closed-form geodesic distance between diagonal SPD matrices."""
    return np.sqrt(np.sum(np.log(np.diag(b) / np.diag(a)) ** 2))


def generalized_distance(c1, c2):
    """Independent distance via generalized eigenvalues (scipy)."""
    return np.sqrt(np.sum(np.log(scipy.linalg.eigvalsh(c2, c1)) ** 2))


class TestScm:
    def test_rank_one_trial(self):
        x = np.array([[1.0, -1.0], [1.0, -1.0]])
        np.testing.assert_allclose(scm(x), [[2.0, 2.0], [2.0, 2.0]])

    def test_identity_trial(self):
        np.testing.assert_allclose(scm(np.eye(2)), np.eye(2))

    def test_estimation_error_shrinks_like_inverse_sqrt_t(self):
        # Monte-Carlo oracle: mean Frobenius error over many trials at two T's.
        rng = np.random.default_rng(0)
        sigma = np.diag([2.0, 1.0, 0.5, 1.5])
        mixer = np.linalg.cholesky(sigma)

        def mean_error(t, trials=1000):
            errs = []
            for _ in range(trials):
                x = mixer @ rng.standard_normal((4, t))
                errs.append(np.linalg.norm(scm(x) - sigma))
            return np.mean(errs)

        err_100 = mean_error(100)
        err_400 = mean_error(400)
        assert err_400 == pytest.approx(err_100 / 2.0, rel=0.15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            scm(np.array([[1.0, np.nan], [0.0, 1.0]]))

    # One trial's (bands, channels, samples) stack at the seed, bci2a and lstm-train shapes.
    @pytest.mark.parametrize("shape", [(5, 62, 1600), (25, 22, 1000), (4, 8, 1600)])
    def test_stack_gives_the_per_matrix_bits(self, shape):
        x = np.random.default_rng(3).standard_normal(shape)
        per_matrix = np.stack([scm(band) for band in x])
        assert np.array_equal(scm(x), per_matrix)
        assert np.array_equal(
            ridge_regularize(per_matrix), np.stack([ridge_regularize(c) for c in per_matrix])
        )

    @pytest.mark.parametrize("samples, message", [
        (np.where(np.arange(3)[:, None, None] == 2, np.nan, np.ones((3, 4, 50))), "finite"),
        (np.ones((3, 4, 1)), "two samples"),
        (np.ones(50), "channels x samples"),
    ], ids=["non-finite-band", "one-sample", "one-dimensional"])
    def test_stack_errors_are_the_matrix_errors(self, samples, message):
        with pytest.raises(ValueError, match=message):
            scm(samples)


class TestEuclideanMean:
    def test_mean_of_identical_matrices(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(euclidean_mean([a, a]), a)

    def test_arithmetic(self):
        mean = euclidean_mean([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])])
        np.testing.assert_allclose(mean, np.diag([1.25, 1.25]))

    def test_swelling_effect(self):
        # The arithmetic mean's determinant exceeds every input's.
        mats = [np.diag([2.0, 0.5]), np.diag([0.5, 2.0])]
        mean_det = np.linalg.det(euclidean_mean(mats))
        assert mean_det == pytest.approx(1.5625)
        assert all(mean_det > np.linalg.det(m) for m in mats)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            euclidean_mean(np.empty((0, 2, 2)))


class TestPcaSpatialFilter:
    def test_diagonal_eigenstructure(self):
        mats = [np.diag([3.0, 2.0, 1.0])] * 4
        w = pca_spatial_filter(mats, 2)
        reduced = reduce_covariance(w, mats[0])
        np.testing.assert_allclose(reduced, np.diag([3.0, 2.0]), atol=1e-12)
        np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-10)

    def test_full_rank_is_similarity(self):
        rng = np.random.default_rng(1)
        mats = [random_spd(rng, 5) for _ in range(6)]
        w = pca_spatial_filter(mats, 5)
        np.testing.assert_allclose(w.T @ w, np.eye(5), atol=1e-10)
        for m in mats:
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(reduce_covariance(w, m))),
                np.sort(np.linalg.eigvalsh(m)),
                rtol=1e-9,
            )

    def test_retained_variance_matches_eigensum_oracle(self):
        # Brute-force oracle: eigendecomposition of the average covariance.
        rng = np.random.default_rng(2)
        mats = np.stack([random_spd(rng, 6, 0.2, 3.0) for _ in range(10)])
        mean = mats.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(mean))[::-1]
        for rank in (1, 3, 6):
            w = pca_spatial_filter(mats, rank)
            retained = np.trace(reduce_covariance(w, mean))
            assert retained / np.trace(mean) == pytest.approx(
                eigvals[:rank].sum() / eigvals.sum(), rel=1e-9
            )

    def test_rank_out_of_range(self):
        mats = [np.eye(3)]
        for rank in (0, 4):
            with pytest.raises(ValueError, match="rank"):
                pca_spatial_filter(mats, rank)

    def test_reduce_signal_shapes(self):
        rng = np.random.default_rng(3)
        mats = [random_spd(rng, 4) for _ in range(3)]
        w = pca_spatial_filter(mats, 2)
        x = rng.standard_normal((4, 50))
        assert reduce_signal(w, x).shape == (2, 50)
        np.testing.assert_array_equal(reduce_signal(w, np.zeros((4, 10))), 0.0)
        with pytest.raises(ValueError, match="channels"):
            reduce_signal(w, rng.standard_normal((5, 50)))


class TestMatrixFunctions:
    def test_logm_identity_is_zero(self):
        np.testing.assert_allclose(logm(np.eye(3)), 0.0, atol=1e-14)

    def test_logm_diagonal(self):
        np.testing.assert_allclose(
            logm(np.diag([np.e**2, 1.0])), np.diag([2.0, 0.0]), atol=1e-12
        )

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = random_spd(rng, 5, 0.1, 5.0)
            back = expm(logm(c))
            assert np.linalg.norm(back - c) / np.linalg.norm(c) < 1e-10

    def test_invsqrtm_inverts_sqrtm(self):
        rng = np.random.default_rng(5)
        c = random_spd(rng, 4)
        np.testing.assert_allclose(invsqrtm(c) @ sqrtm(c), np.eye(4), atol=1e-10)

    def test_near_singular_rejected(self):
        with pytest.raises(NumericalError, match="positive definite"):
            logm(np.diag([1.0, 1e-15]))
        with pytest.raises(NumericalError):
            invsqrtm(np.diag([1.0, 0.0]))

    def test_expm_accepts_indefinite_symmetric(self):
        # Tangent matrices are symmetric but not positive definite.
        np.testing.assert_allclose(
            expm(np.diag([1.0, -1.0])), np.diag([np.e, 1.0 / np.e]), rtol=1e-12
        )

    def test_ridge_rescues_semidefinite_matrix(self):
        rank_deficient = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(NumericalError):
            logm(rank_deficient)
        repaired = ridge_regularize(rank_deficient, gamma=1e-8)
        assert np.all(np.isfinite(logm(repaired)))
        # A well-conditioned matrix moves only at the gamma scale.
        c = np.diag([2.0, 1.0])
        assert np.linalg.norm(ridge_regularize(c) - c) < 1e-7


class TestAirmDistance:
    def test_scaled_identity(self):
        assert airm_distance(np.eye(2), np.e * np.eye(2)) == pytest.approx(np.sqrt(2.0))

    def test_diagonal_pair(self):
        assert airm_distance(np.diag([1.0, 1.0]), np.diag([4.0, 1.0])) == pytest.approx(
            np.log(4.0)
        )

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        c = random_spd(rng, 4)
        assert airm_distance(c, c) == pytest.approx(0.0, abs=1e-7)

    def test_affine_invariance(self):
        # Congruence by a (condition-bounded) invertible matrix leaves the
        # distance unchanged; see conftest.random_invertible for why the
        # generator bounds the singular values.
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            c1 = random_spd(rng, 8, 0.2, 4.0)
            c2 = random_spd(rng, 8, 0.2, 4.0)
            w = random_invertible(rng, 8)
            d = airm_distance(c1, c2)
            d_w = airm_distance(w.T @ c1 @ w, w.T @ c2 @ w)
            worst = max(worst, abs(d - d_w) / d)
        assert worst <= 1e-8

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b, c = (random_spd(rng, 4, 0.2, 4.0) for _ in range(3))
            dab, dba = airm_distance(a, b), airm_distance(b, a)
            assert dab == pytest.approx(dba, rel=1e-9)
            assert airm_distance(a, c) <= dab + airm_distance(b, c) + 1e-9

    def test_matches_generalized_eigenvalue_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            c1, c2 = random_spd(rng, 6), random_spd(rng, 6)
            assert airm_distance(c1, c2) == pytest.approx(
                generalized_distance(c1, c2), rel=1e-9
            )


class TestLogExpMaps:
    def test_log_map_at_self_is_zero(self):
        rng = np.random.default_rng(10)
        c = random_spd(rng, 4)
        np.testing.assert_allclose(log_map(c, c), 0.0, atol=1e-12)

    def test_log_map_at_identity_is_logm(self):
        rng = np.random.default_rng(11)
        c = random_spd(rng, 4)
        np.testing.assert_allclose(log_map(np.eye(4), c), logm(c), atol=1e-12)

    def test_roundtrip_on_random_pairs(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(100):
            c_ref = random_spd(rng, 8, 0.2, 4.0)
            c = random_spd(rng, 8, 0.2, 4.0)
            back = exp_map(c_ref, log_map(c_ref, c))
            worst = max(worst, np.linalg.norm(back - c) / np.linalg.norm(c))
        assert worst < 1e-9

    def test_maps_bit_identical_to_separate_square_roots(self):
        # One eigendecomposition of the reference feeds both square roots.
        def sym(m):
            return 0.5 * (m + m.T)

        rng = np.random.default_rng(14)
        c_ref, c, t = random_spd(rng, 6), random_spd(rng, 6), random_symmetric(rng, 6)
        half, inv_half = sqrtm(c_ref), invsqrtm(c_ref)
        log_ref = sym(half @ logm(sym(inv_half @ c @ inv_half)) @ half)
        exp_ref = sym(half @ expm(sym(inv_half @ t @ inv_half)) @ half)
        assert log_map(c_ref, c).tobytes() == log_ref.tobytes()
        assert exp_map(c_ref, t).tobytes() == exp_ref.tobytes()

    def test_tangent_norm_equals_distance(self):
        # ||Log_C(C')||_C computed through the whitened log matches the metric.
        rng = np.random.default_rng(13)
        c_ref, c = random_spd(rng, 5), random_spd(rng, 5)
        inv = np.linalg.inv(c_ref)
        t = log_map(c_ref, c)
        norm = np.sqrt(np.trace(t @ inv @ t @ inv))
        assert norm == pytest.approx(airm_distance(c_ref, c), rel=1e-9)


class TestRiemannianMean:
    def test_mean_of_identical_matrices(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(riemannian_mean([a, a]), a, atol=1e-9)

    def test_geometric_mean_of_commuting_pair(self):
        # Oracle: grid minimization of the summed squared geodesic distances
        # over diagonal candidates, using the closed diagonal-distance form.
        inputs = [np.diag([1.0, 1.0]), np.diag([4.0, 4.0])]
        ts = np.linspace(0.5, 8.0, 2000)
        objective = [
            diag_distance(np.diag([t, t]), inputs[0]) ** 2
            + diag_distance(np.diag([t, t]), inputs[1]) ** 2
            for t in ts
        ]
        t_star = ts[int(np.argmin(objective))]
        assert t_star == pytest.approx(2.0, abs=0.01)
        mean = riemannian_mean(np.stack(inputs))
        np.testing.assert_allclose(mean, np.diag([2.0, 2.0]), atol=1e-8)

    def test_no_swelling_on_crossed_pair(self):
        # Oracle: gradient-free minimization of the Karcher objective with an
        # independent generalized-eigenvalue distance.
        inputs = np.stack([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])])

        def objective(params):
            l = np.array([[np.exp(params[0]), 0.0], [params[1], np.exp(params[2])]])
            cand = l @ l.T
            return sum(generalized_distance(cand, m) ** 2 for m in inputs)

        best = scipy.optimize.minimize(objective, x0=[0.1, 0.1, -0.1], method="Nelder-Mead")
        l = np.array([[np.exp(best.x[0]), 0.0], [best.x[1], np.exp(best.x[2])]])
        oracle_mean = l @ l.T
        np.testing.assert_allclose(oracle_mean, np.eye(2), atol=1e-3)

        mean, info = riemannian_mean(inputs, return_info=True)
        assert info.converged
        np.testing.assert_allclose(mean, np.eye(2), atol=1e-8)
        assert np.linalg.det(mean) == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.det(euclidean_mean(inputs)) == pytest.approx(1.5625)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(14)
        mats = np.stack([random_spd(rng, 6, 0.3, 3.0) for _ in range(12)])
        mean, info = riemannian_mean(mats, tol=1e-9, return_info=True)
        assert info.converged
        residual = np.mean([log_map(mean, m) for m in mats], axis=0)
        assert np.linalg.norm(residual) < 10 * 1e-9

    def test_congruence_equivariance(self):
        rng = np.random.default_rng(15)
        mats = np.stack([random_spd(rng, 5, 0.3, 3.0) for _ in range(8)])
        w = rng.standard_normal((5, 5))
        transformed = np.stack([w.T @ m @ w for m in mats])
        lhs = riemannian_mean(transformed)
        rhs = w.T @ riemannian_mean(mats) @ w
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-6

    def test_two_point_determinant_is_geometric(self):
        rng = np.random.default_rng(16)
        c1, c2 = random_spd(rng, 5, 0.2, 4.0), random_spd(rng, 5, 0.2, 4.0)
        mean = riemannian_mean(np.stack([c1, c2]))
        expected = np.sqrt(np.linalg.det(c1) * np.linalg.det(c2))
        assert np.linalg.det(mean) == pytest.approx(expected, rel=1e-6)

    @staticmethod
    def karcher_cost(mean, mats):
        return sum(generalized_distance(mean, c) ** 2 for c in mats)

    @staticmethod
    def spectral(mat, fn):
        w, v = np.linalg.eigh(0.5 * (mat + mat.T))
        return (v * fn(w)) @ v.T

    def whitened_gradient_norm(self, mean, mats):
        """||mean_i log(M^{-1/2} C_i M^{-1/2})||_F."""
        inv_half = self.spectral(mean, lambda w: w**-0.5)
        logs = [self.spectral(inv_half @ c @ inv_half, np.log) for c in mats]
        return np.linalg.norm(np.mean(logs, axis=0))

    def undamped_mean(self, mats, tol=1e-9, max_iter=50):
        """Full steps, stopping on the unwhitened norm ||M^{1/2} T M^{1/2}||_F."""
        center = np.mean(mats, axis=0)
        for _ in range(max_iter):
            half = self.spectral(center, np.sqrt)
            inv_half = self.spectral(center, lambda w: w**-0.5)
            tangent = np.mean([self.spectral(inv_half @ c @ inv_half, np.log) for c in mats], axis=0)
            center = half @ self.spectral(tangent, np.exp) @ half
            if np.linalg.norm(half @ tangent @ half) < tol:
                return center, True
        return center, False

    @staticmethod
    def dispersed_stack(rng, n=6, count=8):
        """Random eigenbases; eigenvalues 1e-3, 1e3 and log-uniform draws between (cond 1e6)."""
        mats = []
        for _ in range(count):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            w = np.exp(np.r_[np.log([1e-3, 1e3]), rng.uniform(np.log(1e-3), np.log(1e3), n - 2)])
            mats.append((q * w) @ q.T)
        return np.stack(mats)

    @pytest.mark.parametrize("scale", [1e-6, 3.7, 1e6])
    def test_scaling_inputs_scales_mean_in_same_iterations(self, scale):
        rng = np.random.default_rng(14)
        mats = np.stack([random_spd(rng, 6, 0.3, 3.0) for _ in range(12)])
        mean, info = riemannian_mean(mats, return_info=True)
        scaled, scaled_info = riemannian_mean(scale * mats, return_info=True)
        assert info.converged and scaled_info.converged
        assert scaled_info.iterations == info.iterations
        np.testing.assert_allclose(scaled / scale, mean, rtol=1e-10, atol=1e-12)

    def test_dispersed_stacks_converge_where_full_steps_do_not(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            mats = self.dispersed_stack(rng)
            assert max(np.linalg.cond(c) for c in mats) >= 1e5
            undamped, undamped_converged = self.undamped_mean(mats)
            assert not undamped_converged
            mean, info = riemannian_mean(mats, return_info=True)
            assert info.converged and info.iterations <= 50
            assert self.karcher_cost(mean, mats) <= self.karcher_cost(undamped, mats)

    def test_whitened_gradient_at_returned_mean_is_below_tol(self):
        rng = np.random.default_rng(21)
        stacks = [
            np.stack([random_spd(rng, 5, 0.2, 5.0) for _ in range(10)]),
            self.dispersed_stack(rng, n=5, count=6),
        ]
        for mats in stacks:
            mean, info = riemannian_mean(mats, tol=1e-9, return_info=True)
            assert info.converged and info.grad_norm < 1e-9
            assert self.whitened_gradient_norm(mean, mats) < 1e-9

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_hessian_matches_second_difference_of_cost(self, seed):
        # Oracle: the cost (1/2P) sum_i delta^2(C_i, M_t) along the geodesic
        # M_t = M^{1/2} exp(t xi) M^{1/2}, with distances from scipy's generalized
        # eigenvalues; its second derivative at t = 0 is <xi, H[xi]>.
        rng = np.random.default_rng(seed)
        mats = np.stack([random_spd(rng, 5, 0.1, 10.0) for _ in range(7)])
        center = random_spd(rng, 5, 0.2, 5.0)
        xi = random_symmetric(rng, 5)
        half = self.spectral(center, np.sqrt)

        def cost(t):
            m_t = half @ scipy.linalg.expm(t * xi) @ half
            logs = [np.log(scipy.linalg.eigvalsh(c, m_t)) for c in mats]
            return sum(np.sum(v**2) for v in logs) / (2 * len(mats))

        step = 1e-3
        second = (cost(step) - 2.0 * cost(0.0) + cost(-step)) / step**2
        _, log_vals, eigvecs, _ = geometry._karcher_state(center, mats)
        quadratic = np.vdot(xi, geometry._karcher_hessian(log_vals, eigvecs)(xi))
        assert quadratic == pytest.approx(second, rel=1e-6)
        assert quadratic >= np.vdot(xi, xi)  # eigenvalues of H are at least 1

    def test_small_dispersed_stacks_converge_without_warning(self):
        # 3-8 channels, 3-11 matrices of cond 1e6 each: first-order steps crept
        # along here and warned at max_iter on 3 of these 40 stacks.
        rng = np.random.default_rng(99)
        for _ in range(40):
            mats = self.dispersed_stack(
                rng, n=int(rng.integers(3, 9)), count=int(rng.integers(3, 12))
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                mean, info = riemannian_mean(mats, max_iter=50, return_info=True)
            assert info.converged and info.iterations <= 20
            assert self.whitened_gradient_norm(mean, mats) < 1e-9

    @staticmethod
    def ill_conditioned_pair(rng, log_eigenvalues=None):
        """Two 3 x 3 SPD matrices on random bases, eigenvalues e^-10..e^10 (drawn if not given)."""
        mats = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            logs = rng.uniform(-10.0, 10.0, 3) if log_eigenvalues is None else log_eigenvalues
            mats.append((q * np.exp(logs)) @ q.T)
        return np.stack(mats)

    def test_ill_conditioned_pairs_converge_at_the_rounding_floor(self):
        # Whitened conditions of up to 4e8: ||T|| at the mean itself scatters
        # around 1e-9, and a stop at tol alone halved steps until max_iter and
        # warned on the drawn pair from seed 79 and on 54 of the 100 fixed ones.
        pairs = [self.ill_conditioned_pair(np.random.default_rng(79))]
        pairs += [
            self.ill_conditioned_pair(np.random.default_rng(seed), [10.0, 0.0, -10.0])
            for seed in range(100)
        ]
        for mats in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                mean, info = riemannian_mean(mats, return_info=True)
            assert info.converged and info.iterations < 50
            # The mean of two matrices is their geodesic midpoint, so it is as far
            # from each; distances from scipy's generalized eigenvalues. (The pair's
            # own distance is not an oracle: their whitened condition reaches e^40.)
            to_a, to_b = (np.linalg.norm(np.log(scipy.linalg.eigvalsh(c, mean))) for c in mats)
            assert to_a == pytest.approx(to_b, rel=1e-7)

    def test_step_that_raises_the_gradient_is_halved(self, monkeypatch):
        # Three five-channel matrices with eigenvalues e^-9..e^9: from the
        # Euclidean mean, a full Newton step raises ||T||, so it is halved.
        rng = np.random.default_rng(46)
        mats = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            mats.append((q * np.exp(rng.uniform(-9.0, 9.0, 5))) @ q.T)
        mats = np.stack(mats)
        norms, steps = [], []
        state, expm_ = geometry._karcher_state, geometry.expm

        def recording_state(center, stack):
            result = state(center, stack)
            norms.append(np.linalg.norm(result[3]))
            return result

        def recording_expm(mat):
            steps.append(mat)
            return expm_(mat)

        monkeypatch.setattr(geometry, "_karcher_state", recording_state)
        monkeypatch.setattr(geometry, "expm", recording_expm)
        mean, info = riemannian_mean(mats, return_info=True)
        # norms[k] is the candidate made from steps[k - 1]; a rejected one does not fall.
        rejected = [k for k in range(1, len(norms)) if norms[k] >= min(norms[:k])]
        assert rejected
        for k in rejected:
            np.testing.assert_array_equal(steps[k], 0.5 * steps[k - 1])
        assert norms[rejected[0] + 1] < min(norms[:rejected[0]])
        assert info.converged and info.iterations == len(norms)
        assert self.whitened_gradient_norm(mean, mats) < 1e-9

    def test_non_convergence_warns(self):
        rng = np.random.default_rng(17)
        mats = np.stack([random_spd(rng, 4, 0.1, 8.0) for _ in range(6)])
        with pytest.warns(RuntimeWarning, match="did not converge"):
            _, info = riemannian_mean(mats, tol=1e-15, max_iter=2, return_info=True)
        assert not info.converged
        assert info.iterations == 2


class TestTangentVectorize:
    def test_diagonal_example(self):
        vec = tangent_vectorize(np.eye(2), np.diag([np.e**2, 1.0]))
        np.testing.assert_allclose(vec, [2.0, 0.0, 0.0], atol=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(
            airm_distance(np.eye(2), np.diag([np.e**2, 1.0]))
        )

    def test_reference_maps_to_zero(self):
        rng = np.random.default_rng(18)
        c = random_spd(rng, 4)
        np.testing.assert_allclose(tangent_vectorize(c, c), 0.0, atol=1e-10)

    def test_vector_norm_equals_frobenius_norm(self):
        # The sqrt(2) off-diagonal weights make half-vectorization isometric.
        rng = np.random.default_rng(19)
        for _ in range(10):
            s = random_symmetric(rng, 6)
            assert np.linalg.norm(upper_vectorize(s)) == pytest.approx(
                np.linalg.norm(s, ord="fro"), rel=1e-12
            )

    def test_row_major_ordering(self):
        s = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        r2 = np.sqrt(2.0)
        np.testing.assert_allclose(
            upper_vectorize(s), [1.0, 2 * r2, 3 * r2, 4.0, 5 * r2, 6.0]
        )

    def test_norm_equals_distance(self):
        rng = np.random.default_rng(20)
        c_ref, c = random_spd(rng, 6), random_spd(rng, 6)
        vec = tangent_vectorize(c_ref, c)
        assert np.linalg.norm(vec) == pytest.approx(airm_distance(c_ref, c), abs=1e-8)

    def test_small_region_distances_survive_vectorization(self):
        # Tangent images approximate pairwise geodesic distances near the
        # reference; the error vanishes quadratically with the spread.
        rng = np.random.default_rng(21)
        for eps, bound in ((0.1, 0.05), (0.01, 0.005)):
            rel_errors = []
            for _ in range(100):
                c_ref = random_spd(rng, 6)
                ki = random_symmetric(rng, 6)
                kj = random_symmetric(rng, 6)
                ci = exp_map(c_ref, eps * ki)
                cj = exp_map(c_ref, eps * kj)
                geo = airm_distance(ci, cj)
                tangent = np.linalg.norm(
                    tangent_vectorize(c_ref, ci) - tangent_vectorize(c_ref, cj)
                )
                rel_errors.append(abs(geo - tangent) / geo)
            assert np.mean(rel_errors) < bound


class TestTangentFeatures:
    def test_seed_scale_length(self):
        assert 5 * tangent_dimension(48) == 5880

    def test_fine_bank_low_channel_length(self):
        assert 25 * tangent_dimension(3) == 150

    def test_minimal_length(self):
        rng = np.random.default_rng(22)
        scms = [np.array([[2.0]])]
        refs = [np.array([[1.0]])]
        vec = spatial_features_for(np.array([scms]), BANDS[:1], [np.eye(1)], refs)[0]
        assert vec.shape == (1,)
        assert vec[0] == pytest.approx(np.log(2.0))

    def test_concatenation_across_bands(self):
        rng = np.random.default_rng(23)
        scms = [random_spd(rng, 3) for _ in range(4)]
        refs = [random_spd(rng, 3) for _ in range(4)]
        vec = spatial_features_for(np.array([scms]), BANDS, [np.eye(3)] * 4, refs)[0]
        assert vec.shape == (4 * tangent_dimension(3),)
        np.testing.assert_allclose(vec[:6], tangent_vectorize(refs[0], scms[0]))


class TestRecentring:
    """``references=None``: every band re-centred at the mean of all its trials."""

    @pytest.fixture
    def split(self):
        # 33 trials: one more than a 32-trial batch, two bands of 6 channels reduced to rank 4.
        rng = np.random.default_rng(24)
        scms = np.array([[random_spd(rng, 6) for _ in range(2)] for _ in range(33)])
        filters = [pca_spatial_filter(scms[:, b], 4) for b in range(2)]
        return scms, filters

    def test_does_not_depend_on_trial_order(self, split):
        scms, filters = split
        perm = np.random.default_rng(25).permutation(len(scms))
        want = spatial_features_for(scms, BANDS[:2], filters, None)[perm]
        got = spatial_features_for(scms[perm], BANDS[:2], filters, None)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_no_trial_maps_to_zero(self, split):
        scms, filters = split
        vectors = spatial_features_for(scms, BANDS[:2], filters, None)
        assert vectors.shape == (33, 2 * tangent_dimension(4))
        assert np.min(np.linalg.norm(vectors, axis=1)) > 0.1

    def test_projects_at_the_mean_of_each_whole_band(self, split):
        scms, filters = split
        want = []
        for b, w in enumerate(filters):
            band = reduce_covariance(w, scms[:, b])
            want.append(tangent_vectorize(riemannian_mean(band), band))
        np.testing.assert_array_equal(
            spatial_features_for(scms, BANDS[:2], filters, None), np.concatenate(want, axis=1)
        )



class TestMeanAndTangentVectors:
    """The mean's last solver state gives the tangent vectors at the mean, bit for bit."""

    @pytest.mark.parametrize("rank, n_trials, spread", [(48, 10, 3.0), (18, 40, 10.0), (8, 15, 1.5)])
    def test_vectors_equal_tangent_vectorize_at_the_mean(self, rank, n_trials, spread):
        # The ranks of the seed, bci2a and lstm-train workloads.
        rng = np.random.default_rng(rank)
        mats = np.stack([random_spd(rng, rank, 1.0 / spread, spread) for _ in range(n_trials)])
        mean, vectors = geometry._mean_and_tangent_vectors(mats)
        np.testing.assert_array_equal(mean, riemannian_mean(mats))
        np.testing.assert_array_equal(vectors, tangent_vectorize(mean, mats))

    def test_mean_reached_without_a_step(self):
        # Equal inputs: the Euclidean start is the mean, so the first state is the last.
        mats = np.stack([np.diag([2.0, 3.0])] * 3)
        mean, vectors = geometry._mean_and_tangent_vectors(mats)
        np.testing.assert_array_equal(mean, mats[0])
        np.testing.assert_array_equal(vectors, tangent_vectorize(mean, mats))
        np.testing.assert_allclose(vectors, 0.0, atol=1e-15)

    def test_fit_returns_the_training_vectors_at_its_references(self):
        rng = np.random.default_rng(26)
        scms = np.array([[random_spd(rng, 6, 0.2, 5.0) for _ in range(3)] for _ in range(20)])
        filters, references, vectors = fit_spatial_reducers(scms, BANDS[:3], 4)
        np.testing.assert_array_equal(
            vectors, spatial_features_for(scms, BANDS[:3], filters, references)
        )


class TestMdrm:
    def test_prefers_nearer_class_mean(self):
        # Oracle: both distances computed directly.
        means = {0: np.diag([2.0, 1.0]), 1: np.diag([1.0, 2.0])}
        test = np.diag([1.9, 1.0])
        d0 = airm_distance(test, means[0])
        d1 = airm_distance(test, means[1])
        assert d0 < d1
        clf = MdrmClassifier().fit(
            np.stack([means[0], means[0], means[1], means[1]]), [0, 0, 1, 1]
        )
        assert clf.predict(test[None])[0] == 0

    def test_exact_class_mean_recovers_class(self):
        rng = np.random.default_rng(24)
        c0, c1 = random_spd(rng, 3), random_spd(rng, 3)
        clf = MdrmClassifier().fit(np.stack([c0, c0, c1, c1]), [0, 0, 1, 1])
        assert clf.predict(c1[None])[0] == 1

    def test_single_class_is_trivially_perfect(self):
        rng = np.random.default_rng(25)
        covs = np.stack([random_spd(rng, 3) for _ in range(5)])
        clf = MdrmClassifier().fit(covs, [0] * 5)
        assert np.all(clf.predict(covs) == 0)

    @pytest.mark.parametrize("n", [4, 18, 48])
    def test_batched_distances_match_per_pair_distances(self, n):
        # One whitened stack per class mean against one airm_distance call per pair.
        rng = np.random.default_rng(n)
        train = np.stack([random_spd(rng, n, 0.2, 5.0) for _ in range(12)])
        clf = MdrmClassifier().fit(train, [0, 1, 2] * 4)
        covs = np.stack([random_spd(rng, n, 0.2, 5.0) for _ in range(7)])
        for batch in (covs[0], covs):
            rows = batch.reshape(-1, n, n)
            want = np.array([[airm_distance(c, m) for m in clf.means_] for c in rows])
            got = clf.distances(batch)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(np.argmin(got, axis=1), np.argmin(want, axis=1))

    def test_empty_class_raises(self):
        with pytest.raises(ValueError, match="labels"):
            MdrmClassifier().fit(np.stack([np.eye(2)]), [])

    def test_synthetic_spd_clusters(self):
        # Generator-controlled oracle: distinct class covariances with
        # T=500 samples keep SCM noise far below the class separation.
        spec_train = SynthSpec(
            class_covariances=[np.diag([2.0, 1.0, 1.0, 1.0]), np.diag([1.0, 1.0, 1.0, 2.0])],
            n_samples=500, fs=200.0, segments_per_class=40, seed=1,
        )
        spec_test = SynthSpec(
            class_covariances=spec_train.class_covariances,
            n_samples=500, fs=200.0, segments_per_class=100, seed=2,
        )
        train = synth_spd_classes(spec_train)
        test = synth_spd_classes(spec_test)
        train_covs = np.stack([scm(s.samples) for s in train])
        train_labels = [s.label for s in train]
        test_covs = np.stack([scm(s.samples) for s in test])
        test_labels = np.array([s.label for s in test])
        clf = MdrmClassifier().fit(train_covs, train_labels)
        accuracy = np.mean(clf.predict(test_covs) == test_labels)
        assert accuracy >= 0.90


class TestStackedKernels:
    """Stacked (..., R, R) inputs give the per-matrix results."""

    def test_stacked_tangent_vectorize_equals_per_matrix(self):
        rng = np.random.default_rng(50)
        c_ref = random_spd(rng, 5)
        stack = np.stack([[random_spd(rng, 5) for _ in range(4)] for _ in range(2)])
        got = tangent_vectorize(c_ref, stack)
        assert got.shape == (2, 4, tangent_dimension(5))
        for i in range(2):
            for j in range(4):
                np.testing.assert_allclose(
                    got[i, j], tangent_vectorize(c_ref, stack[i, j]), rtol=1e-12, atol=1e-14
                )

    def test_stacked_upper_vectorize(self):
        rng = np.random.default_rng(51)
        stack = np.stack([random_symmetric(rng, 4) for _ in range(3)])
        np.testing.assert_array_equal(
            upper_vectorize(stack), np.stack([upper_vectorize(s) for s in stack])
        )

    def test_singular_matrix_mid_stack_is_named(self):
        rng = np.random.default_rng(52)
        stack = np.stack([random_spd(rng, 3) for _ in range(5)])
        stack[2] = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(NumericalError, match="stack index 2 is not positive definite"):
            logm(stack)
        with pytest.raises(NumericalError, match="stack index 2"):
            tangent_vectorize(np.eye(3), stack)

    def test_stacked_reduce_covariance_checks_shape(self):
        rng = np.random.default_rng(53)
        w = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :2]
        stack = np.stack([random_spd(rng, 4) for _ in range(3)])
        got = reduce_covariance(w, stack)
        for k in range(3):
            np.testing.assert_allclose(got[k], reduce_covariance(w, stack[k]), rtol=1e-12)
        with pytest.raises(ValueError, match="covariances"):
            reduce_covariance(w, np.stack([random_spd(rng, 3) for _ in range(3)]))
