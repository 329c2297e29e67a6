"""Spatial covariance geometry on the SPD manifold.

Covariance matrices of multichannel signals live on the manifold of
symmetric positive definite matrices. Under the affine-invariant metric
the geodesic distance between C1 and C2 is

    delta(C1, C2) = ||log(C1^{-1/2} C2 C1^{-1/2})||_F,

which is unchanged by any congruence C -> W^T C W with invertible W.
This module provides the matrix log/exp/inverse-sqrt kernels (one
symmetric eigendecomposition each), the log/exp maps between manifold
and tangent space, the iterative Riemannian (Karcher) mean, tangent-space
half-vectorization with the sqrt(2) off-diagonal coefficient, PCA rank
reduction, and a minimum-distance-to-mean classifier.

The Karcher mean is an inexact Riemannian Newton iteration (Absil,
Mahony and Sepulchre 2008, ch. 6): the affine-invariant Hessian of the
cost, H[xi] = mean_i V_i (K_i o V_i^T xi V_i) V_i^T with
K_i[j, k] = h(theta_ij - theta_ik) and h(x) = (x/2) coth(x/2), comes in
closed form from the eigenpairs of the whitened inputs that the gradient
already needs. Conjugate gradients solve for the step up to the forcing
term min(0.5, ||T||) ||T||, and a step that does not lower the gradient
norm is halved. It stops on the whitened tangent norm, which does not
depend on the scale of the covariances, and :class:`MeanInfo` reports
that norm. Jeuris, Vandebril and Vandereycken (2012) compare Karcher-mean
solvers.

The matrix functions, congruence reduction and tangent vectorization
also take a stack (..., R, R): one batched ``eigh`` covers it, and the
per-matrix positive-definite check names the first matrix that fails.
Every map through a reference M, from the Karcher step to MDRM, whitens
at M through one kernel that returns the log eigenpairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

EIGENVALUE_RTOL = 1e-12


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def _from_eigh(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Reassemble V diag(w) V^T for a matrix or a stack."""
    return _symmetrize((eigvecs * eigvals[..., None, :]) @ np.swapaxes(eigvecs, -1, -2))


def _spd_eigh(mats: np.ndarray, what: str = "matrix"):
    """Eigendecomposition of a symmetric matrix or stack (..., R, R), rejecting non-SPD input.

    Eigenvalues below EIGENVALUE_RTOL times the largest (or non-positive)
    mean the matrix is not usably positive definite. In a stack, the error
    names the index of the first matrix that fails.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {mats.shape}")
    eigvals, eigvecs = np.linalg.eigh(_symmetrize(mats))
    largest = eigvals[..., -1]
    bad = (largest <= 0.0) | (eigvals[..., 0] <= EIGENVALUE_RTOL * largest)
    if np.any(bad):
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f" at stack index {', '.join(map(str, index))}" if index else ""
        raise NumericalError(
            f"{what}{where} is not positive definite within tolerance: "
            f"eigenvalue range [{eigvals[index][0]:.3e}, {eigvals[index][-1]:.3e}]"
        )
    return eigvals, eigvecs


def _apply_to_eigvals(mat: np.ndarray, func, what: str) -> np.ndarray:
    eigvals, eigvecs = _spd_eigh(mat, what)
    return _from_eigh(func(eigvals), eigvecs)


def logm(mat: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix or stack."""
    return _apply_to_eigvals(mat, np.log, "logm input")


def expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix.

    Unlike :func:`logm` the input only needs to be symmetric, since
    tangent-space matrices generally have negative eigenvalues.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expm input must be square, got shape {mat.shape}")
    eigvals, eigvecs = np.linalg.eigh(_symmetrize(mat))
    return _from_eigh(np.exp(eigvals), eigvecs)


def sqrtm(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD matrix."""
    return _apply_to_eigvals(mat, np.sqrt, "sqrtm input")


def invsqrtm(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix."""
    return _apply_to_eigvals(mat, lambda w: 1.0 / np.sqrt(w), "invsqrtm input")


def _sqrtm_pair(mat: np.ndarray, what: str):
    """C^{1/2} and C^{-1/2} of an SPD matrix from one eigendecomposition."""
    eigvals, eigvecs = _spd_eigh(mat, what)
    sqrt_vals = np.sqrt(eigvals)
    return _from_eigh(sqrt_vals, eigvecs), _from_eigh(1.0 / sqrt_vals, eigvecs)


def scm(samples: np.ndarray) -> np.ndarray:
    """Spatial covariance matrix C = X X^T / (T - 1) of one (n_channels, n_samples) trial.

    The result is symmetric positive semi-definite; it is strictly
    positive definite only when the trial has full channel rank.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a channels x samples matrix, got shape {x.shape}")
    if x.shape[1] < 2:
        raise ValueError("need at least two samples to estimate a covariance")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    return _symmetrize(x @ x.T / (x.shape[1] - 1))


def ridge_regularize(mat: np.ndarray, gamma: float = 1e-8) -> np.ndarray:
    """Add gamma * mean(eigenvalue) to the diagonal.

    Optional escape hatch for ill-conditioned covariances of real
    recordings; it nudges semi-definite matrices into the SPD cone while
    perturbing well-conditioned ones negligibly.
    """
    mat = np.asarray(mat, dtype=np.float64)
    return mat + (gamma * np.trace(mat) / mat.shape[0]) * np.eye(mat.shape[0])


def euclidean_mean(mats) -> np.ndarray:
    """Arithmetic mean of covariance matrices (the swelling-prone average)."""
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[0] < 1:
        raise ValueError(f"expected a non-empty stack of square matrices, got shape {mats.shape}")
    return _symmetrize(mats.mean(axis=0))


def pca_spatial_filter(mats, rank: int) -> np.ndarray:
    """Top-``rank`` eigenvectors of the Euclidean-mean covariance.

    Columns are orthonormal and ordered by descending eigenvalue, so
    applying the filter keeps the directions of largest average variance
    and projects rank-deficient covariances back into the SPD cone.
    """
    mean = euclidean_mean(mats)
    n = mean.shape[0]
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    eigvals, eigvecs = np.linalg.eigh(mean)
    order = np.argsort(eigvals)[::-1]
    return eigvecs[:, order[:rank]]


def reduce_signal(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Project a channels x samples matrix: X' = W^T X."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != w.shape[0]:
        raise ValueError(f"filter expects {w.shape[0]} channels, signal has {x.shape[0]}")
    return w.T @ x


def reduce_covariance(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Project a covariance or a stack (..., N, N) of them: C' = W^T C W."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim < 2 or c.shape[-2:] != (w.shape[0], w.shape[0]):
        raise ValueError(
            f"filter expects {w.shape[0]} x {w.shape[0]} covariances, got {c.shape}"
        )
    return _symmetrize(w.T @ c @ w)


def _whitened_log_eigh(ref: np.ndarray, mats: np.ndarray, what: str):
    """Whiten a matrix or stack (..., R, R) at the SPD reference M and take its log eigenpairs.

    Returns M^{1/2} and the log eigenvalues and eigenvectors of each
    M^{-1/2} C M^{-1/2}. ``what`` names M if it is not positive definite.
    """
    half, inv_half = _sqrtm_pair(ref, what)
    eigvals, eigvecs = _spd_eigh(_symmetrize(inv_half @ mats @ inv_half), "whitened input")
    return half, np.log(eigvals), eigvecs


def airm_distance(c1: np.ndarray, c2: np.ndarray) -> float:
    """Affine-invariant (geodesic) distance between two SPD matrices."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    if c1.shape != c2.shape:
        raise ValueError(f"dimension mismatch: {c1.shape} vs {c2.shape}")
    _, log_vals, _ = _whitened_log_eigh(c1, c2, "reference")
    return float(np.sqrt(np.sum(log_vals**2)))


def log_map(c_ref: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Project C from the manifold to the tangent space at C_ref."""
    half, log_vals, eigvecs = _whitened_log_eigh(c_ref, c, "reference")
    return _symmetrize(half @ _from_eigh(log_vals, eigvecs) @ half)


def exp_map(c_ref: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Project a tangent matrix at C_ref back onto the manifold."""
    half, inv_half = _sqrtm_pair(c_ref, "reference")
    return _symmetrize(half @ expm(_symmetrize(inv_half @ tangent @ inv_half)) @ half)


@dataclass
class MeanInfo:
    """Convergence report for the iterative Riemannian mean.

    ``grad_norm`` is the whitened tangent norm ``||T||_F`` (see
    :func:`riemannian_mean`) at the returned mean, converged or not. A mean
    that stopped at the rounding floor is converged with a ``grad_norm``
    that may exceed ``tol``. ``log_eigvals`` (P, R) and ``eigvecs``
    (P, R, R) are the eigenpairs of log(M^{-1/2} C_i M^{-1/2}) at the
    returned mean M, so the tangent vectors there need no further
    decomposition.
    """

    converged: bool
    iterations: int
    grad_norm: float
    log_eigvals: np.ndarray = field(repr=False, compare=False)
    eigvecs: np.ndarray = field(repr=False, compare=False)


def _karcher_state(center: np.ndarray, mats: np.ndarray):
    """Whiten the stack at M = ``center``.

    Returns M^{1/2}, the eigenpairs (log eigenvalues) of each
    W_i = M^{-1/2} C_i M^{-1/2}, and T = mean_i log W_i.
    """
    half, log_vals, eigvecs = _whitened_log_eigh(center, mats, "mean iterate")
    return half, log_vals, eigvecs, _from_eigh(log_vals, eigvecs).mean(axis=0)


def _rounding_floor(log_vals: np.ndarray) -> float:
    """n eps kappa: how far rounding alone moves ``||T||_F`` (see :func:`riemannian_mean`)."""
    spread = float(np.max(log_vals[..., -1] - log_vals[..., 0]))  # eigh sorts ascending
    return log_vals.shape[-1] * np.finfo(np.float64).eps * np.exp(spread)


def _karcher_hessian(log_vals: np.ndarray, eigvecs: np.ndarray):
    """Hessian of (1/2P) sum_i delta^2(M, C_i) at the whitened iterate, as a map xi -> H[xi].

    H[xi] = mean_i V_i (K_i o V_i^T xi V_i) V_i^T with K_i[j, k] = h(theta_ij - theta_ik),
    h(x) = (x/2) coth(x/2) and h(0) = 1, where log W_i = V_i diag(theta_i) V_i^T.
    Since h >= 1, H is symmetric with eigenvalues at least 1.
    """
    half_gaps = 0.5 * (log_vals[..., :, None] - log_vals[..., None, :])
    kernel = np.divide(
        half_gaps, np.tanh(half_gaps), out=np.ones_like(half_gaps), where=half_gaps != 0
    )
    eigvecs_t = np.swapaxes(eigvecs, -1, -2)

    def hessian(xi: np.ndarray) -> np.ndarray:
        per_matrix = eigvecs @ (kernel * (eigvecs_t @ xi @ eigvecs)) @ eigvecs_t
        return _symmetrize(per_matrix.mean(axis=0))

    return hessian


def _newton_direction(hessian, tangent: np.ndarray) -> np.ndarray:
    """Conjugate-gradient solve of H xi = T, stopped at a residual below min(0.5, ||T||) ||T||.

    With that forcing term <T, H xi> >= ||T||^2 / 2, so xi is a descent direction.
    """
    grad_norm = float(np.linalg.norm(tangent))
    stop = (min(0.5, grad_norm) * grad_norm) ** 2
    direction = np.zeros_like(tangent)
    residual = tangent.copy()
    search = residual.copy()
    res_sq = float(np.vdot(residual, residual))
    # Exact CG ends within the dimension; the cap bounds it under rounding.
    for _ in range(tangent.size):
        if res_sq <= stop:
            break
        h_search = hessian(search)
        alpha = res_sq / float(np.vdot(search, h_search))
        direction += alpha * search
        residual -= alpha * h_search
        res_sq, previous = float(np.vdot(residual, residual)), res_sq
        search = residual + (res_sq / previous) * search
    return direction


def riemannian_mean(mats, tol: float = 1e-9, max_iter: int = 50, return_info: bool = False):
    """Riemannian (Karcher) mean: minimizer of summed squared geodesic distances.

    Inexact Riemannian Newton from the Euclidean mean M: whiten the inputs,
    W_i = M^{-1/2} C_i M^{-1/2}, take T = mean_i log(W_i) (the negative
    Riemannian gradient of (1/2P) sum_i delta^2(M, C_i)) and stop once
    ``||T||_F < tol``, returning that M. ``||T||_F`` is the gradient's
    Riemannian norm, so the stop does not depend on the inputs' scale.
    Otherwise conjugate gradients solve H xi = T, where the affine-invariant
    Hessian H[xi] = mean_i V_i (K_i o V_i^T xi V_i) V_i^T, with
    K_i[j, k] = h(theta_ij - theta_ik) and h(x) = (x/2) coth(x/2), comes in
    closed form from the eigenpairs log W_i = V_i diag(theta_i) V_i^T that T
    already uses (Absil, Mahony and Sepulchre 2008, ch. 6). The solve stops at
    the forcing term: a residual below min(0.5, ||T||_F) ||T||_F, which
    gives quadratic convergence near the mean and <T, H xi> >= ||T||^2 / 2
    away from it. The candidate M^{1/2} exp(xi) M^{1/2} is accepted when its
    ``||T||_F`` is smaller, and its eigendecompositions are reused for the
    next step; otherwise xi is halved, and in exact arithmetic a short enough
    step always lowers ``||T||_F``. In float64 it may not: for n x n inputs a
    log eigenvalue of W_i is only known to about n eps kappa, where eps is
    the float64 epsilon and kappa the largest condition number of the W_i,
    read off the log eigenvalues the step already has. So when a candidate
    is rejected while ``||T||_F < tol + n eps kappa``, the mean has converged
    as far as rounding allows and is returned. That floor is far below
    ``tol`` for well-conditioned stacks; it keeps a stack of whitened
    condition 1e8 from halving at its noise floor until ``max_iter``.
    Jeuris, Vandebril and Vandereycken (2012) compare this and other
    Karcher-mean solvers.

    ``iterations`` counts evaluations of T, one batched eigendecomposition of
    the whitened stack each, rejected candidates included; ``max_iter`` caps
    them. Non-convergence warns, it does not raise.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[0] < 1:
        raise ValueError(f"expected a non-empty stack of square matrices, got shape {mats.shape}")
    center = euclidean_mean(mats)
    half, log_vals, eigvecs, tangent = _karcher_state(center, mats)
    grad_norm = float(np.linalg.norm(tangent, ord="fro"))
    iterations = 1
    converged = grad_norm < tol
    while not converged and iterations < max_iter:
        direction = _newton_direction(_karcher_hessian(log_vals, eigvecs), tangent)
        while iterations < max_iter:
            candidate = _symmetrize(half @ expm(direction) @ half)
            state = _karcher_state(candidate, mats)
            iterations += 1
            candidate_norm = float(np.linalg.norm(state[3], ord="fro"))
            if candidate_norm < grad_norm:
                center, grad_norm = candidate, candidate_norm
                half, log_vals, eigvecs, tangent = state
                converged = grad_norm < tol
                break
            if grad_norm < tol + _rounding_floor(log_vals):
                converged = True  # no step can lower ||T|| below rounding
                break
            direction = 0.5 * direction
    if not converged:
        warnings.warn(
            f"Riemannian mean did not converge in {max_iter} iterations "
            f"(last whitened tangent norm {grad_norm:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    if return_info:
        return center, MeanInfo(converged, iterations, grad_norm, log_vals, eigvecs)
    return center


def _mean_and_tangent_vectors(mats):
    """Riemannian mean M of a stack and each matrix's tangent vector at M, from one solve.

    The vectors equal ``tangent_vectorize(M, mats)`` bit for bit: the
    solver's last accepted state already holds the eigenpairs of
    M^{-1/2} C_i M^{-1/2}, which that function would compute again.
    """
    mean, info = riemannian_mean(mats, return_info=True)
    return mean, upper_vectorize(_from_eigh(info.log_eigvals, info.eigvecs))


def tangent_vectorize(c_ref: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Half-vectorized tangent-space image of C (or a stack (..., R, R)) at reference C_ref.

    Computes S = log(C_ref^{-1/2} C C_ref^{-1/2}) and returns its upper
    triangle row-major with off-diagonal entries scaled by sqrt(2), so the
    Euclidean norm of the vector equals the geodesic distance:
    ||vec||_2 = ||S||_F = delta(C_ref, C).
    """
    _, log_vals, eigvecs = _whitened_log_eigh(c_ref, c, "reference")
    return upper_vectorize(_from_eigh(log_vals, eigvecs))


def upper_vectorize(sym: np.ndarray) -> np.ndarray:
    """Row-major upper triangle with sqrt(2)-weighted off-diagonals; (..., R, R) -> (..., d)."""
    sym = np.asarray(sym, dtype=np.float64)
    rows, cols = np.triu_indices(sym.shape[-1])
    coeff = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return sym[..., rows, cols] * coeff


def tangent_dimension(rank: int) -> int:
    """Length of a half-vectorized rank x rank symmetric matrix."""
    return rank * (rank + 1) // 2


class MdrmClassifier:
    """Minimum distance to Riemannian mean.

    Fit estimates one Riemannian mean per class; predict assigns each
    covariance to the nearest class mean under the affine-invariant
    distance, breaking ties toward the lowest class index.
    """

    def __init__(self, tol: float = 1e-9, max_iter: int = 50):
        self.tol = tol
        self.max_iter = max_iter
        self.classes_: np.ndarray | None = None
        self.means_: list[np.ndarray] | None = None

    def fit(self, covs, labels):
        covs = np.asarray(covs, dtype=np.float64)
        labels = np.asarray(labels)
        if covs.shape[0] != labels.shape[0]:
            raise ValueError(f"{covs.shape[0]} covariances but {labels.shape[0]} labels")
        self.classes_ = np.unique(labels)
        if len(self.classes_) < 1:
            raise ValueError("no classes in training labels")
        self.means_ = []
        for cls in self.classes_:
            members = covs[labels == cls]
            if members.shape[0] == 0:
                raise ValueError(f"class {cls} has no training samples")
            self.means_.append(riemannian_mean(members, tol=self.tol, max_iter=self.max_iter))
        return self

    def distances(self, covs) -> np.ndarray:
        """(n_covs, n_classes) affine-invariant distances, one whitened stack per class mean."""
        if self.means_ is None:
            raise ValueError("classifier is not fitted")
        covs = np.asarray(covs, dtype=np.float64)
        if covs.ndim == 2:
            covs = covs[None]
        per_mean = [_whitened_log_eigh(mean, covs, "reference")[1] for mean in self.means_]
        return np.sqrt(np.sum(np.stack(per_mean, axis=1) ** 2, axis=-1))

    def predict(self, covs) -> np.ndarray:
        dist = self.distances(covs)
        return self.classes_[np.argmin(dist, axis=1)]
