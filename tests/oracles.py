"""Independent reference implementations used only by the tests.

Everything here is deliberately written from the defining formulas
(quadrature, sorted-sample coupling, assignment solve, Newton steps)
rather than reusing package code, so a bug in the package cannot hide
behind the same bug in its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize


def normal_pdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def kl_quadrature_1d(
    mean_p: float, var_p: float, mean_q: float, var_q: float, n_grid: int = 400_001
) -> float:
    """KL(p || q) for scalar Gaussians by trapezoidal quadrature."""
    sd = np.sqrt(max(var_p, var_q))
    lo = min(mean_p, mean_q) - 14.0 * sd
    hi = max(mean_p, mean_q) + 14.0 * sd
    x = np.linspace(lo, hi, n_grid)
    p = normal_pdf(x, mean_p, var_p)
    q = normal_pdf(x, mean_q, var_q)
    mask = p > 1e-300
    integrand = np.zeros_like(x)
    integrand[mask] = p[mask] * (np.log(p[mask]) - np.log(q[mask]))
    return float(np.trapezoid(integrand, x))


def kl_quadrature_2d(
    mean_p: np.ndarray,
    cov_p: np.ndarray,
    mean_q: np.ndarray,
    cov_q: np.ndarray,
    n_grid: int = 1201,
) -> float:
    """KL(p || q) for 2-D Gaussians on a tensor grid.

    Densities are evaluated from scratch (explicit inverse and determinant)
    so the oracle shares no code with the closed form under test.
    """
    mean_p = np.asarray(mean_p, dtype=float)
    mean_q = np.asarray(mean_q, dtype=float)
    spread = 9.0 * np.sqrt(max(np.max(np.diag(cov_p)), np.max(np.diag(cov_q))))
    center = (mean_p + mean_q) / 2.0
    half = spread + np.max(np.abs(mean_p - mean_q))
    xs = np.linspace(center[0] - half, center[0] + half, n_grid)
    ys = np.linspace(center[1] - half, center[1] + half, n_grid)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def log_density(mean, cov):
        inv = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        diff = pts - mean
        quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
        return -0.5 * (quad + logdet + 2.0 * np.log(2.0 * np.pi))

    log_p = log_density(mean_p, cov_p)
    log_q = log_density(mean_q, cov_q)
    p = np.exp(log_p)
    integrand = np.where(p > 1e-300, p * (log_p - log_q), 0.0)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return float(integrand.sum() * cell)


def w2sq_mc_1d(
    mean_p: float,
    var_p: float,
    mean_q: float,
    var_q: float,
    n: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Squared W2 between scalar Gaussians via the sorted-sample coupling."""
    rng = np.random.default_rng(seed)
    a = np.sort(rng.normal(mean_p, np.sqrt(var_p), n))
    b = np.sort(rng.normal(mean_q, np.sqrt(var_q), n))
    return float(np.mean((a - b) ** 2))


def w2sq_quantile_quadrature_1d(
    mean_p: float, var_p: float, mean_q: float, var_q: float, n_grid: int = 2_000_001
) -> float:
    """Squared W2 between scalar Gaussians by quantile-function quadrature.

    Integrates (F_p^{-1}(t) - F_q^{-1}(t))^2 over t in (0, 1) on a midpoint
    grid; deterministic, unlike the sorted-sample estimator, so it stays
    accurate for near-identical inputs.
    """
    from scipy.special import ndtri

    t = (np.arange(n_grid) + 0.5) / n_grid
    z = ndtri(t)
    qp = mean_p + np.sqrt(var_p) * z
    qq = mean_q + np.sqrt(var_q) * z
    return float(np.mean((qp - qq) ** 2))


def w2sq_commuting(
    mean_p: np.ndarray,
    mean_q: np.ndarray,
    rotation: np.ndarray,
    diag_p: np.ndarray,
    diag_q: np.ndarray,
) -> float:
    """Squared W2 for Gaussians sharing the eigenbasis `rotation`.

    With cov_p = R diag_p R^T and cov_q = R diag_q R^T the optimal coupling
    acts along each shared eigen-direction, so the value reduces to the mean
    shift plus a sum over matched eigenvalues; no matrix square roots are
    involved.
    """
    del rotation  # the value does not depend on the shared basis
    shift = np.asarray(mean_p, dtype=float) - np.asarray(mean_q, dtype=float)
    return float(shift @ shift + np.sum((np.sqrt(diag_p) - np.sqrt(diag_q)) ** 2))


def assignment_ot_cost(x: np.ndarray, y: np.ndarray, p: float = 1.0) -> float:
    """Exact W_p^p between equal-size uniform clouds via optimal assignment.

    For uniform weights and equal sizes the transport polytope has a
    permutation-matrix optimum, so the Hungarian algorithm is an exact and
    independent route.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] != y.shape[0]:
        raise ValueError("assignment oracle needs equal-size clouds")
    cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2) ** p
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / x.shape[0])


def quantile_wp_1d(
    u: np.ndarray, uw: np.ndarray, v: np.ndarray, vw: np.ndarray, p: float = 1.0
) -> float:
    """W_p^p for weighted 1-D clouds by direct quantile-function integration.

    Written as an integral over the unit interval of
    |F_u^{-1}(t) - F_v^{-1}(t)|^p evaluated on the merged breakpoint grid.
    """
    iu = np.argsort(u, kind="stable")
    iv = np.argsort(v, kind="stable")
    u, uw = np.asarray(u, dtype=float)[iu], np.asarray(uw, dtype=float)[iu]
    v, vw = np.asarray(v, dtype=float)[iv], np.asarray(vw, dtype=float)[iv]
    cu = np.concatenate([[0.0], np.cumsum(uw)])
    cv = np.concatenate([[0.0], np.cumsum(vw)])
    ts = np.unique(np.concatenate([cu, cv]))
    ts = np.clip(ts, 0.0, 1.0)
    total = 0.0
    for lo, hi in zip(ts[:-1], ts[1:]):
        if hi - lo <= 1e-15:
            continue
        mid = (lo + hi) / 2.0
        # A cumulative sum may end just below 1, leaving the last segment's
        # midpoint past the last breakpoint; that mass belongs to the last atom.
        qu = u[min(np.searchsorted(cu, mid, side="right") - 1, u.size - 1)]
        qv = v[min(np.searchsorted(cv, mid, side="right") - 1, v.size - 1)]
        total += (hi - lo) * abs(qu - qv) ** p
    return float(total)


def fit_multinomial_logistic_newton(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    n_iter: int = 50,
    ridge: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic fit by damped Newton (iteratively reweighted).

    Returns (weights of shape (k, d), bias of shape (k,)).  Ridge keeps the
    Hessian invertible; it is small enough not to move desk-scale fits.
    """
    n, d = features.shape
    x1 = np.concatenate([features, np.ones((n, 1))], axis=1)
    k, dd = n_classes, d + 1
    theta = np.zeros(k * dd)
    onehot = np.eye(k)[labels]

    def softmax(z):
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    for _ in range(n_iter):
        probs = softmax(x1 @ theta.reshape(k, dd).T)
        grad = ((probs - onehot).T @ x1 / n).ravel() + ridge * theta
        hess = np.zeros((k * dd, k * dd))
        for a in range(k):
            for b in range(k):
                w = probs[:, a] * ((a == b) - probs[:, b])
                hess[a * dd : (a + 1) * dd, b * dd : (b + 1) * dd] = (
                    x1.T * w
                ) @ x1 / n
        hess += ridge * np.eye(k * dd)
        step = np.linalg.solve(hess, grad)
        theta = theta - step
        if np.linalg.norm(step) < 1e-10:
            break
    mat = theta.reshape(k, dd)
    return mat[:, :d], mat[:, d]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted softmax cross-entropy from its defining formula.

    With log p = z - max z - log sum exp(z - max z) row by row, the value is
    -sum_i w_i log p_i[y_i], its gradient in the logits is w_i (p_i - e_{y_i})
    and the probabilities are exp(z - max z) / sum exp(z - max z).  Every
    row reduction is numpy's axis-1 max or sum.

    Returns:
        (value, logit gradient of shape (n, k), probabilities of shape (n, k)).
    """
    n, k = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = float(-np.sum(weights * log_probs[np.arange(n), labels]))
    grad_logits = (np.exp(log_probs) - np.eye(k)[labels]) * weights[:, None]
    unnormalized = np.exp(shifted)
    probs = unnormalized / unnormalized.sum(axis=1, keepdims=True)
    return value, grad_logits, probs


def _solve_exact(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """mat^-1 rhs by Gauss-Jordan elimination on fractions (mat nonsingular)."""
    n = len(rhs)
    rows = [list(row) + [value] for row, value in zip(mat, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def basic_case_exact(source, target) -> dict[str, float]:
    """Basic-case closed forms of two scalar-output joints, exact on their float moments.

    The regression weights w = cov_xx^-1 cov_xy come from a rational solve, so
    var_st = w_s' C w_s, var_t = w_t' C w_t and w_t' C w_s (C the target input
    covariance), the mean gap and the regret are exact fractions.  Square
    roots and the logarithm are then taken in floating point on rounded exact
    values, with the differences that cancel (var_st - var_t, var_t / var_st
    - 1) formed exactly first.
    """
    def exact(arr):
        return [Fraction(float(x)) for x in np.asarray(arr).reshape(-1)]

    d = len(source.mean_x)
    cov_s = [exact(row) for row in source.cov_xx]
    cov_t = [exact(row) for row in target.cov_xx]
    w_s = _solve_exact(cov_s, exact(source.cov_xy))
    w_t = _solve_exact(cov_t, exact(target.cov_xy))

    def form(a, b):
        return sum(a[i] * cov_t[i][j] * b[j] for i in range(d) for j in range(d))

    var_st, var_t, cross = form(w_s, w_s), form(w_t, w_t), form(w_t, w_s)
    shift = [t - s for t, s in zip(exact(target.mean_x), exact(source.mean_x))]
    bias = exact(target.mean_y)[0] - exact(source.mean_y)[0] - sum(
        w * m for w, m in zip(w_s, shift)
    )
    gap = [t - s for t, s in zip(w_t, w_s)]
    excess = float(var_t / var_st - 1)
    root_st, root_t = math.sqrt(float(var_st)), math.sqrt(float(var_t))
    return {
        "kl_variance": 0.5 * (excess - math.log1p(excess)),
        "kl_bias": float(bias**2 / (2 * var_st)),
        "w_variance": (float(var_st - var_t) / (root_st + root_t)) ** 2,
        "w_bias": float(bias**2),
        "regret": float(form(gap, gap) + bias**2),
        "residual": 2.0 * (math.sqrt(float(var_t * var_st)) - float(cross)),
    }


def _rotated_plainly(normal: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Q diag(eigenvalues) Q^T for the Q factor of one normal matrix."""
    basis, _ = np.linalg.qr(normal)
    return (basis * eigenvalues) @ basis.T


def random_basic_pair_draw(dim: int, seed: int, drift: float) -> tuple[tuple, tuple]:
    """The (mean_x, mean_y, cov_xx, cov_xy, cov_yy) moments of one random basic pair.

    The 13 calls of default_rng(seed) that `random_basic_pair` documents,
    one numpy call per draw, in its order; the moments of
    Y = w . X + b + noise then follow for one pair alone.
    """
    rng = np.random.default_rng(seed)
    source_normal = rng.normal(size=(dim, dim))
    source_eigenvalues = rng.uniform(0.5, 2.0, size=dim)
    source_mean = rng.uniform(-0.5, 0.5, size=dim)
    direction = rng.normal(size=dim)
    norm = rng.uniform(0.7, 1.1)
    source_bias = rng.uniform(-0.5, 0.5)
    source_noise = rng.uniform(0.4, 1.0)
    target_normal = rng.normal(size=(dim, dim))
    target_eigenvalues = rng.uniform(0.5, 2.0, size=dim)
    mean_drift = rng.uniform(-drift, drift, size=dim)
    weight_drift = rng.uniform(-drift, drift, size=dim)
    bias_drift = rng.uniform(-drift, drift)
    target_noise = rng.uniform(0.4, 1.0)

    source_cov = _rotated_plainly(source_normal, source_eigenvalues)
    target_cov = 0.8 * source_cov + 0.2 * _rotated_plainly(target_normal, target_eigenvalues)
    source_w = direction / np.linalg.norm(direction) * norm

    def joint(mean_x, cov_xx, w, bias, noise):
        return (
            mean_x, np.array([w @ mean_x + bias]), cov_xx, cov_xx @ w[:, None],
            np.array([[w @ cov_xx @ w + noise]]),
        )

    return (
        joint(source_mean, source_cov, source_w, source_bias, source_noise),
        joint(
            source_mean + mean_drift, target_cov, source_w + weight_drift,
            source_bias + bias_drift, target_noise,
        ),
    )


def random_task_draw(dim_x: int, dim_y: int, seed: int) -> tuple:
    """The (mean_x, mean_y, cov_xx, cov_xy, cov_yy) moments of one `random_task`.

    Its 3 calls of default_rng(seed), one numpy call per draw, in the
    documented order.
    """
    n = dim_x + dim_y
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=(n, n))
    eigenvalues = rng.uniform(0.5, 2.0, size=n)
    mean = rng.normal(scale=0.5, size=n)
    full = _rotated_plainly(normal, eigenvalues)
    x, y = slice(None, dim_x), slice(dim_x, None)
    return mean[x], mean[y], full[x, x], full[x, y], full[y, y]


def regularized_softmax_loss(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, weights: np.ndarray,
    n_classes: int, l2: float,
) -> tuple[float, np.ndarray]:
    """Weighted softmax cross-entropy plus l2 / 2 * ||params||^2, and its gradient.

    `params` is the (k, d + 1) matrix of each class's weights then its
    bias, flattened.  The value is
    -sum_i w_i log p_i[y_i] + l2 / 2 * ||params||^2 with log p from the
    axis-1 log-sum-exp, and the gradient sum_i w_i (p_i - e_{y_i}) x~_i^T
    + l2 * params, x~ the features with a 1 appended.
    """
    n = len(labels)
    x1 = np.concatenate([features, np.ones((n, 1))], axis=1)
    theta = params.reshape(n_classes, -1)
    logits = x1 @ theta.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = -np.sum(weights * log_probs[np.arange(n), labels]) + l2 / 2.0 * params @ params
    residual = (np.exp(log_probs) - np.eye(n_classes)[labels]) * weights[:, None]
    return float(value), (residual.T @ x1).ravel() + l2 * params


def fit_regularized_softmax_head(
    features: np.ndarray, labels: np.ndarray, weights: np.ndarray, n_classes: int,
    l2: float, gtol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """The minimizer of `regularized_softmax_loss`, by scipy's L-BFGS from zero.

    A quasi-Newton method that never forms a Hessian, run until every
    gradient entry is below `gtol`.  Returns (weights of shape (k, d), bias
    of shape (k,)).

    Raises:
        AssertionError: if the solver stops before the gradient is that small.
    """
    d = features.shape[1]
    result = minimize(
        regularized_softmax_loss, np.zeros(n_classes * (d + 1)), jac=True, method="L-BFGS-B",
        args=(features, labels, weights, n_classes, l2),
        options={"gtol": gtol, "ftol": 0.0, "maxiter": 100_000, "maxcor": 30},
    )
    _, grad = regularized_softmax_loss(result.x, features, labels, weights, n_classes, l2)
    assert np.abs(grad).max() <= gtol, result.message
    theta = result.x.reshape(n_classes, d + 1)
    return theta[:, :d], theta[:, d]
