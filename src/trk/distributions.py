"""Distribution containers and closed-form Gaussian divergences.

Two carrier families are supported throughout the toolkit: weighted point
clouds (:class:`EmpiricalDistribution`) and Gaussians given by their moments
(:class:`Gaussian1D`, :class:`GaussianND`, :class:`GaussianJoint`).  The
closed forms here (`gaussian_kl`, `gaussian_w2`) are the reference values
that the transport solvers are checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "Gaussian1D",
    "GaussianND",
    "GaussianJoint",
    "gaussian_kl",
    "gaussian_w2",
    "psd_sqrt",
    "sample",
]

# Eigenvalues of a nominally-PSD matrix may come out slightly negative from
# eigh; anything above this magnitude is treated as genuinely indefinite.
PSD_EIG_TOL = 1e-8

_WEIGHT_SUM_TOL = 1e-9
_SYMMETRY_TOL = 1e-8
# Below about a thousand values numpy's stable argsort alone is faster than
# its default one plus the tie check (timeit, numpy 2.4, 2-core x86-64 VM).
_CHECKED_SORT_MIN = 1024


def _freeze(arr: np.ndarray, dtype: type = np.float64) -> np.ndarray:
    """Return a read-only copy of `arr` with the given dtype."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _transposed(mats: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (..., n, m) transposed, as a view."""
    return np.swapaxes(mats, -1, -2)


def _symmetric_part(mats: np.ndarray) -> np.ndarray:
    return (mats + _transposed(mats)) / 2.0


def _is_symmetric(mats: np.ndarray) -> bool:
    """np.allclose(m, m.T, atol=1e-8, rtol=0.0) for each finite m of a stack, minus its overhead."""
    return bool(np.abs(mats - _transposed(mats)).max(initial=0.0) <= _SYMMETRY_TOL)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over stacks of vectors (..., d), by the BLAS dot that 1-D `a @ b` calls."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _trace(mats: np.ndarray) -> np.ndarray:
    return np.trace(mats, axis1=-2, axis2=-1)


def _joint_cov(cov_xx: np.ndarray, cov_xy: np.ndarray, cov_yy: np.ndarray) -> np.ndarray:
    """The (..., d + k, d + k) covariances [[cov_xx, cov_xy], [cov_xy^T, cov_yy]] of a stack."""
    d = cov_xx.shape[-1]
    n = d + cov_yy.shape[-1]
    full = np.empty(cov_xx.shape[:-2] + (n, n))
    full[..., :d, :d] = cov_xx
    full[..., :d, d:] = cov_xy
    full[..., d:, :d] = _transposed(cov_xy)
    full[..., d:, d:] = cov_yy
    return full


def _check_carriers(covs: np.ndarray, *means: np.ndarray, moments: str, cov: str) -> np.ndarray:
    """The symmetric parts of a stack of covariances (..., d, d) that pass the carrier checks.

    `covs` and `means` must be finite, each covariance symmetric within
    1e-8, and the smallest eigenvalue of its symmetric part at least
    -PSD_EIG_TOL.  Errors name the moments and the covariance as given.
    """
    if not (np.isfinite(covs).all() and all(np.isfinite(mean).all() for mean in means)):
        raise ValueError(f"{moments} must be finite")
    if not _is_symmetric(covs):
        raise ValueError(f"{cov} must be symmetric")
    symmetric = _symmetric_part(covs)
    min_eig = np.linalg.eigvalsh(symmetric).min()
    if min_eig < -PSD_EIG_TOL:
        raise ValueError(f"{cov} is not PSD: min eigenvalue {min_eig:.3e}")
    return symmetric


def _checked_joint(
    mean_x: np.ndarray, mean_y: np.ndarray, cov_xx: np.ndarray, cov_xy: np.ndarray,
    cov_yy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric parts of cov_xx and cov_yy of a stack of joints that pass the carrier checks.

    Each argument has the same leading axes as the others; `GaussianJoint`
    passes none.
    """
    _check_carriers(
        _joint_cov(cov_xx, cov_xy, cov_yy), mean_x, mean_y,
        moments="moments", cov="joint covariance",
    )
    return _symmetric_part(cov_xx), _symmetric_part(cov_yy)


def psd_sqrt(mat: np.ndarray, *, eig_tol: float = PSD_EIG_TOL) -> np.ndarray:
    """Symmetric square root of a PSD matrix, or of each of a stack, via eigendecomposition.

    Eigenvalues in [-eig_tol, 0] are clamped to zero; anything below
    -eig_tol raises, because that is an indefinite input rather than
    round-off.

    Args:
        mat: symmetric PSD matrix, shape (d, d), or a stack of them, shape
            (..., d, d).
        eig_tol: tolerance for negative eigenvalues attributed to round-off.

    Returns:
        Symmetric S of the shape of `mat` with S @ S == mat (up to round-off).
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if not _is_symmetric(mat):
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(_symmetric_part(mat))
    if vals.min(initial=0.0) < -eig_tol:
        raise ValueError(
            f"matrix is not positive semi-definite: min eigenvalue {vals.min():.3e}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ _transposed(vecs)


def _sort_order(values: np.ndarray) -> np.ndarray:
    """The stable sort order of `values`.

    From `_CHECKED_SORT_MIN` values on, numpy's default sort runs first: it
    is several times faster than the stable one, and where the sorted values
    strictly increase the order is unique, so it is the stable order.  Any
    tie, signed zero or NaN sorts again stably.
    """
    if len(values) >= _CHECKED_SORT_MIN:
        order = np.argsort(values)
        ordered = values[order]
        if np.all(ordered[1:] > ordered[:-1]):
            return order
    return np.argsort(values, kind="stable")


def _quantile_side(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One side of the monotone 1-D coupling: `_sort_order(values)` and the
    cumulative weights taken in that order."""
    order = _sort_order(values)
    return order, np.cumsum(weights[order])


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted point cloud on R^d.

    Attributes:
        points: array of shape (n, d), all entries finite.
        weights: array of shape (n,), nonnegative, summing to 1 within 1e-9.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must have shape (n, d), got {points.shape}")
        n, d = points.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one point and one dimension, got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise ValueError("points contain non-finite entries")
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights contain non-finite entries")
        if weights.min() < 0.0:
            raise ValueError(f"weights must be nonnegative, min is {weights.min():.3e}")
        total = weights.sum()
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "weights", _freeze(weights))

    @classmethod
    def from_points(cls, points: np.ndarray) -> "EmpiricalDistribution":
        """Uniformly weighted cloud over `points`."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @functools.cached_property
    def _side(self) -> tuple[np.ndarray, np.ndarray]:
        """`_quantile_side` of a 1-D cloud, sorted on first use and kept.

        The points and weights are read-only, so the side never goes stale;
        every quantile sweep against this cloud reuses the one sort.
        """
        if self.dim != 1:
            raise ValueError(f"a quantile side needs a 1-d cloud, got dim {self.dim}")
        side = _quantile_side(self.points[:, 0], self.weights)
        for arr in side:
            arr.flags.writeable = False
        return side

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def cov(self) -> np.ndarray:
        centered = self.points - self.mean()
        return (centered * self.weights[:, None]).T @ centered


@dataclass(frozen=True)
class Gaussian1D:
    """Scalar Gaussian with strictly positive variance."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        mean = float(self.mean)
        variance = float(self.variance)
        if not np.isfinite(mean) or not np.isfinite(variance):
            raise ValueError("mean and variance must be finite")
        if variance <= 0.0:
            raise ValueError(f"variance must be positive, got {variance!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    def as_nd(self) -> "GaussianND":
        return GaussianND(np.array([self.mean]), np.array([[self.variance]]))


@dataclass(frozen=True)
class GaussianND:
    """Gaussian on R^d given by mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(self.cov, dtype=np.float64)
        d = mean.shape[0]
        if d < 1:
            raise ValueError("mean must have at least one component")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        cov = _check_carriers(cov, mean, moments="mean and cov", cov="cov")
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cov", _freeze(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def _checked_by_joint(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianND":
        """Wrap read-only moments of a validated `GaussianJoint` without re-checking."""
        law = object.__new__(cls)
        object.__setattr__(law, "mean", mean)
        object.__setattr__(law, "cov", cov)
        return law


@dataclass(frozen=True)
class GaussianJoint:
    """Joint Gaussian over (X, Y) in block-moment form.

    The input block X has dimension d and the output block Y dimension k.
    Blocks must assemble into a symmetric PSD covariance of shape
    (d + k, d + k).
    """

    mean_x: np.ndarray
    mean_y: np.ndarray
    cov_xx: np.ndarray
    cov_xy: np.ndarray
    cov_yy: np.ndarray

    def __post_init__(self) -> None:
        mean_x = np.asarray(self.mean_x, dtype=np.float64).reshape(-1)
        mean_y = np.asarray(self.mean_y, dtype=np.float64).reshape(-1)
        d, k = mean_x.shape[0], mean_y.shape[0]
        if d < 1 or k < 1:
            raise ValueError("both blocks must be nonempty")
        cov_xx = np.asarray(self.cov_xx, dtype=np.float64)
        cov_xy = np.asarray(self.cov_xy, dtype=np.float64).reshape(d, k)
        cov_yy = np.asarray(self.cov_yy, dtype=np.float64)
        if cov_xx.shape != (d, d):
            raise ValueError(f"cov_xx must have shape ({d}, {d}), got {cov_xx.shape}")
        if cov_yy.shape != (k, k):
            raise ValueError(f"cov_yy must have shape ({k}, {k}), got {cov_yy.shape}")
        cov_xx, cov_yy = _checked_joint(mean_x, mean_y, cov_xx, cov_xy, cov_yy)
        object.__setattr__(self, "mean_x", _freeze(mean_x))
        object.__setattr__(self, "mean_y", _freeze(mean_y))
        object.__setattr__(self, "cov_xx", _freeze(cov_xx))
        object.__setattr__(self, "cov_xy", _freeze(cov_xy))
        object.__setattr__(self, "cov_yy", _freeze(cov_yy))

    @property
    def dim_x(self) -> int:
        return self.mean_x.shape[0]

    @property
    def dim_y(self) -> int:
        return self.mean_y.shape[0]

    # The laws below are not re-checked. Their moments are frozen, exactly
    # symmetric and finite, and __post_init__ ran eigvalsh on the very matrix
    # that full() assembles. A principal block of it (a marginal) has, by
    # Cauchy interlacing, a smallest eigenvalue no lower than the joint's, so
    # it passes the -PSD_EIG_TOL check too.
    def x_marginal(self) -> GaussianND:
        return GaussianND._checked_by_joint(self.mean_x, self.cov_xx)

    def y_marginal(self) -> GaussianND:
        return GaussianND._checked_by_joint(self.mean_y, self.cov_yy)

    def full(self) -> GaussianND:
        mean = np.concatenate([self.mean_x, self.mean_y])
        cov = _joint_cov(self.cov_xx, self.cov_xy, self.cov_yy)
        return GaussianND._checked_by_joint(_freeze(mean), _freeze(cov))


GaussianLike = Gaussian1D | GaussianND


def _as_nd(dist: GaussianLike) -> GaussianND:
    if isinstance(dist, Gaussian1D):
        return dist.as_nd()
    if isinstance(dist, GaussianND):
        return dist
    raise TypeError(f"expected Gaussian1D or GaussianND, got {type(dist).__name__}")


def _matched(p: GaussianLike, q: GaussianLike) -> tuple[GaussianND, GaussianND]:
    p_nd, q_nd = _as_nd(p), _as_nd(q)
    if p_nd.dim != q_nd.dim:
        raise ValueError(f"dimension mismatch: {p_nd.dim} vs {q_nd.dim}")
    return p_nd, q_nd


def gaussian_kl(p: GaussianLike, q: GaussianLike) -> float:
    """KL divergence KL(p || q) between Gaussians, in nats.

    Both covariances must be nonsingular; a singular input is an error
    rather than an infinite value, since downstream callers treat +inf as
    a bug.

    Args:
        p: the distribution whose expectation the divergence is taken under.
        q: the reference distribution.

    Returns:
        0.5 * [tr(Sq^-1 Sp) - log det(Sp)/det(Sq) - d + (mp-mq)^T Sq^-1 (mp-mq)].
    """
    p_nd, q_nd = _matched(p, q)
    return float(_kl_moments(p_nd.mean, p_nd.cov, q_nd.mean, q_nd.cov))


def _kl_moments(
    mean_p: np.ndarray, cov_p: np.ndarray, mean_q: np.ndarray, cov_q: np.ndarray
) -> np.ndarray:
    """`gaussian_kl` over stacks of moments, (..., d) and (..., d, d); one value per law pair."""
    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    sign_q, logdet_q = np.linalg.slogdet(cov_q)
    if np.any(sign_p <= 0) or not np.all(np.isfinite(logdet_p)):
        raise ValueError("first covariance is singular; KL is undefined here")
    if np.any(sign_q <= 0) or not np.all(np.isfinite(logdet_q)):
        raise ValueError("second covariance is singular; KL is undefined here")
    q_inv_p = np.linalg.solve(cov_q, cov_p)
    diff = mean_p - mean_q
    quad = _dot(diff, np.linalg.solve(cov_q, diff[..., None])[..., 0])
    value = 0.5 * (_trace(q_inv_p) - cov_p.shape[-1] + logdet_q - logdet_p + quad)
    # Round-off can undershoot zero on identical laws, as the W2 Bures term does.
    return np.maximum(value, 0.0)


def gaussian_w2(p: GaussianLike, q: GaussianLike) -> float:
    """Squared 2-Wasserstein distance between Gaussians.

    Degenerate (singular PSD) covariances are fine here, unlike for
    `gaussian_kl`.

    Returns:
        ||mp - mq||^2 + tr(Sp) + tr(Sq) - 2 tr((Sp^1/2 Sq Sp^1/2)^1/2).
    """
    p_nd, q_nd = _matched(p, q)
    return float(_w2_moments(p_nd.mean, p_nd.cov, q_nd.mean, q_nd.cov))


def _w2_moments(
    mean_p: np.ndarray, cov_p: np.ndarray, mean_q: np.ndarray, cov_q: np.ndarray
) -> np.ndarray:
    """`gaussian_w2` over stacks of moments, (..., d) and (..., d, d); one value per law pair."""
    root_p = psd_sqrt(cov_p)
    cross = psd_sqrt(root_p @ cov_q @ root_p)
    diff = mean_p - mean_q
    value = _dot(diff, diff) + _trace(cov_p) + _trace(cov_q) - 2.0 * _trace(cross)
    # The Bures term can undershoot zero by round-off on near-identical inputs.
    return np.maximum(value, 0.0)


def sample(
    dist: Gaussian1D | GaussianND | GaussianJoint | EmpiricalDistribution,
    n: int,
    seed: int,
) -> EmpiricalDistribution:
    """Draw n points from `dist` as a uniformly weighted cloud.

    Sampling is deterministic in `seed`.  A GaussianJoint is sampled over
    the concatenated (x, y) space; an EmpiricalDistribution is resampled
    with replacement according to its weights.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if isinstance(dist, Gaussian1D):
        pts = rng.normal(dist.mean, np.sqrt(dist.variance), size=(n, 1))
    elif isinstance(dist, GaussianND):
        z = rng.standard_normal((n, dist.dim))
        pts = dist.mean + z @ psd_sqrt(dist.cov)
    elif isinstance(dist, GaussianJoint):
        full = dist.full()
        z = rng.standard_normal((n, full.dim))
        pts = full.mean + z @ psd_sqrt(full.cov)
    elif isinstance(dist, EmpiricalDistribution):
        idx = rng.choice(dist.size, size=n, p=dist.weights)
        pts = dist.points[idx]
    else:
        raise TypeError(f"cannot sample from {type(dist).__name__}")
    return EmpiricalDistribution.from_points(pts)
