"""Closed-form transfer risks for jointly Gaussian tasks.

A task is a `GaussianJoint` law of inputs X and outputs Y; its optimal linear
predictor and the induced prediction laws have explicit moments, so every
risk in `transfer_core` collapses to a formula here.  The module covers the
basic source/target case with scalar outputs, whose KL risk, W-risk, regret
and risk/regret residual all come from one `basic_case_risks` record, and the
two structured extensions: augmenting the feature space (target inputs extend
source inputs) and augmenting the output space (target outputs extend source
outputs).

The basic case and the random draws are stacked kernels: arrays with leading
stack axes hold many pairs, which the pipeline runs in blocks, and the public
functions here are the one-pair case of the same kernels.

All decompositions split a risk into a variance term, driven by mismatch of
the prediction spreads, and a bias term, driven by mismatch of the prediction
means.  KL risks are in nats; Wasserstein risks are squared distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (
    Gaussian1D,
    GaussianJoint,
    GaussianND,
    _checked_joint,
    _dot,
    _require,
    gaussian_kl,
    gaussian_w2,
)
from .transfer_core import AffineModel, _gaussian_pushforward

__all__ = [
    "RiskDecomposition",
    "BasicCase",
    "optimal_linear_model",
    "predictive_laws",
    "basic_case_risks",
    "feature_augmentation_risks",
    "output_augmentation_risks",
    "output_augmentation_laws",
    "optimal_output_initializer",
    "augment_features",
    "conditionally_independent_augmentation",
    "restrict_inputs",
    "restrict_outputs",
    "random_task",
    "random_basic_pair",
]

_EMBED_TOL = 1e-9
# The range the eigenvalues of a random task's covariances are drawn from,
# and the spread of a random task's mean.
_EIG_RANGE = (0.5, 2.0)
_MEAN_SCALE = 0.5
# The largest drift of `random_basic_pair`: the width 2 * drift of its
# uniform drifts stays finite.
_MAX_DRIFT = float(np.finfo(np.float64).max) / 2.0


@dataclass(frozen=True)
class RiskDecomposition:
    """Variance/bias split of a risk; total is their sum."""

    variance_term: float
    bias_term: float

    def __post_init__(self) -> None:
        variance = float(self.variance_term)
        bias = float(self.bias_term)
        if variance < -1e-12 or bias < -1e-12:
            raise ValueError(f"risk terms must be nonnegative, got ({variance}, {bias})")
        object.__setattr__(self, "variance_term", variance)
        object.__setattr__(self, "bias_term", bias)

    @property
    def total(self) -> float:
        return self.variance_term + self.bias_term


def _h(ratio: np.ndarray) -> np.ndarray:
    """The scalar KL kernel h(x) = (x - log x - 1) / 2, nonnegative on x > 0; elementwise."""
    return 0.5 * (ratio - np.log(ratio) - 1.0)


class _Joints(NamedTuple):
    """Moments of a stack of joints, each array with the same leading axes.

    A `GaussianJoint` has these fields with no leading axes, so every
    stacked kernel here also takes a single law.
    """

    mean_x: np.ndarray  # (..., d)
    mean_y: np.ndarray  # (..., k)
    cov_xx: np.ndarray  # (..., d, d)
    cov_xy: np.ndarray  # (..., d, k)
    cov_yy: np.ndarray  # (..., k, k)

    def at(self, index) -> "_Joints":
        """The stack indexed by `index` on its leading axes."""
        return _Joints(*(moment[index] for moment in self))

    def law(self, index) -> GaussianJoint:
        """The joint at `index` of the leading axes, checked as it is built."""
        return GaussianJoint(*self.at(index))

    def checked(self) -> "_Joints":
        """The stack after the `GaussianJoint` checks, covariance blocks symmetrised."""
        cov_xx, cov_yy = _checked_joint(*self)
        return self._replace(cov_xx=cov_xx, cov_yy=cov_yy)


def _regression_weights(cov_xx: np.ndarray, cov_xy: np.ndarray) -> np.ndarray:
    """cov_xx^-1 cov_xy, (..., d, k), over a stack; a singular input covariance is refused."""
    sign, logdet = np.linalg.slogdet(cov_xx)
    if np.any(sign <= 0) or not np.all(np.isfinite(logdet)):
        raise ValueError("input covariance is singular; the optimal model is not unique")
    return np.linalg.solve(cov_xx, cov_xy)


def optimal_linear_model(joint: GaussianJoint) -> AffineModel:
    """Bayes-optimal affine predictor of Y from X under squared loss.

    weights = (cov_xx^-1 cov_xy)^T and bias = mean_y - weights @ mean_x;
    requires a nonsingular input covariance.
    """
    w = _regression_weights(joint.cov_xx, joint.cov_xy)  # (d, k)
    bias = joint.mean_y - w.T @ joint.mean_x
    return AffineModel(w.T, bias)


def _quad(a: np.ndarray, mats: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T M b over stacks, evaluated as the 1-D `a @ M @ b` is."""
    return ((a[..., None, :] @ mats) @ b[..., :, None])[..., 0, 0]


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 rounded as a Python or numpy scalar's ** 2 is (libm pow, not x * x)."""
    return np.float_power(x, 2.0)


class _BasicCases(NamedTuple):
    """The basic-case closed forms of a stack of pairs, one array per quantity."""

    var_st: np.ndarray
    var_t: np.ndarray
    bias: np.ndarray
    kl_variance: np.ndarray
    kl_bias: np.ndarray
    w_variance: np.ndarray
    w_bias: np.ndarray
    regret: np.ndarray
    residual: np.ndarray


def _basic_cases(source: _Joints | GaussianJoint, target: _Joints | GaussianJoint) -> _BasicCases:
    """The closed forms of `basic_case_risks` for stacks of scalar-output pairs.

    Raises:
        ValueError: when a prediction variance on the target inputs
            vanishes; the prediction laws and the KL split are undefined
            there and no clamped value is returned.
    """
    w_s = _regression_weights(source.cov_xx, source.cov_xy)[..., 0]
    w_t = _regression_weights(target.cov_xx, target.cov_xy)[..., 0]
    cov_tx = target.cov_xx
    var_st = _quad(w_s, cov_tx, w_s)
    var_t = _quad(w_t, cov_tx, w_t)
    if np.any(var_st <= 0.0) or np.any(var_t <= 0.0):
        raise ValueError(
            "degenerate prediction law: a predictor has zero variance on the target inputs"
        )
    bias = target.mean_y[..., 0] - source.mean_y[..., 0] - _dot(w_s, target.mean_x - source.mean_x)
    bias_sq = _square(bias)
    gap = w_t - w_s
    return _BasicCases(
        var_st=var_st,
        var_t=var_t,
        bias=bias,
        kl_variance=_h(var_t / var_st),
        kl_bias=bias_sq / (2.0 * var_st),
        w_variance=_square(np.sqrt(var_st) - np.sqrt(var_t)),
        w_bias=bias_sq,
        regret=_quad(gap, cov_tx, gap) + bias_sq,
        residual=2.0 * (np.sqrt(var_t * var_st) - _quad(w_t, cov_tx, w_s)),
    )


def _scalar_pair(source: GaussianJoint, target: GaussianJoint) -> _BasicCases:
    """`_basic_cases` of one pair, after checking that it is a basic case."""
    if source.dim_y != 1 or target.dim_y != 1:
        raise ValueError(
            f"basic case needs scalar outputs, got dims {source.dim_y} and {target.dim_y}"
        )
    if source.dim_x != target.dim_x:
        raise ValueError(
            f"input dimension mismatch: source {source.dim_x}, target {target.dim_x}"
        )
    return _basic_cases(source, target)


def predictive_laws(
    source: GaussianJoint, target: GaussianJoint
) -> tuple[Gaussian1D, Gaussian1D]:
    """Prediction laws on the target inputs: (source model's, target model's).

    The first law is what the frozen source predictor outputs on target
    inputs; the second is what the target-optimal predictor outputs.  Both
    are the closed-form counterparts of pushing the target input law through
    the respective affine models.
    """
    case = _scalar_pair(source, target)
    mean_t = float(target.mean_y[0])
    return Gaussian1D(mean_t - float(case.bias), case.var_st), Gaussian1D(mean_t, case.var_t)


class BasicCase(NamedTuple):
    """Closed-form risks of reusing the source predictor on the target task."""

    kl: RiskDecomposition
    w: RiskDecomposition
    regret: float
    residual: float


def basic_case_risks(source: GaussianJoint, target: GaussianJoint) -> BasicCase:
    """Output risks, regret and residual of reusing the source predictor.

    With var_ST = w_S^T cov_TX w_S and var_T = w_T^T cov_TX w_T the
    prediction variances of the source and target models on the target
    inputs, and bias the prediction-mean gap:

    - kl: KL(P_T || P_ST) splits into h(var_T / var_ST) plus bias^2 / (2 var_ST);
    - w: the squared-W2 risk splits into (sqrt(var_ST) - sqrt(var_T))^2 plus bias^2;
    - regret: (w_T - w_S)^T cov_TX (w_T - w_S) + bias^2, the excess squared
      loss E[(Y - f_S(X))^2] - E[(Y - f_T(X))^2] of the source predictor on
      the target task;
    - residual: 2 (sqrt(var_T var_ST) - w_T^T cov_TX w_S) = regret - w.total,
      nonnegative by Cauchy-Schwarz in the cov_TX inner product, which is
      exactly why the squared-W2 risk never exceeds the regret.  Identical
      tasks give exactly 0.0.
    """
    case = _scalar_pair(source, target)
    return BasicCase(
        RiskDecomposition(case.kl_variance, case.kl_bias),
        RiskDecomposition(case.w_variance, case.w_bias),
        float(case.regret),
        float(case.residual),
    )


def _check_embedding(actual: np.ndarray, expected: np.ndarray, label: str) -> None:
    if not np.allclose(actual, expected, atol=_EMBED_TOL, rtol=0.0):
        raise ValueError(f"target does not embed the source blocks: {label} differs")


def feature_augmentation_risks(
    source: GaussianJoint, target: GaussianJoint
) -> tuple[RiskDecomposition, RiskDecomposition]:
    """Output risks when the target task adds feature coordinates.

    The target input space extends the source input space: leading blocks of
    the target moments must equal the source moments exactly, and the target
    output is the same scalar.  The pretrained model reads only the original
    coordinates, so its prediction law on the target inputs coincides with
    its law on the source task, the bias vanishes, and both risks reduce to
    the explained-variance ratio r = var_T / var_S:

        kl = (h(r), 0)    w = ((sqrt(var_T) - sqrt(var_S))^2, 0)

    where var = cov_YX cov_XX^-1 cov_XY for each task.
    """
    if source.dim_y != 1 or target.dim_y != 1:
        raise ValueError("feature augmentation needs scalar outputs")
    d = source.dim_x
    if target.dim_x <= d:
        raise ValueError(
            f"target must add feature coordinates: source dim {d}, target dim {target.dim_x}"
        )
    _check_embedding(target.mean_x[:d], source.mean_x, "input mean")
    _check_embedding(target.cov_xx[:d, :d], source.cov_xx, "input covariance")
    _check_embedding(target.mean_y, source.mean_y, "output mean")
    _check_embedding(target.cov_xy[:d, :], source.cov_xy, "input-output covariance")
    _check_embedding(target.cov_yy, source.cov_yy, "output variance")

    def explained_variance(joint: GaussianJoint) -> float:
        return float(joint.cov_xy[:, 0] @ np.linalg.solve(joint.cov_xx, joint.cov_xy[:, 0]))

    var_s = explained_variance(source)
    var_t = explained_variance(target)
    if var_s <= 0.0 or var_t <= 0.0:
        raise ValueError("degenerate prediction law: explained variance vanishes")
    kl = RiskDecomposition(_h(var_t / var_s), 0.0)
    w = RiskDecomposition((np.sqrt(var_t) - np.sqrt(var_s)) ** 2, 0.0)
    return kl, w


def _split_output_blocks(source: GaussianJoint, target: GaussianJoint):
    """Validate the output-augmentation embedding and return (d, l, k)."""
    d, l = source.dim_x, source.dim_y
    if target.dim_x != d:
        raise ValueError(f"input dimension mismatch: source {d}, target {target.dim_x}")
    if target.dim_y <= l:
        raise ValueError(
            f"target must add output coordinates: source dim {l}, target dim {target.dim_y}"
        )
    _check_embedding(target.mean_x, source.mean_x, "input mean")
    _check_embedding(target.cov_xx, source.cov_xx, "input covariance")
    _check_embedding(target.mean_y[:l], source.mean_y, "output mean")
    _check_embedding(target.cov_xy[:, :l], source.cov_xy, "input-output covariance")
    _check_embedding(target.cov_yy[:l, :l], source.cov_yy, "output covariance")
    return d, l, target.dim_y - l


def output_augmentation_laws(
    source: GaussianJoint, target: GaussianJoint, initializer: AffineModel
) -> tuple[GaussianND, GaussianND]:
    """Prediction laws (P_ST, P_T) when the target adds output coordinates.

    The intermediate model stacks the frozen source predictor with the
    initializer on the new coordinates; the target model is the optimal
    predictor of the full output vector.  Both laws are Gaussians on
    R^(l + k) with explicit moments.
    """
    d, l, k = _split_output_blocks(source, target)
    if initializer.in_dim != d or initializer.out_dim != k:
        raise ValueError(
            f"initializer must map inputs (dim {d}) to the new outputs (dim {k}), "
            f"got {initializer.in_dim} -> {initializer.out_dim}"
        )
    source_model = optimal_linear_model(source)
    stacked = AffineModel(
        np.vstack([source_model.weights, initializer.weights]),
        np.concatenate([source_model.bias, initializer.bias]),
    )
    x_law = target.x_marginal()
    return (
        _gaussian_pushforward(x_law, stacked),
        _gaussian_pushforward(x_law, optimal_linear_model(target)),
    )


def output_augmentation_risks(
    source: GaussianJoint, target: GaussianJoint, initializer: AffineModel
) -> tuple[float, float, RiskDecomposition]:
    """Risks of the stacked predictor when the target adds output coordinates.

    Returns (kl, w, decomposition): kl is KL(P_T || P_ST) via the
    trace/log-det form, w the squared W2 between the same laws, and the
    decomposition recomputes the same KL as an eigenvalue sum
    sum_i (lam_i - log lam_i - 1) / 2 over the generalized eigenvalues of
    (cov_T, cov_ST) plus the explicit bias quadratic form, giving an
    independent route to the identical total.
    """
    from scipy.linalg import eigh

    p_st, p_t = output_augmentation_laws(source, target, initializer)
    sign, _ = np.linalg.slogdet(p_st.cov)
    if sign <= 0:
        raise ValueError(
            "intermediate prediction covariance is singular; pick an initializer with "
            "nonzero response on the new outputs"
        )
    kl = gaussian_kl(p_t, p_st)
    w = gaussian_w2(p_t, p_st)
    lams = eigh(p_t.cov, p_st.cov, eigvals_only=True)
    if lams.min() <= 0.0:
        raise ValueError("target prediction covariance is singular; KL split is undefined")
    variance = float(0.5 * np.sum(lams - np.log(lams) - 1.0))
    diff = p_t.mean - p_st.mean
    bias = float(0.5 * diff @ np.linalg.solve(p_st.cov, diff))
    return kl, w, RiskDecomposition(variance, bias)


def optimal_output_initializer(source: GaussianJoint, target: GaussianJoint) -> AffineModel:
    """Initializer matching the optimal predictor of the new output block.

    With weights cov_SX^-1 cov_X,new and the mean-matching bias the stacked
    intermediate law coincides with the target prediction law, so both
    augmentation risks vanish.
    """
    d, l, _ = _split_output_blocks(source, target)
    w = np.linalg.solve(source.cov_xx, target.cov_xy[:, l:])
    bias = target.mean_y[l:] - w.T @ source.mean_x
    return AffineModel(w.T, bias)


def augment_features(
    source: GaussianJoint,
    mean_new: np.ndarray,
    cov_new: np.ndarray,
    cov_cross: np.ndarray,
    cov_new_y: np.ndarray,
) -> GaussianJoint:
    """Extend a scalar-output task with new feature coordinates.

    Args:
        mean_new: mean of the added coordinates, shape (k,).
        cov_new: covariance of the added coordinates, shape (k, k).
        cov_cross: covariance between original and added coordinates (d, k).
        cov_new_y: covariance between added coordinates and the output (k, 1).

    The assembled joint must be PSD; the container validates that.
    """
    if source.dim_y != 1:
        raise ValueError("feature augmentation needs a scalar output")
    mean_new = np.asarray(mean_new, dtype=float).reshape(-1)
    k = mean_new.shape[0]
    cov_new = np.asarray(cov_new, dtype=float).reshape(k, k)
    cov_cross = np.asarray(cov_cross, dtype=float).reshape(source.dim_x, k)
    cov_new_y = np.asarray(cov_new_y, dtype=float).reshape(k, 1)
    return GaussianJoint(
        mean_x=np.concatenate([source.mean_x, mean_new]),
        mean_y=source.mean_y,
        cov_xx=np.block([[source.cov_xx, cov_cross], [cov_cross.T, cov_new]]),
        cov_xy=np.vstack([source.cov_xy, cov_new_y]),
        cov_yy=source.cov_yy,
    )


def conditionally_independent_augmentation(
    source: GaussianJoint,
    mean_new: np.ndarray,
    cov_new: np.ndarray,
    cov_cross: np.ndarray,
) -> GaussianJoint:
    """Feature augmentation whose new coordinates add no predictive value.

    Choosing cov_new_y = cov_cross^T cov_XX^-1 cov_XY makes the output
    conditionally independent of the new coordinates given the original
    ones, so the optimal target predictor ignores them and the transfer
    risks vanish.
    """
    cov_cross = np.asarray(cov_cross, dtype=float).reshape(source.dim_x, -1)
    cov_new_y = cov_cross.T @ np.linalg.solve(source.cov_xx, source.cov_xy)
    return augment_features(source, mean_new, cov_new, cov_cross, cov_new_y)


def restrict_inputs(task: GaussianJoint, keep: int) -> GaussianJoint:
    """Sub-task over the first `keep` input coordinates."""
    _require(1 <= keep <= task.dim_x, "keep", f"in [1, {task.dim_x}]", keep)
    return GaussianJoint(
        mean_x=task.mean_x[:keep],
        mean_y=task.mean_y,
        cov_xx=task.cov_xx[:keep, :keep],
        cov_xy=task.cov_xy[:keep, :],
        cov_yy=task.cov_yy,
    )


def restrict_outputs(task: GaussianJoint, keep: int) -> GaussianJoint:
    """Sub-task over the first `keep` output coordinates."""
    _require(1 <= keep <= task.dim_y, "keep", f"in [1, {task.dim_y}]", keep)
    return GaussianJoint(
        mean_x=task.mean_x,
        mean_y=task.mean_y[:keep],
        cov_xx=task.cov_xx,
        cov_xy=task.cov_xy[:, :keep],
        cov_yy=task.cov_yy[:keep, :keep],
    )


def _rotated(normal: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """(Q * eigs) @ Q^T for the Q factor of each matrix of a stack of normal draws."""
    basis, _ = np.linalg.qr(normal)
    return (basis * eigs[..., None, :]) @ np.swapaxes(basis, -1, -2)


def _uniform(low, high, draws: np.ndarray) -> np.ndarray:
    """`draws` in [0, 1) mapped to [low, high) as `uniform` maps them: low + (high - low) * u."""
    return low + (high - low) * draws


def _check_draws(drift: float | None = None, **dims: int) -> None:
    """Refuse a dimension below 1 or a drift, when given, outside [0, `_MAX_DRIFT`]."""
    for name, dim in dims.items():
        _require(dim >= 1, name, ">= 1", dim)
    if drift is not None:
        _require(drift >= 0.0, "drift", ">= 0", drift)
        rule = f"at most {_MAX_DRIFT!r}, so that 2 * drift is finite"
        _require(drift <= _MAX_DRIFT, "drift", rule, drift)


def _random_tasks(dim_x: int, dim_y: int, seeds) -> _Joints:
    """Unchecked moments of `random_task` at each of `seeds`, stacked on one leading axis.

    Task i reads its own default_rng(seeds[i]) in the order `random_task`
    documents, with one fill of that stream per run of draws of one kind:
    the numbers are those of the plain `normal` and `uniform` calls, with
    the range maps applied over the whole stack after the draws.
    """
    _check_draws(dim_x=dim_x, dim_y=dim_y)
    n = dim_x + dim_y
    normal = np.empty((len(seeds), n, n))
    eigs = np.empty((len(seeds), n))
    mean = np.empty((len(seeds), n))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=normal[i])
        rng.random(out=eigs[i])
        rng.standard_normal(out=mean[i])
    full = _rotated(normal, _uniform(*_EIG_RANGE, eigs))
    mean *= _MEAN_SCALE
    return _Joints(
        mean[:, :dim_x], mean[:, dim_x:],
        full[:, :dim_x, :dim_x], full[:, :dim_x, dim_x:], full[:, dim_x:, dim_x:],
    )


def random_task(dim_x: int, dim_y: int, seed: int) -> GaussianJoint:
    """Random nondegenerate task with controlled spectrum and mean scale.

    The full (X, Y) covariance is drawn with eigenvalues uniform in
    `_EIG_RANGE` under a Haar-random basis, which keeps every conditional
    covariance nonsingular and the risk magnitudes O(1); the mean is normal
    with scale `_MEAN_SCALE`.  Every number comes from default_rng(seed),
    in this order: the (n, n) normal matrix whose Q factor is the basis
    (n = dim_x + dim_y), the n eigenvalues, the n mean coordinates.  A
    dimension below 1 is refused.
    """
    return _random_tasks(dim_x, dim_y, [seed]).law(0)


def _regression_joints(
    mean_x: np.ndarray, cov_xx: np.ndarray, w: np.ndarray, b: np.ndarray, noise_var: np.ndarray
) -> _Joints:
    """Joints of Y = w . X + b + noise over stacks of input laws and weights."""
    return _Joints(
        mean_x=mean_x,
        mean_y=(_dot(w, mean_x) + b)[..., None],
        cov_xx=cov_xx,
        cov_xy=cov_xx @ w[..., None],
        cov_yy=(_quad(w, cov_xx, w) + noise_var)[..., None, None],
    )


def _random_pairs(dim: int, seeds, drift: float = 0.25) -> _Joints:
    """Unchecked moments of `random_basic_pair` at each of `seeds`.

    The leading axes are (2, len(seeds)): [0] holds the sources and [1] the
    targets.  Pair i reads its own default_rng(seeds[i]) in the order
    `random_basic_pair` documents, so its moments do not depend on the
    stack it is in.  It reads that stream in six fills, one per run of
    draws of one kind, into buffers laid out in stream order; the uniform
    blocks are mapped to their ranges over the whole stack after the draws,
    as `uniform` maps each, so the numbers are those of the 13 plain calls.
    """
    _check_draws(drift, dim=dim)
    count = len(seeds)
    normal = np.empty((2, count, dim, dim))
    direction = np.empty((count, dim))  # the direction of the source weights
    # Uniform draws in [0, 1) until mapped below.
    source_draws = np.empty((count, 2 * dim))  # eigenvalues, input mean
    scalar_draws = np.empty((count, 3))  # weight norm, bias, noise
    target_draws = np.empty((count, 3 * dim + 2))  # eigenvalues, drifts, noise
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=normal[0, i])
        rng.random(out=source_draws[i])
        rng.standard_normal(out=direction[i])
        rng.random(out=scalar_draws[i])
        rng.standard_normal(out=normal[1, i])
        rng.random(out=target_draws[i])
    eigs_s, mean_s = np.split(source_draws, [dim], axis=1)
    scale, b_s, noise_s = scalar_draws.T
    eigs_t, drifts, noise_t = np.split(target_draws, [dim, 3 * dim + 1], axis=1)
    # The target's drifts from the source: of the input mean, the weights, the bias.
    drifts = _uniform(-drift, drift, drifts)
    mean_x = np.stack((_uniform(-0.5, 0.5, mean_s), drifts[:, :dim]))
    w = np.stack((direction, drifts[:, dim:-1]))
    b = np.stack((_uniform(-0.5, 0.5, b_s), drifts[:, -1]))
    noise = _uniform(0.4, 1.0, np.stack((noise_s, noise_t[:, 0])))
    # QR draws nothing, so it runs after every draw.
    cov_xx = _rotated(normal, _uniform(*_EIG_RANGE, np.stack((eigs_s, eigs_t))))
    # Convex blending keeps the target input spectrum inside `_EIG_RANGE`.
    cov_xx[1] = 0.8 * cov_xx[0] + 0.2 * cov_xx[1]
    # |w| as np.linalg.norm takes it for one vector: sqrt(w . w).
    w[0] = w[0] / np.sqrt(_dot(w[0], w[0]))[:, None] * _uniform(0.7, 1.1, scale)[:, None]
    for drifted in (mean_x, w, b):
        drifted[1] += drifted[0]
    return _regression_joints(mean_x, cov_xx, w, b, noise)


def random_basic_pair(
    dim: int, seed: int, drift: float = 0.25
) -> tuple[GaussianJoint, GaussianJoint]:
    """Random scalar-output source task plus a drifted target task.

    Both joints come from a linear model Y = w . X + b + noise.  The target
    drifts from the source in every component (input law, weights, bias,
    noise level).  Bounded weights and bounded drift keep both risks and the
    spread of their naive Monte-Carlo estimators O(1), so sampled
    cross-checks can use absolute tolerances.

    Every number comes from default_rng(seed), in this order.  The source:
    its (dim, dim) normal matrix whose Q factor is the basis of its input
    covariance, dim eigenvalues uniform in `_EIG_RANGE`, dim input-mean
    coordinates uniform in [-0.5, 0.5), dim normal weight coordinates (a
    direction), the weight norm uniform in [0.7, 1.1), the bias uniform in
    [-0.5, 0.5), the noise variance uniform in [0.4, 1.0).  The target:
    its normal matrix and dim eigenvalues as the source's (its input
    covariance is 0.8 of the source's plus 0.2 of that one), then drifts
    uniform in [-drift, drift) of the dim input-mean coordinates, the dim
    weights and the bias, and its noise variance uniform in [0.4, 1.0).

    Raises:
        ValueError: when dim is below 1, drift is negative or 2 * drift is
            not finite.
    """
    pair = _random_pairs(dim, [seed], drift)
    return pair.law((0, 0)), pair.law((1, 0))
