"""Core transfer-risk operations.

A transfer setup carries the target inputs onto the source inputs, applies
the frozen source model, and carries its outputs onto the target output
space.  The input transport here is the identity: the input risk is the
distance between the raw target and source input laws, on sampled clouds
(through `optimal_transport.wasserstein`) or in closed form on Gaussian
carriers.  The output risk measures how far the prediction law of an
`AffineModel` stays from the target output law; here it is the closed form
on Gaussian carriers, while sampled output risks are estimated by
`finetune.minimize_output_risk`, which trains an affine output map on the
source outputs.  `combine` folds the two numbers into a single score through
a `PolynomialCombiner`, the one combiner type; the config's `linear` form
with weight w is the combiner (w, 1, 1).

Wasserstein-flavored risks are reported in cost units, i.e. W_p^p, matching
the closed forms in `gaussian_lab`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    EmpiricalDistribution,
    GaussianLike,
    GaussianND,
    _as_nd,
    gaussian_kl,
    gaussian_w2,
)
from .optimal_transport import OtConfig, wasserstein

__all__ = [
    "AffineModel",
    "PolynomialCombiner",
    "input_risk",
    "output_risk_w",
    "combine",
    "cross_entropy_sandwich",
]


@dataclass(frozen=True)
class AffineModel:
    """Affine predictor x -> weights @ x + bias.

    Attributes:
        weights: array of shape (out_dim, in_dim).
        bias: array of shape (out_dim,).
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        weights = np.atleast_2d(np.asarray(self.weights, dtype=np.float64))
        bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if weights.shape[0] != bias.shape[0]:
            raise ValueError(
                f"bias length {bias.shape[0]} does not match output dim {weights.shape[0]}"
            )
        if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(bias)):
            raise ValueError("weights and bias must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.in_dim:
            raise ValueError(f"expected points of dim {self.in_dim}, got {points.shape[1]}")
        return points @ self.weights.T + self.bias


@dataclass(frozen=True)
class PolynomialCombiner:
    """The transfer risk C(e_i, e_o) = input_coeff * e_i + output_coeff * e_o ** power.

    `combine` evaluates it.  C vanishes at (0, 0), is monotone in each risk
    and, for power >= 1, is Lipschitz on bounded domains.  It is the only
    combiner: the config's `linear` form with weight w, C = e_o + w * e_i,
    is (w, 1, 1).
    """

    input_coeff: float
    output_coeff: float
    power: float = 2.0

    def __post_init__(self) -> None:
        for name in ("input_coeff", "output_coeff", "power"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "power" and value < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.power < 1.0:
            raise ValueError(f"power must be >= 1 for Lipschitz behavior, got {self.power}")


def _gaussian_pushforward(dist: GaussianLike, model: AffineModel) -> GaussianND:
    nd = _as_nd(dist)
    if model.in_dim != nd.dim:
        raise ValueError(f"map expects dim {model.in_dim}, distribution has dim {nd.dim}")
    return GaussianND(model.weights @ nd.mean + model.bias, model.weights @ nd.cov @ model.weights.T)


def input_risk(
    law_xt: EmpiricalDistribution | GaussianLike,
    law_xs: EmpiricalDistribution | GaussianLike,
    metric: str = "wasserstein",
    cfg: OtConfig = OtConfig(),
) -> float:
    """Transport cost D(law_xt, law_xs) from the target inputs to the source inputs.

    With the wasserstein metric the value is in cost units (W_p^p, order
    taken from cfg); with the kl metric it is KL(law_xt || law_xs), available
    on Gaussian carriers only.
    """
    if metric not in ("wasserstein", "kl"):
        raise ValueError(f"unknown metric {metric!r}, expected 'wasserstein' or 'kl'")
    if isinstance(law_xt, EmpiricalDistribution) and isinstance(law_xs, EmpiricalDistribution):
        if metric == "kl":
            raise ValueError("kl input risk is not defined for sampled carriers")
        return wasserstein(law_xt, law_xs, cfg) ** cfg.p
    if isinstance(law_xt, GaussianLike) and isinstance(law_xs, GaussianLike):
        if metric == "kl":
            return gaussian_kl(law_xt, law_xs)
        if cfg.p != 2.0:
            raise ValueError(
                f"wasserstein input risk on Gaussian carriers is closed-form only for p=2, "
                f"got p={cfg.p}"
            )
        return gaussian_w2(law_xt, law_xs)
    raise TypeError(
        f"carriers must both be empirical or both Gaussian, got "
        f"{type(law_xt).__name__} and {type(law_xs).__name__}"
    )


def output_risk_w(model: AffineModel, law_xt: GaussianLike, target_out: GaussianLike) -> float:
    """Closed-form output risk W_2(model # law_xt, target_out)^2 on Gaussian carriers.

    `model` is the whole predictor from target inputs to target outputs and
    `target_out` is the true prediction law.  Sampled output risks are
    estimated by `finetune.minimize_output_risk`, which trains the output map.
    """
    if not (isinstance(law_xt, GaussianLike) and isinstance(target_out, GaussianLike)):
        raise TypeError(
            f"output risk needs Gaussian carriers, got {type(law_xt).__name__} and "
            f"{type(target_out).__name__} (sampled output risks come from finetune)"
        )
    return gaussian_w2(_gaussian_pushforward(law_xt, model), target_out)


def combine(
    combiner: PolynomialCombiner, input_risk_value: float, output_risk_value: float
) -> float:
    """C(e_i, e_o) of nonnegative risks, the one place C is computed; an overflow is refused."""
    if input_risk_value < 0.0 or output_risk_value < 0.0:
        raise ValueError(
            f"risks must be nonnegative, got ({input_risk_value}, {output_risk_value})"
        )
    e_in, e_out = float(input_risk_value), float(output_risk_value)
    try:
        combined = combiner.input_coeff * e_in + combiner.output_coeff * e_out**combiner.power
    except OverflowError:  # float ** raises where * and + round to inf
        combined = math.inf
    if not math.isfinite(combined):
        raise ValueError(f"combined risk of ({e_in!r}, {e_out!r}) is not finite")
    return float(combined)


def cross_entropy_sandwich(
    p_st: np.ndarray, law_yt: np.ndarray, p_t: np.ndarray
) -> tuple[float, float, float]:
    """Bracket the cross-entropy gap of the predicted class law.

    For strictly positive predicted class probabilities p_st, the gap
    H(p_t, p_st) - H(law_yt, p_st) between the cross entropies of the true
    prediction law and of the observed label law lies between
    sum_i log p_st(i) and -sum_i log p_st(i).

    Returns:
        (lower, center, upper); also asserts the ordering before returning.
    """
    q = np.asarray(p_st, dtype=np.float64).reshape(-1)
    p = np.asarray(p_t, dtype=np.float64).reshape(-1)
    y = np.asarray(law_yt, dtype=np.float64).reshape(-1)
    if not (q.shape == p.shape == y.shape):
        raise ValueError("all three pmfs must have the same length")
    if q.min() <= 0.0:
        raise ValueError("p_st must be strictly positive")
    if p.min() < 0.0 or y.min() < 0.0:
        raise ValueError("pmf entries must be nonnegative")
    for name, vec in (("p_st", q), ("law_yt", y), ("p_t", p)):
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must sum to 1, got {vec.sum()!r}")
    log_q = np.log(q)
    lower = float(log_q.sum())
    upper = -lower
    center = float(-(p @ log_q) + (y @ log_q))
    assert lower - 1e-12 <= center <= upper + 1e-12
    return lower, center, upper
