"""Core transfer-risk operations.

A transfer setup is an input transport carrying the target inputs onto the
source inputs, the frozen source model, and an output transport carrying
the source predictions onto the target output space.  The input risk
measures how far the transported target inputs stay from the source inputs,
on sampled clouds (through `optimal_transport.wasserstein`) or in closed
form on Gaussian carriers.  The output risk measures how far the induced
prediction law stays from the target output law; here it is the closed form
on Gaussian carriers, while sampled output risks are estimated by
`finetune.minimize_output_risk`, which trains the output map.  A combiner
folds the two numbers into a single score.

Wasserstein-flavored risks are reported in cost units, i.e. W_p^p, matching
the closed forms in `gaussian_lab`.
"""

from __future__ import annotations

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
    "TransportMap",
    "IdentityMap",
    "AffineMap",
    "TransportPair",
    "RiskCombiner",
    "LinearCombiner",
    "PolynomialCombiner",
    "input_risk",
    "output_risk_w",
    "output_risk_kl",
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


class TransportMap:
    """Base class for maps between feature spaces; subclasses are callable."""

    in_dim: int
    out_dim: int

    def __call__(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def as_affine(self) -> AffineModel | None:
        """Affine representation when one exists, else None."""
        return None


@dataclass(frozen=True)
class IdentityMap(TransportMap):
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise ValueError(f"expected points of dim {self.dim}, got {points.shape[1]}")
        return points

    def as_affine(self) -> AffineModel:
        return AffineModel(np.eye(self.dim), np.zeros(self.dim))


@dataclass(frozen=True)
class AffineMap(TransportMap):
    model: AffineModel

    @property
    def in_dim(self) -> int:
        return self.model.in_dim

    @property
    def out_dim(self) -> int:
        return self.model.out_dim

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.model(points)

    def as_affine(self) -> AffineModel:
        return self.model


def _model_as_affine(model) -> AffineModel | None:
    if isinstance(model, AffineModel):
        return model
    if isinstance(model, TransportMap):
        return model.as_affine()
    return None


@dataclass(frozen=True)
class TransportPair:
    """Input transport, frozen source model, and output transport.

    The induced intermediate predictor is

        f(x) = output_map(source_model(input_map(x))).
    """

    input_map: TransportMap
    output_map: TransportMap
    source_model: AffineModel | TransportMap

    def __post_init__(self) -> None:
        if self.input_map.out_dim != self.source_model.in_dim:
            raise ValueError(
                f"input map produces dim {self.input_map.out_dim} but source model "
                f"expects {self.source_model.in_dim}"
            )
        if self.output_map.in_dim != self.source_model.out_dim:
            raise ValueError(
                f"output map expects dim {self.output_map.in_dim} but the source model "
                f"supplies dim {self.source_model.out_dim}"
            )

    def as_affine(self) -> AffineModel | None:
        """Collapse to one affine model when every component is affine."""
        out = _model_as_affine(self.output_map)
        inp = _model_as_affine(self.input_map)
        src = _model_as_affine(self.source_model)
        if out is None or inp is None or src is None:
            return None
        # s(x) = src(inp(x)) as one affine map.
        s_w = src.weights @ inp.weights
        s_b = src.weights @ inp.bias + src.bias
        return AffineModel(out.weights @ s_w, out.weights @ s_b + out.bias)


class RiskCombiner:
    """Folds (input risk, output risk) into one score.

    Subclasses must vanish at (0, 0), be monotone in each argument, and be
    Lipschitz on bounded domains; the shipped combiners satisfy all three by
    construction.
    """

    def combine(self, input_risk_value: float, output_risk_value: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearCombiner(RiskCombiner):
    """C(e_i, e_o) = e_o + weight * e_i."""

    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0.0 or not np.isfinite(self.weight):
            raise ValueError(f"weight must be a finite nonnegative real, got {self.weight}")

    def combine(self, input_risk_value: float, output_risk_value: float) -> float:
        return float(output_risk_value + self.weight * input_risk_value)


@dataclass(frozen=True)
class PolynomialCombiner(RiskCombiner):
    """C(e_i, e_o) = input_coeff * e_i + output_coeff * e_o ** power."""

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

    def combine(self, input_risk_value: float, output_risk_value: float) -> float:
        return float(
            self.input_coeff * input_risk_value
            + self.output_coeff * output_risk_value**self.power
        )


def _gaussian_pushforward(dist: GaussianLike, model: AffineModel) -> GaussianND:
    nd = _as_nd(dist)
    if model.in_dim != nd.dim:
        raise ValueError(f"map expects dim {model.in_dim}, distribution has dim {nd.dim}")
    return GaussianND(model.weights @ nd.mean + model.bias, model.weights @ nd.cov @ model.weights.T)


def input_risk(
    t_x: TransportMap,
    law_xt: EmpiricalDistribution | GaussianLike,
    law_xs: EmpiricalDistribution | GaussianLike,
    metric: str = "wasserstein",
    cfg: OtConfig = OtConfig(),
) -> float:
    """Transport cost from the pushed-forward target inputs to the source inputs.

    Computes D(t_x # law_xt, law_xs).  With the wasserstein metric the value
    is in cost units (W_p^p, order taken from cfg); with the kl metric it is
    KL(pushforward || law_xs), available on Gaussian carriers only.
    """
    if metric not in ("wasserstein", "kl"):
        raise ValueError(f"unknown metric {metric!r}, expected 'wasserstein' or 'kl'")
    if isinstance(law_xt, EmpiricalDistribution) and isinstance(law_xs, EmpiricalDistribution):
        if metric == "kl":
            raise ValueError("kl input risk is not defined for sampled carriers")
        pushed = EmpiricalDistribution(t_x(law_xt.points), law_xt.weights)
        distance, _ = wasserstein(pushed, law_xs, cfg)
        return float(distance**cfg.p)
    if isinstance(law_xt, GaussianLike) and isinstance(law_xs, GaussianLike):
        affine = t_x.as_affine()
        if affine is None:
            raise ValueError(
                f"{type(t_x).__name__} has no closed-form Gaussian pushforward; "
                "sample the distribution instead"
            )
        pushed = _gaussian_pushforward(law_xt, affine)
        if metric == "kl":
            return gaussian_kl(pushed, law_xs)
        if cfg.p != 2.0:
            raise ValueError(
                f"wasserstein input risk on Gaussian carriers is closed-form only for p=2, "
                f"got p={cfg.p}"
            )
        return gaussian_w2(pushed, law_xs)
    raise TypeError(
        f"carriers must both be empirical or both Gaussian, got "
        f"{type(law_xt).__name__} and {type(law_xs).__name__}"
    )


def output_risk_w(
    f_st: TransportPair, law_xt: GaussianLike, target_out: GaussianLike
) -> float:
    """Closed-form output risk W_2(f_st # law_xt, target_out)^2 on Gaussian carriers.

    `target_out` is the true prediction law.  Sampled output risks are
    estimated by `finetune.minimize_output_risk`, which trains the output map.
    """
    if not (isinstance(law_xt, GaussianLike) and isinstance(target_out, GaussianLike)):
        raise TypeError(
            f"output risk needs Gaussian carriers, got {type(law_xt).__name__} and "
            f"{type(target_out).__name__} (sampled output risks come from finetune)"
        )
    affine = f_st.as_affine()
    if affine is None:
        raise ValueError(
            "transport pair contains a non-affine component, so its Gaussian pushforward "
            "has no closed form"
        )
    return gaussian_w2(_gaussian_pushforward(law_xt, affine), target_out)


def output_risk_kl(p_st: GaussianLike, p_t: GaussianLike) -> float:
    """Closed-form output risk KL(p_t || p_st) of the target law from the predicted law."""
    return gaussian_kl(p_t, p_st)


def combine(combiner: RiskCombiner, input_risk_value: float, output_risk_value: float) -> float:
    """Apply a combiner to nonnegative risk values."""
    if input_risk_value < 0.0 or output_risk_value < 0.0:
        raise ValueError(
            f"risks must be nonnegative, got ({input_risk_value}, {output_risk_value})"
        )
    return combiner.combine(float(input_risk_value), float(output_risk_value))


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
