"""Core transfer-risk operations.

A transfer setup is described by a pair of transport maps: one carrying the
target input distribution onto the source inputs, and one carrying source
predictions (and optionally the raw target inputs) onto the target output
space.  The input risk measures how far the transported target inputs stay
from the source inputs; the output risk measures how far the induced
prediction distribution stays from the target outputs.  A combiner folds the
two numbers into a single score, and `transfer_risk` minimizes that score
over a candidate set of map pairs.

Wasserstein-flavored risks are reported in cost units, i.e. W_p^p, matching
the closed forms in `gaussian_lab`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

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
    "RiskReport",
    "input_risk",
    "output_risk_w",
    "output_risk_kl",
    "combine",
    "transfer_risk",
    "cross_entropy_sandwich",
]

_MODES = ("xy", "y_only", "x_only")


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
    """Input transport, output transport, and the frozen source model.

    The induced intermediate predictor is

        f(x) = output_map(x, s)   with s = source_model(input_map(x)),

    where `mode` controls what the output transport sees: 'xy' feeds the
    concatenation (x, s), 'y_only' feeds s alone, and 'x_only' feeds x alone
    (the source model may then be omitted).
    """

    input_map: TransportMap
    output_map: TransportMap
    source_model: AffineModel | TransportMap | None
    mode: str = "y_only"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {_MODES}")
        if self.source_model is None and self.mode != "x_only":
            raise ValueError(f"mode {self.mode!r} needs a source model")
        if self.source_model is not None:
            if self.input_map.out_dim != self.source_model.in_dim:
                raise ValueError(
                    f"input map produces dim {self.input_map.out_dim} but source model "
                    f"expects {self.source_model.in_dim}"
                )
        d_in = self.input_map.in_dim
        if self.mode == "xy":
            expected = d_in + self.source_model.out_dim
        elif self.mode == "y_only":
            expected = self.source_model.out_dim
        else:
            expected = d_in
        if self.output_map.in_dim != expected:
            raise ValueError(
                f"output map expects dim {self.output_map.in_dim} but mode {self.mode!r} "
                f"supplies dim {expected}"
            )

    @property
    def in_dim(self) -> int:
        return self.input_map.in_dim

    @property
    def out_dim(self) -> int:
        return self.output_map.out_dim

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the intermediate predictor on a batch of target inputs."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.mode == "x_only":
            return self.output_map(points)
        source_out = self.source_model(self.input_map(points))
        if self.mode == "y_only":
            return self.output_map(source_out)
        return self.output_map(np.concatenate([points, source_out], axis=1))

    def as_affine(self) -> AffineModel | None:
        """Collapse to one affine model when every component is affine."""
        out = _model_as_affine(self.output_map)
        if out is None:
            return None
        if self.mode == "x_only":
            return out
        inp = _model_as_affine(self.input_map)
        src = _model_as_affine(self.source_model)
        if inp is None or src is None:
            return None
        # s(x) = src(inp(x)) as one affine map.
        s_w = src.weights @ inp.weights
        s_b = src.weights @ inp.bias + src.bias
        if self.mode == "y_only":
            return AffineModel(out.weights @ s_w, out.weights @ s_b + out.bias)
        d_in = self.input_map.in_dim
        w_x, w_s = out.weights[:, :d_in], out.weights[:, d_in:]
        return AffineModel(w_x + w_s @ s_w, w_s @ s_b + out.bias)


class RiskCombiner:
    """Folds (input risk, output risk) into one score.

    Subclasses must vanish at (0, 0), be monotone in each argument, and be
    Lipschitz on bounded domains; the shipped combiners satisfy all three by
    construction.
    """

    tag: str

    def combine(self, input_risk_value: float, output_risk_value: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearCombiner(RiskCombiner):
    """C(e_i, e_o) = e_o + weight * e_i."""

    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0.0 or not np.isfinite(self.weight):
            raise ValueError(f"weight must be a finite nonnegative real, got {self.weight}")

    @property
    def tag(self) -> str:
        return f"linear(weight={self.weight:g})"

    def combine(self, input_risk_value: float, output_risk_value: float) -> float:
        return float(output_risk_value + self.weight * input_risk_value)


@dataclass(frozen=True)
class PolynomialCombiner(RiskCombiner):
    """C(e_i, e_o) = input_coeff * e_i + output_coeff * e_o ** power."""

    input_coeff: float
    output_coeff: float
    power: float = 2.0

    def __post_init__(self) -> None:
        if self.input_coeff < 0.0 or self.output_coeff < 0.0:
            raise ValueError("coefficients must be nonnegative")
        if self.power < 1.0:
            raise ValueError(f"power must be >= 1 for Lipschitz behavior, got {self.power}")

    @property
    def tag(self) -> str:
        return (
            f"polynomial(input={self.input_coeff:g}, output={self.output_coeff:g}, "
            f"power={self.power:g})"
        )

    def combine(self, input_risk_value: float, output_risk_value: float) -> float:
        return float(
            self.input_coeff * input_risk_value
            + self.output_coeff * output_risk_value**self.power
        )


@dataclass(frozen=True)
class RiskReport:
    """Risk numbers for one transport pair, as used by the pipeline."""

    input_risk: float
    output_risk: float
    combined: float
    combiner: str
    divergence: str
    approximation: bool


def _gaussian_pushforward(dist: GaussianLike, model: AffineModel) -> GaussianND:
    nd = _as_nd(dist)
    if model.in_dim != nd.dim:
        raise ValueError(f"map expects dim {model.in_dim}, distribution has dim {nd.dim}")
    return GaussianND(model.weights @ nd.mean + model.bias, model.weights @ nd.cov @ model.weights.T)


def _require_w2_order(p: float, context: str) -> None:
    if p != 2.0:
        raise ValueError(
            f"{context} on Gaussian carriers is closed-form only for p=2, got p={p}"
        )


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
        _require_w2_order(cfg.p, "wasserstein input risk")
        return gaussian_w2(pushed, law_xs)
    raise TypeError(
        f"carriers must both be empirical or both Gaussian, got "
        f"{type(law_xt).__name__} and {type(law_xs).__name__}"
    )


def _predictive_distribution(
    f_st: TransportPair, law_xt: EmpiricalDistribution | GaussianLike
) -> EmpiricalDistribution | GaussianND:
    if isinstance(law_xt, EmpiricalDistribution):
        return EmpiricalDistribution(f_st.apply(law_xt.points), law_xt.weights)
    affine = f_st.as_affine()
    if affine is None:
        raise ValueError(
            "transport pair contains a non-affine component; Gaussian carriers need an "
            "affine pair (sample the distribution instead)"
        )
    return _gaussian_pushforward(law_xt, affine)


def output_risk_w(
    f_st: TransportPair,
    law_xt: EmpiricalDistribution | GaussianLike,
    target_out: EmpiricalDistribution | GaussianLike,
    p: float = 2.0,
    cfg: OtConfig = OtConfig(),
) -> float:
    """Wasserstein output risk W_p(f_st # law_xt, target_out)^p.

    `target_out` is the true prediction law when it is known (Gaussian
    carriers) and otherwise the observed target-output proxy.
    """
    predicted = _predictive_distribution(f_st, law_xt)
    if isinstance(predicted, EmpiricalDistribution):
        if not isinstance(target_out, EmpiricalDistribution):
            raise TypeError(
                "sampled inputs need a sampled target output law, got "
                f"{type(target_out).__name__}"
            )
        distance, _ = wasserstein(predicted, target_out, replace(cfg, p=p))
        return float(distance**p)
    if not isinstance(target_out, GaussianLike):
        raise TypeError(
            f"Gaussian inputs need a Gaussian target output law, got {type(target_out).__name__}"
        )
    _require_w2_order(p, "wasserstein output risk")
    return gaussian_w2(predicted, target_out)


def output_risk_kl(
    p_st: GaussianLike | np.ndarray,
    p_t: GaussianLike | np.ndarray,
    smoothing: float = 0.0,
) -> float:
    """KL output risk KL(p_t || p_st) of the target law from the predicted law.

    Gaussian carriers use the closed form.  Discrete carriers are probability
    vectors over a shared index set; `smoothing` adds mass epsilon to every
    cell of both vectors (renormalizing) before taking the divergence, and a
    target cell with mass outside the predicted support raises unless
    smoothing is positive, since the singular part of the decomposition is
    not represented here.
    """
    if isinstance(p_st, GaussianLike) and isinstance(p_t, GaussianLike):
        return gaussian_kl(p_t, p_st)
    if isinstance(p_st, GaussianLike) or isinstance(p_t, GaussianLike):
        raise TypeError("carriers must both be Gaussian or both discrete")
    q = np.asarray(p_st, dtype=np.float64).reshape(-1)
    p = np.asarray(p_t, dtype=np.float64).reshape(-1)
    if q.shape != p.shape:
        raise ValueError(f"pmf length mismatch: {q.shape[0]} vs {p.shape[0]}")
    if q.min() < 0.0 or p.min() < 0.0:
        raise ValueError("pmf entries must be nonnegative")
    for name, vec in (("p_st", q), ("p_t", p)):
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must sum to 1, got {vec.sum()!r}")
    if smoothing < 0.0:
        raise ValueError("smoothing must be nonnegative")
    if smoothing > 0.0:
        q = (q + smoothing) / (1.0 + smoothing * q.shape[0])
        p = (p + smoothing) / (1.0 + smoothing * p.shape[0])
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        raise ValueError(
            "target law puts mass outside the predicted support; the divergence has a "
            "singular part (pass smoothing > 0 to regularize)"
        )
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def combine(combiner: RiskCombiner, input_risk_value: float, output_risk_value: float) -> float:
    """Apply a combiner to nonnegative risk values."""
    if input_risk_value < 0.0 or output_risk_value < 0.0:
        raise ValueError(
            f"risks must be nonnegative, got ({input_risk_value}, {output_risk_value})"
        )
    return combiner.combine(float(input_risk_value), float(output_risk_value))


def transfer_risk(
    candidates: Sequence[TransportPair],
    law_xt: EmpiricalDistribution | GaussianLike,
    law_xs: EmpiricalDistribution | GaussianLike,
    target_out: EmpiricalDistribution | GaussianLike,
    combiner: RiskCombiner,
    divergence: str = "wasserstein",
    cfg: OtConfig = OtConfig(),
) -> tuple[RiskReport, int]:
    """Minimize the combined risk over a candidate set of transport pairs.

    Input risk always uses the wasserstein metric (order cfg.p); `divergence`
    selects how the output risk is measured.  Ties are broken toward the
    lowest candidate index.  A sampled target_out is the observed output law
    standing in for the true prediction law, so its report is marked
    approximate.

    Returns:
        (report for the best candidate, its index).
    """
    if len(candidates) == 0:
        raise ValueError("need at least one candidate transport pair")
    if divergence not in ("wasserstein", "kl"):
        raise ValueError(f"unknown divergence {divergence!r}")
    approximate = isinstance(target_out, EmpiricalDistribution)

    best: tuple[float, int, RiskReport] | None = None
    for index, candidate in enumerate(candidates):
        e_i = input_risk(candidate.input_map, law_xt, law_xs, "wasserstein", cfg)
        if divergence == "wasserstein":
            e_o = output_risk_w(candidate, law_xt, target_out, cfg.p, cfg)
        else:
            predicted = _predictive_distribution(candidate, law_xt)
            if isinstance(predicted, EmpiricalDistribution):
                raise ValueError("kl output risk needs Gaussian carriers")
            e_o = output_risk_kl(predicted, target_out)
        combined = combine(combiner, e_i, e_o)
        if best is None or combined < best[0]:
            report = RiskReport(
                input_risk=e_i,
                output_risk=e_o,
                combined=combined,
                combiner=combiner.tag,
                divergence=divergence,
                approximation=approximate,
            )
            best = (combined, index, report)
    assert best is not None
    return best[2], best[1]


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
