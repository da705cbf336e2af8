"""Gradient-descent training for output transport maps and classifier heads.

Two training problems live here.  The first descends the output transport
risk: given the law of a frozen source model's outputs on the target inputs,
fit an affine map on top of them so the pushforward matches the target
output law, and report the achieved Wasserstein risk under a fixed epoch
budget.
The second is a plain softmax classifier head used to measure transfer
accuracy on held-out data.  Both run one epoch loop, `_descend`; they differ
in its stop rule (the exact budget against a plateau), its improvement test
(strict against `_PLATEAU_TOL`) and what follows it (one more evaluation of
the output map against scoring the head on the held-out split).

Output maps are scalar.  The risk objective is the exact quantile-coupling
Wasserstein cost W_p^p, which is piecewise smooth in the parameters;
training uses its subgradient with ties resolved to zero, and the reported
risk is that same objective at the kept iterate.  Everything is full-batch
and seeded, so runs are bitwise reproducible.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import pickle
import signal
import sys
import threading
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from .distributions import EmpiricalDistribution, _freeze, _quantile_side, _sort_order
from .optimal_transport import OtConfig, _merged_positions, _quantile_coupling
from .transfer_core import AffineModel, _affine, input_risk

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "TrainingDivergedError",
    "AffineMapFamily",
    "SoftmaxHeadFamily",
    "transport_objective",
    "cross_entropy_objective",
    "minimize_output_risk",
    "train_classifier",
    "SyntheticDomain",
    "make_synthetic_domains",
    "PairResult",
    "evaluate_risk_accuracy_pairs",
]

_INIT_SCALE = 0.1
_PLATEAU_TOL = 1e-9
# Training points from which `evaluate_risk_accuracy_pairs` runs its fits on
# two processes.  Each process holds its own GIL, and a fork, pipe and reap
# cost about 3 ms, which weighs most where a block holds least work: one
# source and one pair at 2 domains.  On 1-D 4-class domains (2-CPU host,
# 11-31 alternating pairs per size) two processes ran at a median 1.17-1.66x
# serial speed at 2 domains, 1.16-1.28x at 3 and 1.43-1.66x at 4 from 600 to
# 3 000 points; below 600, 2- and 3-domain runs read 1.03-1.37x, too close
# to the host's noise to count as a gain.
_CONCURRENT_MIN_POINTS = 600
# Most processes a run splits its work over (`_fork_workers`): the two the
# crossovers of the fits and of `gaussian_lab` were measured with.  More are
# not measured until a host with more cores shows a gain.
_MAX_FIT_WORKERS = 2
# Bytes the classifier heads of one run may take while they train
# (`_head_bytes` each).  `_fit_workers` refuses a run whose single largest
# head is above it; below it, the heads that train at once are capped at as
# many as it holds.
_HEAD_BUDGET_BYTES = 1 << 30
# prctl(2) option that has the kernel signal a process when its parent dies.
_PR_SET_PDEATHSIG = 1


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for full-batch gradient descent.

    epochs is an exact budget when minimizing the output risk and an upper
    bound when training a classifier, where plateau_patience epochs without
    improvement stop the run early.
    """

    epochs: int = 10
    learning_rate: float = 0.05
    seed: int = 0
    plateau_patience: int = 10

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.plateau_patience < 1:
            raise ValueError(f"plateau_patience must be >= 1, got {self.plateau_patience}")


@dataclass(frozen=True)
class TrainTrace:
    """Objective values at the start of each epoch plus the kept parameters."""

    objectives: tuple[float, ...]
    parameters: np.ndarray

    @property
    def epochs_run(self) -> int:
        return len(self.objectives)


class TrainingDivergedError(RuntimeError):
    """The objective left the reals; the partial trace rides along."""

    def __init__(self, message: str, trace: TrainTrace):
        super().__init__(message)
        self.trace = trace

    def __reduce__(self):
        # The default rebuilds an exception from its args alone, which here
        # lack the trace; a fit process sends its error through a pickle.
        return type(self), (self.args[0], self.trace)


class AffineMapFamily:
    """Affine output maps y = W z + b with a flat parameter vector."""

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"dimensions must be >= 1, got ({in_dim}, {out_dim})")
        self.in_dim = in_dim
        self.out_dim = out_dim

    def parameter_count(self) -> int:
        return self.out_dim * (self.in_dim + 1)

    def init_parameters(self, rng: np.random.Generator) -> np.ndarray:
        weights = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=self.out_dim * self.in_dim)
        return np.concatenate([weights, np.zeros(self.out_dim)])

    def unpack(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        split = self.out_dim * self.in_dim
        return params[:split].reshape(self.out_dim, self.in_dim), params[split:]

    def apply(self, params: np.ndarray, points: np.ndarray) -> np.ndarray:
        weights, bias = self.unpack(params)
        return _affine(points, weights, bias)

    def build(self, params: np.ndarray) -> AffineModel:
        return AffineModel(*self.unpack(params))


class SoftmaxHeadFamily(AffineMapFamily):
    """Affine logits read through a softmax; parameters as in the base."""

    def __init__(self, in_dim: int, classes: int):
        if classes < 2:
            raise ValueError(f"classes must be >= 2, got {classes}")
        super().__init__(in_dim, classes)
        self.classes = classes

    def predict(self, params: np.ndarray, points: np.ndarray) -> np.ndarray:
        return np.argmax(self.apply(params, points), axis=1)


def _row_max(values: np.ndarray) -> np.ndarray:
    """Row maxima of an (n, classes) array as a chained maximum over the columns; exact.

    `_softmax` reads a head's (n, classes) logits through it.  Over a few
    classes this is many times faster than numpy's axis-1 reduction, which
    pays per-row overhead.
    """
    out = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        np.maximum(out, values[:, j], out=out)
    return out


def _row_sum(values: np.ndarray) -> np.ndarray:
    """Row sums of an (n, classes) array, adding the columns left to right.

    `_softmax` normalizes through it.  numpy's axis-1 sum adds fewer than 8
    terms in this same order, so for 2-7 classes the sums are bit-equal to
    it.  From 8 terms numpy sums in blocks of 8, and the two may differ in
    the last ulp.
    """
    out = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        out += values[:, j]
    return out


def _head_operands(points: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What `cross_entropy_objective` reads of a fit's fixed points and labels.

    The points as a contiguous (in_dim, n) array, and each point's label
    entry as one index into the flattened (classes, n) array.
    """
    n = len(labels)
    return np.ascontiguousarray(points.T), labels * n + np.arange(n)


def _softmax(logits: np.ndarray) -> np.ndarray:
    probs = logits - _row_max(logits)[:, None]
    np.exp(probs, out=probs)
    probs /= _row_sum(probs)[:, None]
    return probs


def _equal_weight_coupling(
    weights: np.ndarray, proxy: EmpiricalDistribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The merged sweep of a moving law with all-equal `weights` onto `proxy`.

    Equal weights give the same cumulative weights, bit for bit, in any
    order, so the segments, their lengths and the proxy atom coupled on each
    stay fixed while the moving values change; only which value sits at
    each sorted position moves.  Returns (positions, targets, gaps): per
    segment, the sorted position of the moving atom, the proxy value and
    the length.  None where the weights differ.
    """
    if not np.all(weights == weights[0]):
        return None
    order_v, cv = proxy._side
    positions, pv, gaps = _merged_positions(np.cumsum(weights), cv)
    return positions, proxy.points[order_v[pv], 0], gaps


def _quantile_cost_and_grad(
    values: np.ndarray,
    weights: np.ndarray,
    proxy: EmpiricalDistribution,
    p: float,
    coupling: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Exact 1-D W_p^p against the proxy and its subgradient in `values`.

    Walks the merged quantile segments once; each segment couples one atom
    of either side, so the subgradient accumulates per-segment terms with
    sign(0) = 0 at ties.  Only `values` is sorted here: the proxy keeps its
    own sorted side across calls, and `coupling`, where given, is
    `_equal_weight_coupling(weights, proxy)`, which leaves only the sort.
    """
    if coupling is None:
        iu, iv, gaps = _quantile_coupling(_quantile_side(values, weights), proxy._side)
        targets = proxy.points[iv, 0]
    else:
        positions, targets, gaps = coupling
        iu = _sort_order(values)[positions]
    diff = values[iu] - targets
    # Overflow to inf on a runaway iterate is fine: the trainer reads any
    # non-finite objective as divergence.
    with np.errstate(over="ignore"):
        cost = float(np.sum(np.abs(diff) ** p * gaps))
        if p == 1.0:
            seg = np.sign(diff) * gaps
        else:
            seg = p * np.abs(diff) ** (p - 1.0) * np.sign(diff) * gaps
    grad = np.zeros(len(values))
    np.add.at(grad, iu, seg)
    return cost, grad


def transport_objective(
    family: AffineMapFamily,
    params: np.ndarray,
    inputs: np.ndarray,
    weights: np.ndarray,
    proxy: EmpiricalDistribution,
    p: float = 1.0,
    *,
    _coupling: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Training objective W_p^p(pushforward, proxy) and its parameter gradient.

    The family must map to scalars; the objective is then the exact quantile
    cost, and the gradient chains its per-output subgradient through the
    affine parameterization.  `_coupling` is
    `_equal_weight_coupling(weights, proxy)`, which a descent builds once
    for all its epochs; it gives the same bits as the per-call sweep.

    Raises:
        ValueError: if the family's output dimension is not 1.
    """
    if family.out_dim != 1:
        raise ValueError(f"output maps must be scalar, got output dimension {family.out_dim}")
    outputs = family.apply(params, inputs)
    cost, grad_out = _quantile_cost_and_grad(outputs[:, 0], weights, proxy, p, _coupling)
    grad_out = grad_out[:, None]
    grad_weights = grad_out.T @ inputs
    grad_bias = grad_out.sum(axis=0)
    return cost, np.concatenate([grad_weights.ravel(), grad_bias])


def cross_entropy_objective(
    family: SoftmaxHeadFamily,
    params: np.ndarray,
    points: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    *,
    _operands: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Weighted softmax cross-entropy and its parameter gradient.

    Works in two (classes, n) arrays, one row per class: the logits
    `W @ points.T + b` (at in_dim 1 the broadcast product, bit-equal to it)
    become the log probabilities in place, and one buffer holds their
    exponential, then the residual.  Each point's maximum and
    normalizer reduce over the class axis, adding the classes left to right
    as `_row_sum` does, so the value is bit-equal to the axis-1 expression
    for 2-7 classes and within an ulp of the normalizer from 8.  The
    gradient is `residual @ points` and the residual's class sums; it sums
    over the points in another order than the (n, classes) products, and
    agrees with them to about 1e-15 of its largest entry.  `_operands` is
    `_head_operands(points, labels)`, which a fit builds once for all its
    epochs.
    """
    points_t, flat = _head_operands(points, labels) if _operands is None else _operands
    weights_matrix, bias = family.unpack(params)
    # Both arrays in one block: glibc's malloc keeps a block of this size on
    # its heap between calls, where two separate ones went back to the OS at
    # each return and were faulted in again at the next call.
    log_probs, residual = np.empty((2, family.classes, len(labels)))
    if family.in_dim == 1:
        np.multiply(weights_matrix, points_t, out=log_probs)
    else:
        np.matmul(weights_matrix, points_t, out=log_probs)
    log_probs += bias[:, None]
    log_probs -= np.maximum.reduce(log_probs, axis=0)
    np.exp(log_probs, out=residual)
    log_probs -= np.log(np.add.reduce(residual, axis=0))
    value = float(-np.sum(weights * log_probs.reshape(-1)[flat]))
    np.exp(log_probs, out=residual)
    residual.reshape(-1)[flat] -= 1.0
    residual *= weights
    grad_weights = residual @ points
    grad_bias = residual.sum(axis=1)
    return value, np.concatenate([grad_weights.ravel(), grad_bias])


def _descend(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]], family: AffineMapFamily,
    cfg: TrainConfig, what: str, patience: int | None = None,
) -> tuple[float, TrainTrace, np.ndarray]:
    """The one epoch loop: full-batch descent on `objective` from `family`'s seeded start.

    patience None runs exactly cfg.epochs and keeps any strictly lower
    value; otherwise only a value `_PLATEAU_TOL` below the best counts, and
    `patience` epochs in a row without one stop the loop.  Returns the best
    value, the trace keeping its iterate, and the iterate after the last step.
    """
    params = family.init_parameters(np.random.default_rng(cfg.seed))
    tolerance = 0.0 if patience is None else _PLATEAU_TOL
    objectives: list[float] = []
    best_params, best_value, stall = params.copy(), np.inf, 0
    for _ in range(cfg.epochs):
        value, grad = objective(params)
        if not np.isfinite(value):
            trace = TrainTrace(tuple(objectives), best_params)
            raise TrainingDivergedError(f"{what} became {value} at epoch {len(objectives)}", trace)
        objectives.append(value)
        if value < best_value - tolerance:
            best_params, best_value, stall = params.copy(), value, 0
        elif patience is not None:
            stall += 1
            if stall >= patience:
                break
        params = params - cfg.learning_rate * grad
    return best_value, TrainTrace(tuple(objectives), best_params), params


def minimize_output_risk(
    family: AffineMapFamily,
    law_zt: EmpiricalDistribution,
    law_yt_proxy: EmpiricalDistribution,
    p: float = 1.0,
    cfg: TrainConfig = TrainConfig(),
) -> tuple[float, AffineModel, TrainTrace]:
    """Descend W_p^p(map # law_zt, proxy) for exactly cfg.epochs.

    `law_zt` is the law of the frozen source model's outputs on the target
    inputs; the family's maps carry it onto the target output space, where
    `law_yt_proxy` stands in for the target output law.  The epoch budget is
    the search-space restriction: no early stopping, and the returned map is
    the best iterate seen, never worse than the seeded initialization.  The
    objective is the exact transport cost, so the reported risk is the best
    objective value itself.

    Returns:
        (risk, map, trace) with risk = W_p^p of the best iterate.

    Raises:
        TrainingDivergedError: if the objective leaves the reals; the error
            carries the trace accumulated so far.
        ValueError: on a family whose output is not scalar, and on
            dimension mismatches between the family and the laws.
    """
    if law_zt.dim != family.in_dim:
        raise ValueError(
            f"source outputs have dimension {law_zt.dim}, family expects {family.in_dim}"
        )
    if law_yt_proxy.dim != family.out_dim:
        raise ValueError(
            f"proxy dimension {law_yt_proxy.dim} != family output dimension {family.out_dim}"
        )
    # transport_objective refuses a family whose output is not scalar, and
    # only a scalar output has a proxy side to merge against.
    coupling = (
        _equal_weight_coupling(law_zt.weights, law_yt_proxy) if family.out_dim == 1 else None
    )

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        return transport_objective(
            family, params, law_zt.points, law_zt.weights, law_yt_proxy, p, _coupling=coupling
        )

    risk, trace, last = _descend(objective, family, cfg, "objective")
    final_value, _ = objective(last)
    if np.isfinite(final_value) and final_value < risk:
        risk, trace = final_value, replace(trace, parameters=last)
    return risk, family.build(trace.parameters), trace


def train_classifier(
    family: SoftmaxHeadFamily,
    features: EmpiricalDistribution,
    labels: np.ndarray,
    eval_features: EmpiricalDistribution,
    eval_labels: np.ndarray,
    cfg: TrainConfig = TrainConfig(epochs=100),
) -> tuple[float, AffineModel, TrainTrace]:
    """Fit the softmax head by full-batch descent; score on the held-out split.

    Runs at most cfg.epochs epochs and stops once the cross-entropy has not
    improved for cfg.plateau_patience consecutive epochs.  The returned model
    is the lowest-loss iterate.

    Returns:
        (accuracy, model, trace) with accuracy weighted by the held-out
        distribution's weights.

    Raises:
        ValueError: on labels of a non-integer dtype or outside
            {0..classes-1}, or a single-class training set.
        TrainingDivergedError: if the loss leaves the reals.
    """
    labels = np.asarray(labels)
    eval_labels = np.asarray(eval_labels)
    for name, arr, dist in (("labels", labels, features), ("eval_labels", eval_labels, eval_features)):
        if arr.shape != (dist.size,):
            raise ValueError(f"{name} must have shape ({dist.size},), got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() >= family.classes:
            raise ValueError(f"{name} must lie in [0, {family.classes}), got range "
                             f"[{arr.min()}, {arr.max()}]")
    if len(np.unique(labels)) < 2:
        raise ValueError("training labels contain a single class")
    if features.dim != family.in_dim:
        raise ValueError(f"features dimension {features.dim} != family input {family.in_dim}")

    operands = _head_operands(features.points, labels)

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        return cross_entropy_objective(
            family, params, features.points, labels, features.weights, _operands=operands
        )

    _, trace, _ = _descend(objective, family, cfg, "loss", cfg.plateau_patience)
    predicted = family.predict(trace.parameters, eval_features.points)
    accuracy = float(np.sum(eval_features.weights * (predicted == eval_labels)))
    return accuracy, family.build(trace.parameters), trace


@dataclass(frozen=True)
class SyntheticDomain:
    """A labeled feature cloud split into a training and a held-out half."""

    name: str
    train: EmpiricalDistribution
    train_labels: np.ndarray
    held_out: EmpiricalDistribution
    held_out_labels: np.ndarray
    classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_labels", _freeze(self.train_labels, np.int64))
        object.__setattr__(self, "held_out_labels", _freeze(self.held_out_labels, np.int64))
        if self.train_labels.shape != (self.train.size,):
            raise ValueError("train_labels must match the training cloud size")
        if self.held_out_labels.shape != (self.held_out.size,):
            raise ValueError("held_out_labels must match the held-out cloud size")


def make_synthetic_domains(
    seed: int,
    n_domains: int = 3,
    classes: int = 3,
    samples_per_domain: int = 400,
    rotation: float = 0.15,
    shift: float = 1.4,
    spread: float = 0.0,
) -> list[SyntheticDomain]:
    """Generate 2-D class-blob domains with increasing drift from the first.

    Domain k rotates the class-mean ring by k * rotation radians, translates
    it by shift * k(k+2)/3 along the first axis, and widens the class blobs
    by a factor 1 + k * spread.  The quadratic offsets make every pairwise
    domain distance distinct, so transfer quality degrades along a clean
    ladder.  Each domain is split in half for training and evaluation.
    """
    if n_domains < 2:
        raise ValueError(f"need at least 2 domains, got {n_domains}")
    if samples_per_domain < 4 * classes:
        raise ValueError(f"samples_per_domain too small for {classes} classes")
    angles = 2.0 * np.pi * np.arange(classes) / classes
    base_means = 1.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    domains = []
    for k in range(n_domains):
        rng = np.random.default_rng(seed + 7919 * k)
        theta = k * rotation
        frame = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        offset = shift * k * (k + 2) / 3.0
        means = base_means @ frame.T + offset * np.array([1.0, 0.0])
        sigma = 0.45 * (1.0 + k * spread)
        labels = np.arange(samples_per_domain) % classes
        points = means[labels] + rng.normal(scale=sigma, size=(samples_per_domain, 2))
        perm = rng.permutation(samples_per_domain)
        points, labels = points[perm], labels[perm]
        half = samples_per_domain // 2
        domains.append(
            SyntheticDomain(
                name=f"domain_{chr(ord('a') + k)}",
                train=EmpiricalDistribution.from_points(points[:half]),
                train_labels=labels[:half],
                held_out=EmpiricalDistribution.from_points(points[half:]),
                held_out_labels=labels[half:],
                classes=classes,
            )
        )
    return domains


@dataclass(frozen=True)
class PairResult:
    """The measured accuracy and risks of an ordered source -> target pair.

    `input_risk` is the raw W_p^p between the feature clouds; rescaling it
    and combining it with `output_risk` into a transfer risk is the
    pipeline's work.
    """

    source: str
    target: str
    accuracy: float
    input_risk: float
    output_risk: float


def _named(what: str, fit, *args):
    """Run one fit; a divergence error is prefixed with `what` and keeps its trace."""
    try:
        return fit(*args)
    except TrainingDivergedError as err:
        raise TrainingDivergedError(f"{what}: {err}", err.trace) from err


def _head_bytes(n: int, classes: int, in_dim: int) -> int:
    """Bytes a classifier head on `in_dim` inputs takes while it trains on n points.

    The softmax kernel's 4 * n * classes float64 arrays, the (in_dim, n)
    contiguous copy of the points, three length-n vectors (the flat label
    index, and the gathered log probabilities and their weighted terms) and
    classes * (classes + 1) parameters.  A run's largest head trains on its
    longest training half, on max(dim, classes) inputs: a source head reads
    the dim-D points, a target head the class probabilities.
    """
    return 8 * ((4 * classes + in_dim + 3) * n + classes * (classes + 1))


def _fork_workers() -> int:
    """How many processes a run may split its work over through `_run_forked`.

    One per CPU in the process's affinity mask, at most `_MAX_FIT_WORKERS`.
    1 off Linux, where `os.fork` is missing or not the measured route, and
    while another Python thread runs, whose locks a forked child could
    inherit held.
    """
    if sys.platform != "linux" or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_FIT_WORKERS)


def _fit_workers(domains: list[SyntheticDomain], ot: OtConfig) -> int:
    """How many processes `evaluate_risk_accuracy_pairs` runs its fits on over `domains`.

    `_fork_workers()`, and no more heads of the run's largest size than
    `_HEAD_BUDGET_BYTES` holds.  1 while every training half is below
    `_CONCURRENT_MIN_POINTS` points, and 1 unless every domain is 1-D and
    `ot` takes the quantile sweep there: any other input risk builds a
    dense matrix that `DENSE_BUDGET_BYTES` bounds only one solve at a time.

    Raises:
        ValueError: if not even one head fits the budget, naming what makes
            the largest head that large: the domain holding the largest label
            and its class count, or the longest domain and its feature count.
    """
    longest = max(domains, key=lambda d: d.train.size)
    n, dim, classes = longest.train.size, longest.train.dim, longest.classes
    needed = _head_bytes(n, classes, max(dim, classes))
    heads = _HEAD_BUDGET_BYTES // needed
    if heads == 0:
        top = classes - 1
        holders = [d.name for d in domains if top in d.train_labels or top in d.held_out_labels]
        cause = (
            f"{longest.name}: its points have {dim} features" if dim > classes
            else f"{holders[0]}: its largest label {top} makes {classes} classes" if holders
            else f"the domains declare {classes} classes"
        )
        raise ValueError(
            f"{cause}, and training a head on {n} points would need about "
            f"{needed / 2**30:.3g} GiB, above the {_HEAD_BUDGET_BYTES / 2**30:g} GiB head budget"
        )
    if n < _CONCURRENT_MIN_POINTS or ot.method != "auto" or any(d.train.dim != 1 for d in domains):
        return 1
    return min(_fork_workers(), heads)


def _send_from_child(
    run: Callable[[Sequence[int]], list], block: Sequence[int], pipe_fd: int, parent: int
) -> NoReturn:
    """In a child forked by `parent`: `run(block)`, its result or its error pickled into `pipe_fd`.

    Never returns: the child ends with `os._exit`, so it runs none of the
    parent's cleanup, exit handlers or buffered writes.  It is killed when
    the parent dies, which a parent killed outright cannot do itself.  An
    error goes to the parent whatever its kind, an interrupt included, for
    the parent to raise; one that would not come back out of its pickle
    goes as a RuntimeError holding its type and message.
    """
    status = 1
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # it died before the prctl took hold
            os._exit(status)
        try:
            payload = pickle.dumps((True, run(block)))
        except BaseException as err:  # handed to the parent, which raises it
            try:
                payload = pickle.dumps((False, err))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}")))
        with open(pipe_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _run_forked(
    run: Callable[[Sequence[int]], list], first: Sequence[int], second: Sequence[int],
    child: str,
) -> list:
    """`run(first)` in this process and `run(second)` in a forked child, joined in that order.

    The child sends back its results, or its first error, pickled through
    a pipe.  This process's own error is raised as it happens, and the
    child is then killed; otherwise the child's error is raised, and a
    child that ends without sending anything raises a RuntimeError that
    opens with `child`, what the child ran ("the process for ...").  The
    child is reaped before this returns or raises, on an interrupt too.
    """
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while the process has more than
            # one OS thread, and numpy's OpenBLAS starts its pool at import.
            # OpenBLAS's pthread_atfork handler shuts that pool down before
            # the fork, so the child inherits none of its locks;
            # `_fork_workers` admits no other Python thread.
            warnings.filterwarnings(
                "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _send_from_child(run, second, write_fd, parent)
    status = None  # the child's wait status once it is reaped
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            results = run(first)
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            # Already gone only if an interrupt came between its reap and
            # the assignment above.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if not payload:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise RuntimeError(f"{child} ended without a result ({how})")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return results + value


def evaluate_risk_accuracy_pairs(
    domains: list[SyntheticDomain],
    risk_cfg: TrainConfig = TrainConfig(learning_rate=0.5),
    train_cfg: TrainConfig = TrainConfig(epochs=100),
    ot: OtConfig = OtConfig(),
) -> list[PairResult]:
    """Measured accuracy and risks over all ordered domain pairs.

    One source head is trained per domain and transferred to every other
    domain: target points are re-expressed as that head's class
    probabilities, and three quantities are measured per pair: the input
    risk W_p^p between the raw feature clouds (order and solver from `ot`),
    the trained-and-budgeted output risk against the target label law, and
    the held-out accuracy of a target head fine-tuned on the
    representation.  The input risk is solved once per unordered pair, at
    its first ordered pair, and reused for the reverse pair.  Nothing is
    rescaled or combined here: the pipeline turns these measurements into
    transfer risks.  The source head of
    domain k is seeded with train_cfg.seed + k; the output-map descent and
    the target head of the i-th ordered pair with seed + i, so runs are
    reproducible.

    The fits run on `_fit_workers(domains, ot)` processes: two, on Linux,
    for 1-D domains whose training halves reach `_CONCURRENT_MIN_POINTS`
    points, and otherwise one, which forks nothing.  On two, the source
    domains are split into two contiguous blocks, the first no smaller.
    This process runs the first and a forked child the second, each in
    pair order; the child solves again, in the direction of its first
    ordered pair, the input risk of a pair whose first ordered pair lies in
    the first block.  Every fit is a pure
    function of its inputs and seed, so the rows, and the first error in
    pair order, are those of one process.

    Raises:
        ValueError: before any fit, if the domains differ in class or feature
            count, or a head would exceed `_HEAD_BUDGET_BYTES` (`_fit_workers`).
        TrainingDivergedError: if a fit diverges, or a source head's
            representation of the target points is not finite; the message
            names the head or map.
        RuntimeError: if a fit process ends without sending its rows.
    """
    if len(domains) < 2:
        raise ValueError(f"need at least 2 domains, got {len(domains)}")
    classes = domains[0].classes
    if any(d.classes != classes for d in domains):
        raise ValueError("all domains must share the class count")
    if any(d.train.dim != domains[0].train.dim for d in domains):
        counts = ", ".join(f"{d.name} has {d.train.dim}" for d in domains)
        raise ValueError(f"all domains must share the feature count: {counts}")
    workers = _fit_workers(domains, ot)

    def represent(pair: str, cloud: EmpiricalDistribution, head) -> EmpiricalDistribution:
        # The transferred representation is the frozen source head's class
        # probabilities.  Saturation far from the source decision
        # boundaries loses information, so domain shift actually hurts; raw
        # logits would let the fine-tuned head undo any shift.
        _, source_model, source_trace = head
        # A head can keep a finite loss with weights so large that its
        # logits overflow on points far from the source domain.
        features = _softmax(source_model(cloud.points))
        if not np.all(np.isfinite(features)):
            raise TrainingDivergedError(
                f"source head of {pair} diverged: non-finite representation of the target points",
                source_trace,
            )
        return EmpiricalDistribution(features, cloud.weights)

    # Each target's label law stands in for its output law, with the
    # target's weights as every target law has them; built once, so its
    # sort serves every output-map descent onto that target.
    label_laws = [
        EmpiricalDistribution(d.train_labels.astype(float)[:, None], d.train.weights)
        for d in domains
    ]
    # Per source, its ordered pairs in pair order: (pair index, target index).
    counter = itertools.count()
    pairs = [
        [(next(counter), t) for t, target in enumerate(domains) if target is not source]
        for source in domains
    ]

    def run_block(sources: list[int]) -> list[PairResult]:
        # Each source head, then per ordered pair its input risk, the target
        # points' representation, the output-map descent and the target head.
        rows: list[PairResult] = []
        solved: dict[frozenset[int], float] = {}
        for source_index in sources:
            source = domains[source_index]
            head = _named(
                f"source head of {source.name}", train_classifier,
                SoftmaxHeadFamily(source.train.dim, classes), source.train, source.train_labels,
                source.held_out, source.held_out_labels,
                replace(train_cfg, seed=train_cfg.seed + source_index),
            )
            for pair_index, target_index in pairs[source_index]:
                target = domains[target_index]
                pair = f"{source.name}->{target.name}"
                key = frozenset((source_index, target_index))
                if key not in solved:
                    # Solved as at the unordered pair's first ordered pair,
                    # lower -> higher index, so every block gets its bits.
                    lower, higher = sorted(key)
                    solved[key] = input_risk(
                        domains[higher].train, domains[lower].train, "wasserstein", ot
                    )
                features = represent(pair, target.train, head)
                output_risk, _, _ = _named(
                    f"output map of {pair}", minimize_output_risk, AffineMapFamily(classes, 1),
                    features, label_laws[target_index], 1.0,
                    replace(risk_cfg, seed=risk_cfg.seed + pair_index),
                )
                accuracy, _, _ = _named(
                    f"target head of {pair}", train_classifier,
                    SoftmaxHeadFamily(classes, classes), features, target.train_labels,
                    represent(pair, target.held_out, head), target.held_out_labels,
                    replace(train_cfg, seed=train_cfg.seed + pair_index),
                )
                rows.append(
                    PairResult(source.name, target.name, accuracy, solved[key], output_risk)
                )
        return rows

    sources = list(range(len(domains)))
    if workers == 1:
        return run_block(sources)
    first, second = sources[: (len(sources) + 1) // 2], sources[(len(sources) + 1) // 2 :]
    names = ", ".join(domains[i].name for i in second)
    return _run_forked(run_block, first, second, f"the fit process for source domains {names}")
