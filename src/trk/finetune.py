"""Training for output transport maps and classifier heads.

Two training problems live here.  The first descends the output transport
risk: given the law of a frozen source model's outputs on the target inputs,
fit an affine map on top of them so the pushforward matches the target
output law, and report the achieved Wasserstein risk under a fixed epoch
budget.  Its one epoch loop, `_descend`, runs exactly the budget and keeps
the strictly lowest objective.
The second is a softmax classifier head used to measure transfer accuracy
on held-out data.  A head is the unique minimizer of its weighted
cross-entropy plus `_HEAD_L2 / 2 * ||params||^2`, a strongly convex loss,
found by damped Newton from zero (`_newton`): it depends on its data alone,
not on a budget, a step size, a seed or a start.  A head of at most
`_DENSE_STEP_MAX_PARAMS` parameters solves each step with its exact
Hessian, any other by conjugate gradients on Hessian products; every pass
over a head's points runs in `_point_blocks` blocks.
The module also holds the process split, `_run_forked`, that these fits and
the pipeline's `gaussian_lab` rows run on.

Output maps are scalar.  The risk objective is the exact quantile-coupling
Wasserstein cost W_p^p, which is piecewise smooth in the parameters;
training uses its subgradient with ties resolved to zero, and the reported
risk is that same objective at the kept iterate.  Everything is full-batch
and seeded, so runs are bitwise reproducible.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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
from .optimal_transport import OtConfig, _quantile_coupling, _quantile_cost
from .transfer_core import AffineModel, input_risk

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
# L2 weight of every classifier head's loss: the head minimizes the weighted
# cross-entropy plus _HEAD_L2 / 2 * ||params||^2, which is strongly convex,
# so its minimizer exists and is unique even on separable data.  Fixed up
# front, not tuned to any benchmark's correlations.
_HEAD_L2 = 1e-3
# `_newton` stops once half the Newton decrement grad . step, the decrease
# the quadratic model predicts, is below this.  From zero the loss never
# exceeds log(classes), and it rounds at a few 1e-16 of that: a step taken
# predicts at least 1e-14, which the line search tells apart from rounding.
_NEWTON_TOL = 1e-14
# Fixed caps of `_newton`: Newton steps per head, and halvings of one step
# in its line search.  A head that hits either is refused, not returned.
_NEWTON_MAX_STEPS = 100
_NEWTON_MAX_HALVINGS = 60
# Armijo's sufficient-decrease fraction of the line search (Nocedal &
# Wright 2006, sec. 3.1).
_ARMIJO = 1e-4
# Points per block of every per-point pass of a head (`_point_blocks`).  Whole
# fits, one core, medians of 9 alternating runs at 200 000 points, blocks of
# 4 096/8 192/16 384/32 768/65 536 points/one piece: 4-D 4-class (exact)
# 165/134/148/155/190/222 ms, 1-D 4-class 126/88/84/87/108/125 ms, 8-D 8-class
# (Newton-CG) 2.0/1.6/2.1/2.4/2.9/2.9 s.  8 192 splits the benchmark's
# 10 000-point heads, moving their bits and slowing them (10.0 vs 8.8 ms).
_BLOCK_POINTS = 16384
# Largest head, in parameters classes * (in_dim + 1), whose Newton steps
# solve its exact Hessian (`_exact_newton_steps`); larger heads take
# Newton-CG (`_head_curvature`, `_conjugate_gradient`).  Whole fits, one core,
# median of 3 x 3 runs per side: below 30 parameters the exact steps took
# 0.26-0.82x Newton-CG's time on every shape timed at n = 400, 2 000 and
# 10 000; at 30, 0.29-0.95x; at 2 classes on 16 inputs, 34 parameters,
# 0.85-1.19x, and at 2 on 19, 1.16x.  The cap alone picks the route
# (`_takes_exact_steps`): beyond its inputs, an exact step holds only blocks.
_DENSE_STEP_MAX_PARAMS = 30
# Training points from which `evaluate_risk_accuracy_pairs` runs its fits on
# two processes, while its target heads take exact steps (`_fit_workers`).  A
# fork, pipe and reap cost about 3 ms.  On 1-D 4-class domains (2-CPU host,
# median per-pair speed of 21 alternating serial/two-process pairs per size)
# two processes ran at 2 domains at 0.65-1.04x serial speed from 400 to 2 000
# points, 1.07x at 2 500 and 1.24-1.46x from 3 000 to 10 000; at 3 domains
# 1.03-1.18x below 3 000 and 1.25-1.28x from it; at 4 domains 1.15-1.69x from
# 200.  2 domains lose below 2 500, so the crossover is the first size past it
# that gains at every domain count.  With Newton-CG source heads (2 classes on
# 16-D) 2 domains read 0.97-1.15x at 3 000 and 1.19-1.48x from 5 000, so it
# holds there too.
_CONCURRENT_MIN_POINTS = 3000
# The same crossover where the target heads take Newton-CG, above the exact
# steps' cap: each fit costs more, so the fork weighs less.  On 8-class
# domains, 2-D and 4-D (11 pairs per size, input risks left out of the
# timing), two processes ran at 2 domains at 1.21-1.28x serial speed at 200
# points, 1.03-1.27x at 400 and 1.18-1.56x from 600 to 3 000; at 3 domains
# 1.23-1.44x from 200.  With Newton-CG heads on 1-D 4-class domains they
# read 0.98x at 200, 1.08x at 400 and 1.13-1.58x from 600 at 2 domains.
_NEWTON_CG_CONCURRENT_MIN_POINTS = 600
# Most processes a run splits its work over (`_fork_workers`): the two the
# crossovers of the fits and of `gaussian_lab` were measured with.  More are
# not measured until a host with more cores shows a gain.
_MAX_FIT_WORKERS = 2
# numpy's ufunc buffer, in elements (`np.getbufsize()`).
_UFUNC_BUFFER = 8192
# An ndarray's object and shape, in floats (112 + 16 bytes for one axis).
_ARRAY_HEADER_FLOATS = 16
# Bytes the classifier heads of one run may take while they train
# (`_head_bytes` each).  `_fit_workers` refuses a run whose single largest
# head is above it; below it, the heads that train at once are capped at as
# many as it holds.
_HEAD_BUDGET_BYTES = 1 << 30
# prctl(2) option that has the kernel signal a process when its parent dies.
_PR_SET_PDEATHSIG = 1


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the output map's full-batch gradient descent.

    epochs is the exact budget of every descent: each runs all of its epochs.
    """

    epochs: int = 10
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class TrainTrace:
    """Objective values at the start of each epoch or Newton step, and the kept parameters."""

    objectives: tuple[float, ...]
    parameters: np.ndarray

    @property
    def epochs_run(self) -> int:
        return len(self.objectives)


class TrainingDivergedError(RuntimeError):
    """A fit failed: its objective left the reals, or a head's Newton solve broke down.

    The partial trace rides along.
    """

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
        return points @ weights.T + bias

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
        """Each point's most probable class: the first largest logit, or the first NaN, as numpy's argmax.

        The (classes, block) logits of one `_point_blocks` block at a time.
        numpy's class-axis argmax copies what it reads, transposed, so it
        reads columns of at most `_UFUNC_BUFFER` entries, numpy's own ufunc
        buffer.
        """
        weights, bias = self.unpack(params)
        index = np.empty(len(points), dtype=np.intp)
        width = max(1, _UFUNC_BUFFER // self.classes)
        for block in _point_blocks(len(points)):
            logits, out = _class_logits(weights, bias, points[block].T), index[block]
            for start in range(0, len(out), width):
                np.argmax(logits[:, start:start + width], axis=0, out=out[start:start + width])
        return index


def _point_blocks(n: int) -> list[slice]:
    """The blocks of n points that every per-point pass of a head walks, in order.

    `_BLOCK_POINTS` points each, the last the rest, so a pass's working set
    is one block's.  A sum over the points adds its blocks' terms in this
    order (`functools.reduce(np.add, ...)`): one block's term stays as it is.
    """
    return [slice(start, min(start + _BLOCK_POINTS, n)) for start in range(0, n, _BLOCK_POINTS)]


def _block_index(index: np.ndarray) -> np.ndarray:
    """`index`, a writable class per point, made in place one index into its block's flattened (classes, block) array."""
    for block in _point_blocks(len(index)):
        width = block.stop - block.start
        index[block] *= width
        index[block] += np.arange(width)
    return index


def _class_logits(
    weights: np.ndarray, bias: np.ndarray, points_t: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """A head's (classes, n) logits `weights @ points_t + bias[:, None]`, into `out` if given.

    Every read of a head forms its logits here.  `points_t` is the (in_dim,
    n) points, a transposed view or a contiguous copy; BLAS may round the
    two differently in the last ulp.  At in_dim 1 each logit is the
    broadcast product: one rounded product, as a k = 1 matrix product gives
    at several times its cost.
    """
    if weights.shape[1] == 1:
        out = np.multiply(weights, points_t, out=out)
    else:
        out = np.matmul(weights, points_t, out=out)
    out += bias[:, None]
    return out


def _class_probabilities(model: AffineModel, points_t: np.ndarray) -> np.ndarray:
    """A head's softmax class probabilities at the points, as a class-major (classes, n) array.

    `points_t` is the contiguous (in_dim, n) points the loss kernel reads.
    Formed from `_class_logits`: each point's logits less their maximum,
    exponentiated and divided by their sum, which adds the classes in
    order.  Both readers take this one helper: a head's Hessian products
    and the transferred representation.  OpenBLAS may round some logits
    otherwise than the (n, classes) product: of a transposed view from 12
    classes, of the copy from in_dim 15.
    """
    probs = _class_logits(model.weights, model.bias, points_t)
    probs -= np.maximum.reduce(probs, axis=0)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0)
    return probs


def _head_operands(points: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What a head's fit reads of its fixed points and labels.

    The points as a contiguous (in_dim, n) array, and each point's label
    entry as one index into its block's flattened (classes, block) array
    (`_block_index`).
    """
    return np.ascontiguousarray(points.T), _block_index(labels.astype(np.intp))


def _equal_weight_coupling(
    weights: np.ndarray, proxy: EmpiricalDistribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The quantile coupling of a moving law with all-equal `weights` onto `proxy`.

    Equal weights give the same cumulative weights, bit for bit, in any
    order, so the segments, their lengths and the proxy atom coupled on each
    stay fixed while the moving values change; only which value sits at
    each sorted position moves.  `_quantile_coupling`'s (positions, targets,
    gaps), or None where the weights differ.
    """
    if not np.all(weights == weights[0]):
        return None
    return _quantile_coupling(np.cumsum(weights), proxy)


def _quantile_cost_and_grad(
    values: np.ndarray,
    weights: np.ndarray,
    proxy: EmpiricalDistribution,
    p: float,
    coupling: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Exact 1-D W_p^p against the proxy and its subgradient in `values`.

    Walks the `_quantile_coupling` segments once; each segment couples one
    atom of either side, so the subgradient accumulates per-segment terms
    with sign(0) = 0 at ties.  Only `values` is sorted here: the proxy keeps
    its own sorted side across calls, and `coupling`, where given, is
    `_equal_weight_coupling(weights, proxy)`, which leaves only the sort.
    """
    if coupling is None:
        order, cumulative = _quantile_side(values, weights)
        coupling = _quantile_coupling(cumulative, proxy)
    else:
        order = _sort_order(values)
    positions, targets, gaps = coupling
    iu = order[positions]
    diff = values[iu] - targets
    # Overflow to inf on a runaway iterate is fine: the trainer reads any
    # non-finite objective as divergence.
    with np.errstate(over="ignore"):
        cost = _quantile_cost(diff, gaps, p)
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

    Works in one (classes, n) array, one row per class: the logits of
    `_class_logits` less each point's maximum, exponentiated in place once,
    then scaled by `weights / normalizer` and less each point's weight at
    its label, which leaves the residual w (p - e_label).  The value is
    -sum(weights * (shifted[label] - log normalizer)), the oracle's own
    operations.  Each point's maximum and normalizer reduce over the class
    axis, adding the classes left to right, so the value is bit-equal to
    the axis-1 expression for 2-7 classes and within an ulp of the
    normalizer from 8.  The gradient is `(points_t @ residual.T).T`, which
    ran as fast as `residual @ points` at in_dim 1 and 3x faster at 4 (n =
    10 000, 4 classes), and the residual's class sums.  It rounds each
    probability otherwise than the oracle's exp(log p) and sums over the
    points in another order than the (n, classes) products, and agrees with
    them to about 1e-15 of its largest entry.  `_operands` is
    `_head_operands(points, labels)`, which a fit builds once for all its
    Newton steps.
    """
    points_t, flat = _head_operands(points, labels) if _operands is None else _operands
    head = family.unpack(params)

    def term(block: slice) -> np.ndarray:
        residual = _class_logits(*head, points_t[:, block])
        residual -= np.maximum.reduce(residual, axis=0)
        picked = residual.reshape(-1)[flat[block]]
        np.exp(residual, out=residual)
        normalizer = np.add.reduce(residual, axis=0)
        picked -= np.log(normalizer)
        picked *= weights[block]
        value = -np.sum(picked)
        residual *= np.divide(weights[block], normalizer, out=normalizer)
        residual.reshape(-1)[flat[block]] -= weights[block]
        grad_weights = (points_t[:, block] @ residual.T).T
        return np.concatenate([grad_weights.ravel(), residual.sum(axis=1), [value]])

    total = functools.reduce(np.add, map(term, _point_blocks(len(flat))))
    return float(total[-1]), total[:-1]


def _head_curvature(
    family: SoftmaxHeadFamily, params: np.ndarray, points_t: np.ndarray, weights: np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """The Hessian of a head's weighted cross-entropy plus `_HEAD_L2 / 2 * ||params||^2`.

    Given as its product v -> H v and its diagonal, in `unpack`'s parameter
    order, for heads that do not take exact steps (`_takes_exact_steps`):
    the matrix itself is never formed, so a head's memory stays linear in
    its points and its classes.  `points_t` is the contiguous (in_dim, n)
    points.
    A direction moves each point's logits by u = `_class_logits` of the
    direction, and its residual w (p - e_label) by w p (u - p . u); H v
    contracts that derivative as the gradient contracts the residual, plus
    `_HEAD_L2 * v`.  Each point's u is first taken less its entry at the
    point's most probable class: where that class's probability rounds to
    1, u - p . u would otherwise lose its true size, the other classes'
    tiny probabilities times their gaps, to cancellation, and the product
    would lose the curvature of a saturated head.  The diagonal is the
    contraction of w p (1 - p) with the squared points and with ones, plus
    `_HEAD_L2`.  The probabilities and the most probable classes stay alive
    with the product.
    """
    probs = _class_probabilities(family.build(params), points_t)
    n = points_t.shape[1]
    top = np.empty(n, dtype=np.intp)
    for block in _point_blocks(n):
        np.argmax(probs[:, block], axis=0, out=top[block])
    _block_index(top)

    def diagonal_term(block: slice) -> np.ndarray:
        spread = 1.0 - probs[:, block]
        spread *= probs[:, block]
        spread *= weights[block]
        return np.concatenate([(spread @ np.square(points_t[:, block]).T).ravel(), spread.sum(axis=1)])

    diagonal = functools.reduce(np.add, map(diagonal_term, _point_blocks(n)))
    diagonal += _HEAD_L2

    def product(direction: np.ndarray) -> np.ndarray:
        head = family.unpack(direction)

        def term(block: slice) -> np.ndarray:
            moved = _class_logits(*head, points_t[:, block])
            moved -= moved.reshape(-1)[top[block]]
            moved -= np.einsum("cn,cn->n", probs[:, block], moved)
            moved *= probs[:, block]
            moved *= weights[block]
            grad_weights = (points_t[:, block] @ moved.T).T
            return np.concatenate([grad_weights.ravel(), moved.sum(axis=1)])

        return functools.reduce(np.add, map(term, _point_blocks(n))) + _HEAD_L2 * direction

    return product, diagonal


def _conjugate_gradient(
    product: Callable[[np.ndarray], np.ndarray], diagonal: np.ndarray, grad: np.ndarray
) -> np.ndarray | None:
    """An inexact Newton step: H^-1 grad by conjugate gradients preconditioned by H's diagonal.

    `product` is v -> H v of a symmetric positive definite H, and `diagonal`
    its diagonal (Jacobi preconditioning; Nocedal & Wright 2006, sec. 5.1).
    The preconditioner makes the iteration independent of each parameter's
    scale, so features far from unit size converge as if scaled to it.  From
    zero, each iterate is a descent direction whose decrement grad . step
    grows toward the exact one.  Stops once the preconditioned residual is
    a forcing fraction min(0.5, |grad|^(1/2)) of its start, in the
    preconditioned norm, which makes the Newton steps converge
    superlinearly (Nocedal & Wright 2006, sec. 7.1), or after as many
    iterations as parameters, where exact arithmetic ends.  None where the
    diagonal or the step is not finite, or a direction finds no positive
    finite curvature: the Hessian is then non-finite or singular to working
    precision.
    """
    if not np.all(np.isfinite(diagonal)):
        return None
    step = np.zeros_like(grad)
    residual = grad.copy()
    scaled = residual / diagonal
    direction = scaled.copy()
    fit = float(residual @ scaled)
    target = min(0.25, np.sqrt(fit)) * fit
    for _ in range(grad.size):
        moved = product(direction)
        curvature = float(direction @ moved)
        if not 0.0 < curvature < np.inf:
            return None
        length = fit / curvature
        step += length * direction
        residual -= length * moved
        np.divide(residual, diagonal, out=scaled)
        previous, fit = fit, float(residual @ scaled)
        if fit <= target:
            break
        direction *= fit / previous
        direction += scaled
    return step if np.all(np.isfinite(step)) else None


def _sum_zero_basis(classes: int) -> np.ndarray:
    """An orthonormal basis, as (classes, classes - 1) columns, of the vectors whose entries sum to 0.

    Helmert's: column k - 1 holds 1 on the first k classes and -k on class
    k, scaled to unit length.  Two classes below k share their entries
    bit for bit, so their difference is exactly 0 there.
    """
    row = np.arange(classes)[:, None]
    k = np.arange(1, classes)
    return np.where(row < k, 1.0, np.where(row == k, -k, 0.0)) / np.sqrt(k * (k + 1.0))


def _feature_products(points_t: np.ndarray) -> np.ndarray:
    """The (feature pairs, n) products x~_j x~_k of the points, x~ = (x, 1) a point's features and its bias.

    One row per pair j <= k in row-major order.  A product that overflows
    stays infinite (numpy reports it as the squared points of
    `_head_curvature` do), and every Hessian that reads it is the step's
    failure.
    """
    in_dim, n = points_t.shape
    width = in_dim + 1
    products = np.empty((width * (width + 1) // 2, n))
    row = 0
    for j in range(in_dim):
        np.multiply(points_t[j:], points_t[j], out=products[row:row + in_dim - j])
        products[row + in_dim - j] = points_t[j]
        row += width - j
    products[row] = 1.0
    return products


def _pair_operands(in_dim: int, classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a head's exact Hessians (`_head_hessian`) read of its shape, built once per fit.

    The index that spreads a row of `_feature_products` onto the full
    (in_dim + 1)^2 block, the (pairs, classes - 1) differences u_ab = T_a -
    T_b of the rows of the sum-zero basis T for each class pair a < b, in
    the order of `np.triu_indices`, and T itself.
    """
    width = in_dim + 1
    upper = np.zeros((width, width), dtype=np.intp)
    upper[np.triu_indices(width)] = np.arange(width * (width + 1) // 2)
    basis = _sum_zero_basis(classes)
    first, second = np.triu_indices(classes, 1)
    return np.maximum(upper, upper.T).ravel(), basis[first] - basis[second], basis


def _head_hessian(
    family: SoftmaxHeadFamily, params: np.ndarray, points_t: np.ndarray, weights: np.ndarray,
    operands: tuple[np.ndarray, np.ndarray, np.ndarray], products: np.ndarray | None = None,
) -> np.ndarray:
    """A head's loss Hessian, `_HEAD_L2` included, on the sum-zero class subspace.

    In coordinates (k, j) of the parameters T[:, k] (x) e_j, for T the
    sum-zero basis and j over the features then the bias, as
    `_pair_operands` gives them.  Over the class pairs a < b, the data
    Hessian is sum (e_a - e_b)(e_a - e_b)^T (x) C_ab with C_ab the
    contraction of the pair weights w p_a p_b with x~ x~^T (Boehning 1992),
    so restricted it is sum u_ab u_ab^T (x) C_ab: per `_point_blocks`
    block, one (pairs, block) @ (block, feature pairs) product of the
    block's pair weights and `_feature_products`, summed over the blocks,
    gives every C_ab.  Each term carries its own weight, at least 0, so a
    saturated head keeps its small curvature: nothing subtracts it from a
    probability that rounds to 1.  The dropped directions shift every class
    alike; the loss is flat along them, and neither the gradient nor the
    iterates from zero leave the subspace.  A block holds its (classes,
    block) probabilities, (pairs, block) pair weights and (feature pairs,
    block) products, built per call unless `products` gives
    `_feature_products(points_t)` kept by the caller.  numpy reports a
    product that overflows, and the arithmetic after it, whose infinities
    make the Hessian the step's failure, warns of nothing.
    """
    spread, differences, _ = operands
    model, classes = family.build(params), family.classes

    def term(block: slice) -> np.ndarray:
        block_products = (
            _feature_products(points_t[:, block]) if products is None else products[:, block]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            probs = _class_probabilities(model, points_t[:, block])
            pair_weights = np.empty((len(differences), probs.shape[1]))
            row = 0
            for a in range(classes - 1):
                np.multiply(probs[a + 1:], probs[a], out=pair_weights[row:row + classes - 1 - a])
                row += classes - 1 - a
            pair_weights *= weights[block]
            return pair_weights @ block_products.T

    blocks = functools.reduce(np.add, map(term, _point_blocks(points_t.shape[1])))
    width, rank = family.in_dim + 1, classes - 1
    with np.errstate(over="ignore", invalid="ignore"):
        terms = differences[:, :, None] @ blocks[:, spread][:, None, :]
        hessian = differences.T @ terms.reshape(len(differences), -1)
    hessian = hessian.reshape(rank, rank, width, width).transpose(0, 2, 1, 3)
    hessian = hessian.reshape(rank * width, rank * width)
    hessian.reshape(-1)[:: rank * width + 1] += _HEAD_L2
    return hessian


def _cholesky_step(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """An exact Newton step H^-1 grad, by Cholesky of H scaled to a unit diagonal.

    The scaling (Jacobi's) makes the factorization independent of each
    parameter's scale, as it does the conjugate gradients'.  None where H
    or the step is not finite, or H is not positive definite to working
    precision: the Hessian is then non-finite or singular.
    """
    diagonal = np.diagonal(hessian)
    if not (np.all(np.isfinite(hessian)) and np.all(diagonal > 0.0)):
        return None
    scale = 1.0 / np.sqrt(diagonal)
    try:
        lower = np.linalg.cholesky(hessian * scale[:, None] * scale)
        solved = np.linalg.solve(lower.T, np.linalg.solve(lower, scale * grad))
    except np.linalg.LinAlgError:
        return None
    step = scale * solved
    return step if np.all(np.isfinite(step)) else None


def _exact_newton_steps(
    family: SoftmaxHeadFamily, points_t: np.ndarray, weights: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray | None]:
    """A head's Newton step (params, grad) -> H^-1 grad, from its exact Hessian.

    Builds `_pair_operands` once, and the `_feature_products` of a head of
    one `_point_blocks` block, which holds no more than a step would; each
    step forms `_head_hessian` and solves it by `_cholesky_step` on the
    sum-zero subspace, where the gradient lies: its class sums are zero,
    the data's and, for iterates from zero, the L2 term's.  Overflow in the
    Hessian's arithmetic (`_head_hessian`) or the step is read as the
    step's failure, not warned of.
    """
    operands = _pair_operands(family.in_dim, family.classes)
    basis = operands[-1]
    products = _feature_products(points_t) if len(_point_blocks(points_t.shape[1])) == 1 else None

    def step(params: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
        grid = np.column_stack(family.unpack(grad))
        hessian = _head_hessian(family, params, points_t, weights, operands, products)
        with np.errstate(over="ignore", invalid="ignore"):
            solved = _cholesky_step(hessian, (basis.T @ grid).ravel())
        if solved is None:
            return None
        grid = basis @ solved.reshape(-1, family.in_dim + 1)
        return np.concatenate([grid[:, :-1].ravel(), grid[:, -1]])

    return step


def _newton(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    newton_step: Callable[[np.ndarray, np.ndarray], np.ndarray | None],
    size: int,
) -> TrainTrace:
    """Damped Newton from zero on a strongly convex `objective`, to its minimizer.

    `newton_step(params, grad)` gives the step H^-1 grad there, exact or
    inexact, or None where the Hessian is non-finite or singular to
    working precision.  Each step stops once half the decrement grad .
    step is below `_NEWTON_TOL`, and otherwise halves the step until the
    objective falls by at least `_ARMIJO` times the decrement's share of
    it (Armijo backtracking; Nocedal & Wright 2006, ch. 3 and sec. 7.1;
    Boyd & Vandenberghe 2004, sec. 9.5).  A non-finite trial value counts
    as no decrease.  Returns the trace of the value at each step's start,
    its last entry the returned minimizer's.

    Raises:
        TrainingDivergedError: if the value or the gradient is not
            finite, `newton_step` finds the Hessian non-finite or
            singular, or a cap is hit: more than `_NEWTON_MAX_STEPS` steps
            or `_NEWTON_MAX_HALVINGS` halvings of one step.  The trace keeps
            the last iterate reached.
    """
    params = np.zeros(size)
    value, grad = objective(params)
    objectives: list[float] = []

    def fail(why: str) -> NoReturn:
        raise TrainingDivergedError(why, TrainTrace(tuple(objectives), params))

    for step_index in range(_NEWTON_MAX_STEPS):
        at = f"at Newton step {step_index}"
        if not np.isfinite(value):
            fail(f"loss became {value} {at}")
        if not np.all(np.isfinite(grad)):
            fail(f"loss gradient became non-finite {at}")
        objectives.append(value)
        step = newton_step(params, grad)
        if step is None:
            fail(f"loss Hessian became non-finite or singular {at}")
        decrement = float(grad @ step)
        if decrement / 2.0 < _NEWTON_TOL:
            return TrainTrace(tuple(objectives), params)
        scale = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            trial = params - scale * step
            trial_value, trial_grad = objective(trial)
            if trial_value <= value - _ARMIJO * scale * decrement:
                break
            scale /= 2.0
        else:
            fail(f"line search found no decrease in {_NEWTON_MAX_HALVINGS} halvings {at}")
        params, value, grad = trial, trial_value, trial_grad
    fail(f"loss did not converge in {_NEWTON_MAX_STEPS} Newton steps")


def _descend(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]], family: AffineMapFamily,
    cfg: TrainConfig,
) -> tuple[float, TrainTrace, np.ndarray]:
    """The output map's epoch loop: full-batch descent on `objective` from `family`'s seeded start.

    Runs exactly cfg.epochs and keeps the iterate of the strictly lowest
    value.  Returns that value, the trace keeping its iterate, and the
    iterate after the last step.
    """
    params = family.init_parameters(np.random.default_rng(cfg.seed))
    objectives: list[float] = []
    best_params, best_value = params.copy(), np.inf
    for _ in range(cfg.epochs):
        value, grad = objective(params)
        if not np.isfinite(value):
            trace = TrainTrace(tuple(objectives), best_params)
            raise TrainingDivergedError(f"objective became {value} at epoch {len(objectives)}", trace)
        objectives.append(value)
        if value < best_value:
            best_params, best_value = params.copy(), value
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
    if family.out_dim != 1:
        raise ValueError(f"output maps must be scalar, got output dimension {family.out_dim}")
    if law_zt.dim != family.in_dim:
        raise ValueError(
            f"source outputs have dimension {law_zt.dim}, family expects {family.in_dim}"
        )
    if law_yt_proxy.dim != 1:
        raise ValueError(f"proxy dimension {law_yt_proxy.dim} != family output dimension 1")
    coupling = _equal_weight_coupling(law_zt.weights, law_yt_proxy)

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        return transport_objective(
            family, params, law_zt.points, law_zt.weights, law_yt_proxy, p, _coupling=coupling
        )

    risk, trace, last = _descend(objective, family, cfg)
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
) -> tuple[float, AffineModel, TrainTrace]:
    """Fit the softmax head to its loss's minimizer; score it on the held-out split.

    The head minimizes the `features`-weighted cross-entropy of `labels`
    plus `_HEAD_L2 / 2 * ||params||^2` over all its parameters, biases
    included.  That loss is strongly convex, so its minimizer is unique:
    the head depends on the training rows and their weights alone, not on
    their order.  `_newton` finds it from zero: up to
    `_DENSE_STEP_MAX_PARAMS` parameters each step solves the exact Hessian
    (`_exact_newton_steps`), otherwise conjugate gradients solve it on the
    Hessian products of `_head_curvature`.  Both routes stop by the same
    rule and fail with the same errors.

    Returns:
        (accuracy, model, trace) with accuracy weighted by the held-out
        distribution's weights, and the trace's objectives the regularized
        loss at the start of each Newton step.

    Raises:
        ValueError: on labels of a non-integer dtype or outside
            {0..classes-1}, or a single-class training set.
        TrainingDivergedError: if the loss, its gradient or its Hessian
            leaves the reals, or the solve hits one of `_newton`'s caps.
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
    if labels.min() == labels.max():
        raise ValueError("training labels contain a single class")
    if features.dim != family.in_dim:
        raise ValueError(f"features dimension {features.dim} != family input {family.in_dim}")

    operands = _head_operands(features.points, labels)

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = cross_entropy_objective(
            family, params, features.points, labels, features.weights, _operands=operands
        )
        return value + _HEAD_L2 / 2.0 * float(params @ params), grad + _HEAD_L2 * params

    if _takes_exact_steps(family.classes, family.in_dim):
        newton_step = _exact_newton_steps(family, operands[0], features.weights)
    else:
        def newton_step(params: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
            return _conjugate_gradient(
                *_head_curvature(family, params, operands[0], features.weights), grad
            )

    trace = _newton(objective, newton_step, family.parameter_count())
    del newton_step  # an exact step's kept feature products go before the prediction

    def hits(block: slice) -> np.ndarray:
        predicted = family.predict(trace.parameters, eval_features.points[block])
        return np.sum(eval_features.weights[block] * (predicted == eval_labels[block]))

    accuracy = float(functools.reduce(np.add, map(hits, _point_blocks(eval_features.size))))
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


def _takes_exact_steps(classes: int, in_dim: int) -> bool:
    """Whether a classifier head of `classes` on `in_dim` inputs solves its Newton steps exactly.

    Up to `_DENSE_STEP_MAX_PARAMS` parameters, where exact steps are the
    faster route.  `train_classifier` takes the route and `_head_bytes`
    counts it.
    """
    return classes * (in_dim + 1) <= _DENSE_STEP_MAX_PARAMS


def _head_bytes(n: int, classes: int, in_dim: int) -> int:
    """Bytes a classifier head on `in_dim` inputs takes while it trains on n points.

    Per point, its inputs: the (in_dim, n) points' copy from in_dim 2 and
    the label index; on Newton-CG also a step's (classes, n) probabilities
    and most probable classes (`_head_curvature`).  Per point of one block,
    the largest block pass: the feature products beside a Hessian's
    probabilities and pair weights, or, for a head of one block, which
    keeps its products through every step, beside the loss kernel's class
    array and three vectors; or a diagonal's spread and squared points.
    Then the exact step's pair terms and two Hessians, or twelve parameter
    vectors of conjugate gradients with their array headers.  Last, numpy's
    ufunc buffers of broadcasts, each at most `_UFUNC_BUFFER` elements and
    never more than the (rows, n) array it serves: one over an exact step's
    class-pair or feature-product rows, or two over a Newton-CG product's
    class arrays; numpy buffers no block past 4096 points, and there the
    allowance covers the fit's Python objects.  Under tracemalloc this is
    1.01-1.20x the peak on the tested shapes, from 50 points up.  On 21
    shapes from 50 to 10 000 points it is at most 1.45x the peak, which
    exceeds it by at most 5.2 KiB, in Python objects no term counts.
    """
    copy = in_dim if in_dim > 1 else 0
    width, pairs, rank = in_dim + 1, classes * (classes - 1) // 2, classes - 1
    per_block = min(n, _BLOCK_POINTS)
    if _takes_exact_steps(classes, in_dim):
        beside = max(pairs, 3) if per_block == n else pairs
        points, block = copy + 1, width * (width + 1) // 2 + classes + beside
        small = pairs * (rank + 2) * width**2 + 2 * (rank * width) ** 2
        buffers = min(_UFUNC_BUFFER, max(pairs, in_dim) * n)
    else:
        points, block = copy + 2 + classes, classes + in_dim
        small = 12 * (classes * width + _ARRAY_HEADER_FLOATS)
        buffers = 2 * min(_UFUNC_BUFFER, classes * n)
    return 8 * (points * n + block * per_block + small + buffers)


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


def _fit_workers(domains: list[SyntheticDomain]) -> int:
    """How many processes `evaluate_risk_accuracy_pairs` runs its fits on over `domains`.

    `_fork_workers()`, and no more heads of the run's largest size than
    `_HEAD_BUDGET_BYTES` holds: the larger `_head_bytes` of a source head
    on dim inputs and a target head on classes inputs, on the longest
    training half.  1 while every training half is below the crossover of
    the target heads' route: `_CONCURRENT_MIN_POINTS` points for exact
    steps, `_NEWTON_CG_CONCURRENT_MIN_POINTS` for Newton-CG.  A fit process
    only trains: every input risk, dense route or not, is solved before
    the split.

    Raises:
        ValueError: if not even one head fits the budget, naming what makes
            the largest head that large: the domain holding the largest label
            and its class count, or the longest domain and its feature count.
    """
    longest = max(domains, key=lambda d: d.train.size)
    n, dim, classes = longest.train.size, longest.train.dim, longest.classes
    needed = max(_head_bytes(n, classes, dim), _head_bytes(n, classes, classes))
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
    if n < (_CONCURRENT_MIN_POINTS if _takes_exact_steps(classes, classes)
            else _NEWTON_CG_CONCURRENT_MIN_POINTS):
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
    run: Callable[[Sequence[int]], list], items: Sequence[int], workers: int,
    child: Callable[[Sequence[int]], str],
) -> list:
    """`run(items)` on `workers` processes, one or two, joined in item order.

    On one, `run(items)` in this process, which forks nothing.  On two, the
    items split into two contiguous halves, the first no smaller: `run` of
    the first runs in this process and `run` of the second in a forked
    child, which sends back its results, or its first error, pickled
    through a pipe.  This process's own error is raised as it happens, and
    the child is then killed; otherwise the child's error is raised, and a
    child that ends without sending anything raises a RuntimeError that
    opens with `child(second)`, what the child ran ("the process for ...").
    The child is reaped before this returns or raises, on an interrupt too.
    """
    if workers == 1:
        return run(items)
    half = (len(items) + 1) // 2
    first, second = items[:half], items[half:]
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
        raise RuntimeError(f"{child(second)} ended without a result ({how})")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return results + value


def evaluate_risk_accuracy_pairs(
    domains: list[SyntheticDomain],
    risk_cfg: TrainConfig = TrainConfig(learning_rate=0.5),
    ot: OtConfig = OtConfig(),
) -> list[PairResult]:
    """Measured accuracy and risks over all ordered domain pairs.

    One source head is trained per domain and transferred to every other
    domain: target points are re-expressed as that head's class
    probabilities, and three quantities are measured per pair: the input
    risk W_p^p between the raw feature clouds (order and solver from `ot`),
    the trained-and-budgeted output risk against the target label law, and
    the held-out accuracy of a target head fine-tuned on the
    representation.  Every head, source or target, is the unique minimizer
    of its regularized loss (`train_classifier`), so no head has a seed or
    a budget.  The input risk depends on the two input laws alone, so it is
    solved once per unordered pair, in this process before any head trains,
    as `input_risk(higher.train, lower.train)` by domain index, and both
    ordered pairs read that value.  Nothing is rescaled or combined here:
    the pipeline turns these measurements into transfer risks.  The
    output-map descent of the i-th ordered pair is seeded with
    risk_cfg.seed + i, so runs are reproducible.

    The fits run on `_fit_workers(domains)` processes: two, on Linux, for
    domains whose training halves reach the crossover of the target heads'
    route, and otherwise one.  `_run_forked` splits the source domains between
    them, each half in pair order.  Every fit is a pure function of its
    inputs (and a descent's seed), so the rows, and the first error in pair order, are
    those of one process.

    Raises:
        ValueError: before any fit, if the domains differ in class or feature
            count, or a head would exceed `_HEAD_BUDGET_BYTES` (`_fit_workers`).
        ValueError, RuntimeError: before any fit, from the first failing
            input-risk solve (`wasserstein`'s dense-budget refusal, an
            infeasible plan, a SinkhornConvergenceError).
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
    workers = _fit_workers(domains)
    risks: dict[tuple[int, int], float] = {}
    for lower, higher in itertools.combinations(range(len(domains)), 2):
        risks[lower, higher] = risks[higher, lower] = input_risk(
            domains[higher].train, domains[lower].train, "wasserstein", ot
        )

    def represent(pair: str, cloud: EmpiricalDistribution, head) -> EmpiricalDistribution:
        # The transferred representation is the frozen source head's class
        # probabilities.  Saturation far from the source decision
        # boundaries loses information, so domain shift actually hurts; raw
        # logits would let the fine-tuned head undo any shift.
        _, source_model, source_trace = head
        # A head can keep a finite loss with weights so large that its
        # logits overflow on points far from the source domain.
        probs = _class_probabilities(source_model, np.ascontiguousarray(cloud.points.T))
        features = np.ascontiguousarray(probs.T)
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

    def run_block(sources: Sequence[int]) -> list[PairResult]:
        # Each source head, then per ordered pair the target points'
        # representation, the output-map descent and the target head.
        rows: list[PairResult] = []
        for source_index in sources:
            source = domains[source_index]
            head = _named(
                f"source head of {source.name}", train_classifier,
                SoftmaxHeadFamily(source.train.dim, classes), source.train, source.train_labels,
                source.held_out, source.held_out_labels,
            )
            for pair_index, target_index in pairs[source_index]:
                target = domains[target_index]
                pair = f"{source.name}->{target.name}"
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
                )
                rows.append(PairResult(
                    source.name, target.name, accuracy, risks[source_index, target_index],
                    output_risk,
                ))
        return rows

    return _run_forked(
        run_block, range(len(domains)), workers,
        lambda second: "the fit process for source domains "
        + ", ".join(domains[i].name for i in second),
    )
