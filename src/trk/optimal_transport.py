"""Discrete optimal transport between weighted point clouds.

Four routes compute the p-Wasserstein distance W_p under the Euclidean
ground metric: an exact quantile sweep for one-dimensional clouds, an exact
linear assignment for uniformly weighted clouds of equal size, an exact
linear program (HiGHS) for other small supports, and a log-domain Sinkhorn
iteration for everything larger.  The 'auto' method picks the route from
the input alone; 'sinkhorn' forces the entropic route.  The assignment
route is exact because the transport polytope between two uniform clouds of
equal size has a permutation matrix among its optimal vertices.  The
entropic route over-approximates the exact cost by an epsilon-dependent
amount; it is cross-checked against the LP in the test suite rather than
bounded here.
The three dense routes refuse, before building the cost matrix, an instance
whose n x m working set would exceed the memory budget.
The cost matrix is built in numpy, and the assignment route loads scipy's
compiled `_lsap` extension by itself, so a one-dimensional run and an
assignment run import no scipy package.  The assignment falls back to
`scipy.optimize` if that private module cannot be loaded; the LP route
imports `scipy.optimize` when it runs.  Sinkhorn's log-sum-exp is numpy's
too, so a Sinkhorn run imports no scipy package either.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import EmpiricalDistribution, _budget_holds, _require

__all__ = [
    "OtConfig",
    "SinkhornConvergenceError",
    "wasserstein",
    "wasserstein_1d_exact",
]

_METHODS = ("auto", "sinkhorn")

# Plans from every solver must reproduce the prescribed marginals this well.
MARGINAL_TOL = 1e-7

_SINKHORN_TOL = 1e-6
_SINKHORN_CHECK_EVERY = 10

# Peak traced memory of each dense route, counted in n x m float64 matrices
# (tracemalloc at a few hundred points per side; HiGHS's own heap excluded).
_DENSE_MATRICES = {"assignment": 3, "lp": 41, "sinkhorn": 10}


class SinkhornConvergenceError(RuntimeError):
    """Raised when the Sinkhorn iteration misses the marginal tolerance.

    Attributes:
        violation: max marginal violation at the final iterate.
        iterations: number of iterations run.
    """

    def __init__(self, violation: float, iterations: int):
        self.violation = violation
        self.iterations = iterations
        super().__init__(
            f"sinkhorn did not converge in {iterations} iterations: "
            f"max marginal violation {violation:.3e} (tolerance {_SINKHORN_TOL:.0e}); "
            "increase sinkhorn_max_iter or sinkhorn_epsilon"
        )


@dataclass(frozen=True)
class OtConfig:
    """Solver configuration.

    Attributes:
        p: order of the distance, finite and >= 1; ground cost is ||x - y||^p.
        method: 'auto' or 'sinkhorn'.  'auto' picks the quantile sweep in
            one dimension; when both supports fit under lp_max_support, a
            linear assignment for uniformly weighted clouds of equal size
            and the HiGHS LP for any other pair; Sinkhorn otherwise.
            'sinkhorn' always runs the entropic route.
        sinkhorn_epsilon: entropic regularization, finite and positive; None
            means 0.01 times the mean pairwise cost of the instance.
        sinkhorn_max_iter: iteration cap before SinkhornConvergenceError.
        lp_max_support: largest support size 'auto' sends to an exact
            dense route (assignment or LP).
    """

    p: float = 1.0
    method: str = "auto"
    sinkhorn_epsilon: float | None = None
    sinkhorn_max_iter: int = 2000
    lp_max_support: int = 400

    def __post_init__(self) -> None:
        # Each range is checked as one chained comparison, which NaN fails.
        _require(1.0 <= self.p < np.inf, "p", ">= 1", self.p)
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {_METHODS}")
        if self.sinkhorn_epsilon is not None and not 0.0 < self.sinkhorn_epsilon < np.inf:
            raise ValueError("sinkhorn_epsilon must be positive")
        if self.sinkhorn_max_iter < 1:
            raise ValueError("sinkhorn_max_iter must be >= 1")
        if self.lp_max_support < 1:
            raise ValueError("lp_max_support must be >= 1")


def _marginal_violation(plan: np.ndarray, aw: np.ndarray, bw: np.ndarray) -> float:
    """Max deviation of the plan's row and column sums from the weights."""
    row = np.abs(plan.sum(axis=1) - aw).max()
    col = np.abs(plan.sum(axis=0) - bw).max()
    return float(max(row, col))


def _cost_matrix(a: EmpiricalDistribution, b: EmpiricalDistribution, p: float) -> np.ndarray:
    """||x - y||^p for every pair, bit-equal to scipy's `cdist(x, y) ** p`.

    Squared differences are summed one coordinate at a time, the order of
    cdist's loop, so the bits match in any dimension.  Everything runs in
    place, so the peak is the result plus one scratch matrix.
    """
    x, y = a.points, b.points
    cost = np.zeros((len(x), len(y)))
    scratch = np.empty_like(cost)
    for k in range(x.shape[1]):
        np.subtract(x[:, k, None], y[None, :, k], out=scratch)
        scratch *= scratch
        cost += scratch
    np.sqrt(cost, out=cost)
    cost **= p
    return cost


def _check_dense_budget(method: str, n: int, m: int) -> None:
    """Refuse a dense route whose n x m working set would exceed the memory budget."""
    _budget_holds(f"the {method} route on supports of {n} and {m} points",
                  _DENSE_MATRICES[method] * n * m * 8)


def _quantile_coupling(
    cumulative: np.ndarray, target: EmpiricalDistribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monotone coupling of a moving 1-D law onto the 1-D cloud `target`.

    `cumulative` is the moving law's cumulative weights in its sorted order;
    the target keeps its own `_side`, so it is sorted once however many
    sweeps it enters.  The unit interval splits at the breakpoints of both,
    where either quantile function can jump.

    Returns:
        (positions, values, lengths): per segment, the sorted position of
        the moving atom coupled there, the target atom's value, and the
        segment's length (its mass).
    """
    order_v, cv = target._side
    # The breakpoints inside (0, 1), sorted, each kept once: `np.union1d`'s
    # sort and first-of-equal-neighbours rule, without the `numpy.ma` import
    # that numpy's `unique` makes.
    ts = np.concatenate([cumulative[:-1], cv[:-1]])
    ts.sort()
    keep = (ts > 0.0) & (ts < 1.0)
    keep[1:] &= ts[1:] != ts[:-1]
    edges = np.concatenate([[0.0], ts[keep], [1.0]])
    mids = (edges[:-1] + edges[1:]) / 2.0
    # Round-off can leave the last cumulative weight a hair under 1, so clip.
    pu = np.minimum(np.searchsorted(cumulative, mids, side="left"), len(cumulative) - 1)
    pv = np.minimum(np.searchsorted(cv, mids, side="left"), len(cv) - 1)
    return pu, target.points[order_v[pv], 0], np.diff(edges)


def _quantile_cost(diff: np.ndarray, lengths: np.ndarray, p: float) -> float:
    """W_p^p of a quantile coupling from its per-segment gaps and lengths."""
    return float(np.sum(np.abs(diff) ** p * lengths))


def wasserstein_1d_exact(
    a: EmpiricalDistribution, b: EmpiricalDistribution, p: float = 1.0
) -> float:
    """Exact W_p between one-dimensional clouds via the quantile coupling.

    `_quantile_coupling` matches each segment of the unit interval between
    the two quantile functions.  O((n+m) log(n+m)) and exact, so it doubles
    as the reference for the LP route in one dimension.  Each cloud's sort
    is kept on the cloud and reused by later calls.
    """
    if a.dim != 1 or b.dim != 1:
        raise ValueError(f"exact 1-d route needs dim 1, got {a.dim} and {b.dim}")
    _require(p >= 1.0, "order p", ">= 1", p)
    order, cumulative = a._side
    positions, values, lengths = _quantile_coupling(cumulative, b)
    return _quantile_cost(a.points[order[positions], 0] - values, lengths, p) ** (1.0 / p)


def _solve_lp(aw: np.ndarray, bw: np.ndarray, cost: np.ndarray) -> np.ndarray:
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = cost.shape
    idx = np.arange(n * m)
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.concatenate([idx, idx])
    a_eq = csr_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m))
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([aw, bw]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(n, m)


def _is_uniform_pair(a: EmpiricalDistribution, b: EmpiricalDistribution) -> bool:
    """Whether both clouds have the same size and all-equal weights."""
    return (
        a.size == b.size
        and bool(np.all(a.weights == a.weights[0]))
        and bool(np.all(b.weights == b.weights[0]))
    )


def _load_lsap_extension():
    """scipy's compiled `linear_sum_assignment`, loaded without `scipy.optimize`.

    Importing `scipy.optimize` takes most of a small run, and the solver
    lives in one extension module.  Its file is found by this platform's
    extension suffixes and executed in place; it is not entered in
    `sys.modules`, so a later `import scipy.optimize` is unaffected.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    name = "scipy.optimize._lsap"
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                # A single-phase extension enters itself in sys.modules on
                # creation, so put back whatever was there before.
                previous = sys.modules.get(name)
                try:
                    module = importlib.util.module_from_spec(
                        importlib.util.spec_from_file_location(name, path, loader=loader)
                    )
                    loader.exec_module(module)
                finally:
                    if previous is None:
                        sys.modules.pop(name, None)
                    else:
                        sys.modules[name] = previous
                return module.linear_sum_assignment
    raise ImportError(f"no {name} extension under {spec.submodule_search_locations}")


@functools.cache
def _linear_sum_assignment():
    """The assignment solver, resolved once per process.

    `scipy.optimize.linear_sum_assignment` is the `_lsap` function itself, so
    both paths run the same code and return the same plan.
    """
    if "scipy.optimize" not in sys.modules:
        try:
            return _load_lsap_extension()
        except Exception as exc:  # the module is private: any failure falls back
            logging.getLogger("trk").debug("loading scipy's _lsap failed (%s)", exc)
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def _solve_assignment(weights: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Optimal permutation plan carrying mass weights[i] along each matched pair."""
    rows, cols = _linear_sum_assignment()(cost)
    plan = np.zeros_like(cost)
    plan[rows, cols] = weights[rows]
    return plan


def _round_to_marginals(plan: np.ndarray, aw: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Project a nearly-feasible plan onto the transport polytope.

    Scales rows then columns down where they overshoot and spreads the
    leftover mass as a rank-one correction.  Moves the plan by at most the
    marginal violation, so the cost changes by O(violation * max cost).
    """
    row = plan.sum(axis=1)
    plan = plan * np.minimum(1.0, aw / np.where(row > 0.0, row, 1.0))[:, None]
    col = plan.sum(axis=0)
    plan = plan * np.minimum(1.0, bw / np.where(col > 0.0, col, 1.0))[None, :]
    res_a = aw - plan.sum(axis=1)
    res_b = bw - plan.sum(axis=0)
    mass = res_a.sum()
    if mass > 0.0:
        plan = plan + np.outer(res_a, res_b) / mass
    return plan


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(values))) along `axis`, computed in place in `values`.

    Each line is shifted by its max, so no exp overflows (Peyre & Cuturi 2019, ch. 4).
    """
    top = values.max(axis=axis, keepdims=True)
    values -= top
    np.exp(values, out=values)
    return np.log(values.sum(axis=axis)) + top.squeeze(axis)


def _solve_sinkhorn(
    aw: np.ndarray, bw: np.ndarray, cost: np.ndarray, epsilon: float, max_iter: int
) -> np.ndarray:
    with np.errstate(divide="ignore"):  # zero weights drop out as -inf
        la, lb = np.log(aw), np.log(bw)
    scaled = -cost / epsilon
    f = np.zeros(len(aw))
    g = np.zeros(len(bw))
    violation = np.inf
    for it in range(1, max_iter + 1):
        f = -epsilon * _logsumexp(scaled + (g / epsilon + lb)[None, :], axis=1)
        g = -epsilon * _logsumexp(scaled + (f / epsilon + la)[:, None], axis=0)
        if it % _SINKHORN_CHECK_EVERY == 0 or it == max_iter:
            plan = np.exp(
                scaled + f[:, None] / epsilon + g[None, :] / epsilon + la[:, None] + lb[None, :]
            )
            violation = _marginal_violation(plan, aw, bw)
            if violation < _SINKHORN_TOL:
                # Convergence is judged on the raw iterate; the returned plan
                # is then rounded onto the polytope so marginal invariants
                # hold to machine precision downstream.
                return _round_to_marginals(plan, aw, bw)
    raise SinkhornConvergenceError(violation, max_iter)


def _route(a: EmpiricalDistribution, b: EmpiricalDistribution, cfg: OtConfig) -> str:
    """The route `wasserstein` takes: '1d', 'assignment', 'lp' or 'sinkhorn'.

    The one place that reads `cfg.method` and lp_max_support to pick a
    solver, by the rule `OtConfig.method` states.
    """
    if cfg.method != "auto":
        return "sinkhorn"
    if a.dim == 1:
        return "1d"
    if max(a.size, b.size) <= cfg.lp_max_support:
        return "assignment" if _is_uniform_pair(a, b) else "lp"
    return "sinkhorn"


def wasserstein(
    a: EmpiricalDistribution, b: EmpiricalDistribution, cfg: OtConfig = OtConfig()
) -> float:
    """p-Wasserstein distance between two clouds.

    `_route` picks the solver.  The assignment and the LP both find an
    optimal plan, so they agree on W_p.

    Raises:
        ValueError: on dimension mismatch, or when a dense route would
            exceed the memory budget; the size check runs before the cost
            matrix is built.
        RuntimeError: when a solver returns a plan with a negative entry or
            marginals off by more than MARGINAL_TOL.
        SinkhornConvergenceError: when the entropic route misses tolerance.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    route = _route(a, b, cfg)
    if route == "1d":
        return wasserstein_1d_exact(a, b, cfg.p)
    _check_dense_budget(route, a.size, b.size)
    cost = _cost_matrix(a, b, cfg.p)
    if route == "assignment":
        plan = _solve_assignment(a.weights, cost)
    elif route == "lp":
        plan = _solve_lp(a.weights, b.weights, cost)
    elif cost.max() == 0.0:
        # All mass is already in place; the product plan is optimal.
        plan = np.outer(a.weights, b.weights)
    else:
        epsilon = cfg.sinkhorn_epsilon
        if epsilon is None:
            epsilon = 0.01 * float(cost.mean())
        plan = _solve_sinkhorn(a.weights, b.weights, cost, epsilon, cfg.sinkhorn_max_iter)

    if plan.min() < -1e-12:
        raise RuntimeError(f"solver returned a plan with negative entries, min {plan.min():.3e}")
    violation = _marginal_violation(plan, a.weights, b.weights)
    if violation > MARGINAL_TOL:
        raise RuntimeError(
            f"solver returned an infeasible plan: marginal violation {violation:.3e}"
        )
    return float((plan * cost).sum()) ** (1.0 / cfg.p)
