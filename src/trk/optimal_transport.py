"""Discrete optimal transport between weighted point clouds.

Four routes compute the p-Wasserstein distance W_p under the Euclidean
ground metric: an exact quantile sweep for one-dimensional clouds, an exact
linear assignment for uniformly weighted clouds of equal size, an exact
linear program (HiGHS) for other small supports, and a log-domain Sinkhorn
iteration for everything larger.  The assignment route is exact because the
transport polytope between two uniform clouds of equal size has a
permutation matrix among its optimal vertices.  The entropic route
over-approximates the exact cost by an epsilon-dependent amount; it is
cross-checked against the LP in the test suite rather than bounded here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from .distributions import EmpiricalDistribution

__all__ = [
    "Coupling",
    "OtConfig",
    "SinkhornConvergenceError",
    "wasserstein",
    "wasserstein_1d_exact",
]

_METHODS = ("auto", "exact_1d", "exact_lp", "sinkhorn")

# Plans from either solver must reproduce the prescribed marginals this well.
MARGINAL_TOL = 1e-7

_SINKHORN_TOL = 1e-6
_SINKHORN_CHECK_EVERY = 10


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
        p: order of the distance, >= 1; ground cost is ||x - y||^p.
        method: one of 'auto', 'exact_1d', 'exact_lp', 'sinkhorn'.  'auto'
            picks the quantile sweep in one dimension; when both supports
            fit under lp_max_support, a linear assignment for uniformly
            weighted clouds of equal size and the HiGHS LP for any other
            pair; Sinkhorn otherwise.  'exact_lp' always runs HiGHS.
        sinkhorn_epsilon: entropic regularization; None means 0.01 times the
            mean pairwise cost of the instance.
        sinkhorn_max_iter: iteration cap before SinkhornConvergenceError.
        lp_max_support: largest support size the LP route accepts.
    """

    p: float = 1.0
    method: str = "auto"
    sinkhorn_epsilon: float | None = None
    sinkhorn_max_iter: int = 2000
    lp_max_support: int = 400

    def __post_init__(self) -> None:
        if self.p < 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {_METHODS}")
        if self.sinkhorn_epsilon is not None and self.sinkhorn_epsilon <= 0.0:
            raise ValueError("sinkhorn_epsilon must be positive")
        if self.sinkhorn_max_iter < 1:
            raise ValueError("sinkhorn_max_iter must be >= 1")
        if self.lp_max_support < 1:
            raise ValueError("lp_max_support must be >= 1")


@dataclass(frozen=True)
class Coupling:
    """Transport plan together with its cost <plan, C> = W_p^p."""

    plan: np.ndarray
    cost: float

    def __post_init__(self) -> None:
        plan = np.asarray(self.plan, dtype=np.float64)
        if plan.ndim != 2:
            raise ValueError(f"plan must be a matrix, got shape {plan.shape}")
        if plan.min() < -1e-12:
            raise ValueError(f"plan has negative entries, min {plan.min():.3e}")
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "cost", float(self.cost))

    def marginal_violation(
        self, source_weights: np.ndarray, target_weights: np.ndarray
    ) -> float:
        """Max deviation of the plan's marginals from the prescribed weights."""
        row = np.abs(self.plan.sum(axis=1) - source_weights).max()
        col = np.abs(self.plan.sum(axis=0) - target_weights).max()
        return float(max(row, col))


def _cost_matrix(a: EmpiricalDistribution, b: EmpiricalDistribution, p: float) -> np.ndarray:
    return cdist(a.points, b.points) ** p


def _quantile_coupling(
    u: np.ndarray, uw: np.ndarray, v: np.ndarray, vw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monotone coupling of two weighted 1-D samples by a merged sweep.

    Splits the unit interval at the cumulative-weight breakpoints of both
    samples; on each segment the two quantile functions are constant.

    Returns:
        (iu, iv, lengths): per segment, the index into `u` and into `v` of
        the atoms coupled there, and the segment's length (its mass).
    """
    order_u = np.argsort(u, kind="stable")
    order_v = np.argsort(v, kind="stable")
    cu = np.cumsum(uw[order_u])
    cv = np.cumsum(vw[order_v])
    # Breakpoints where either quantile function can jump.
    ts = np.union1d(cu[:-1], cv[:-1])
    ts = ts[(ts > 0.0) & (ts < 1.0)]
    edges = np.concatenate([[0.0], ts, [1.0]])
    mids = (edges[:-1] + edges[1:]) / 2.0
    # Round-off can leave the last cumulative weight a hair under 1, so clip.
    iu = np.minimum(np.searchsorted(cu, mids, side="left"), len(u) - 1)
    iv = np.minimum(np.searchsorted(cv, mids, side="left"), len(v) - 1)
    return order_u[iu], order_v[iv], np.diff(edges)


def wasserstein_1d_exact(
    a: EmpiricalDistribution, b: EmpiricalDistribution, p: float = 1.0
) -> float:
    """Exact W_p between one-dimensional clouds via the quantile coupling.

    Runs a merged sweep over the cumulative-weight breakpoints of both
    clouds; each segment of the unit interval is matched between the two
    quantile functions.  O((n+m) log(n+m)) and exact, so it doubles as the
    reference for the LP route in one dimension.
    """
    if a.dim != 1 or b.dim != 1:
        raise ValueError(f"exact 1-d route needs dim 1, got {a.dim} and {b.dim}")
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
    u, v = a.points[:, 0], b.points[:, 0]
    iu, iv, lengths = _quantile_coupling(u, a.weights, v, b.weights)
    cost = float(np.sum(lengths * np.abs(u[iu] - v[iv]) ** p))
    return cost ** (1.0 / p)


def _solve_lp(aw: np.ndarray, bw: np.ndarray, cost: np.ndarray) -> np.ndarray:
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


def _solve_assignment(weights: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Optimal permutation plan carrying mass weights[i] along each matched pair."""
    rows, cols = linear_sum_assignment(cost)
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
        f = -epsilon * logsumexp(scaled + g[None, :] / epsilon + lb[None, :], axis=1)
        g = -epsilon * logsumexp(scaled + f[:, None] / epsilon + la[:, None], axis=0)
        if it % _SINKHORN_CHECK_EVERY == 0 or it == max_iter:
            plan = np.exp(
                scaled + f[:, None] / epsilon + g[None, :] / epsilon + la[:, None] + lb[None, :]
            )
            violation = max(
                np.abs(plan.sum(axis=1) - aw).max(), np.abs(plan.sum(axis=0) - bw).max()
            )
            if violation < _SINKHORN_TOL:
                # Convergence is judged on the raw iterate; the returned plan
                # is then rounded onto the polytope so marginal invariants
                # hold to machine precision downstream.
                return _round_to_marginals(plan, aw, bw)
    raise SinkhornConvergenceError(float(violation), max_iter)


def wasserstein(
    a: EmpiricalDistribution, b: EmpiricalDistribution, cfg: OtConfig = OtConfig()
) -> tuple[float, Coupling | None]:
    """p-Wasserstein distance between two clouds, with the plan when built.

    The 'auto' method takes the quantile sweep for one-dimensional clouds.
    Otherwise, when both supports fit under lp_max_support, it solves a
    linear assignment for uniformly weighted clouds of equal size and the
    HiGHS LP for every other pair; larger instances go to Sinkhorn.  The
    assignment and the LP both return an optimal plan, so they agree on W_p.

    Returns:
        (distance, coupling).  The coupling carries cost = distance**p; the
        quantile route returns None since it never materializes a plan.

    Raises:
        ValueError: on dimension mismatch, or when an explicitly requested
            method cannot handle the instance (wrong dimension for
            'exact_1d', support above lp_max_support for 'exact_lp').
        SinkhornConvergenceError: when the entropic route misses tolerance.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    method = cfg.method
    if method == "auto":
        if a.dim == 1:
            method = "exact_1d"
        elif max(a.size, b.size) <= cfg.lp_max_support:
            # An internal route, not a selectable method: explicit 'exact_lp'
            # keeps HiGHS so the LP stays testable against an assignment oracle.
            method = "assignment" if _is_uniform_pair(a, b) else "exact_lp"
        else:
            method = "sinkhorn"

    if method == "exact_1d":
        return wasserstein_1d_exact(a, b, cfg.p), None

    cost = _cost_matrix(a, b, cfg.p)
    if method == "assignment":
        plan = _solve_assignment(a.weights, cost)
    elif method == "exact_lp":
        if max(a.size, b.size) > cfg.lp_max_support:
            raise ValueError(
                f"support {max(a.size, b.size)} exceeds lp_max_support={cfg.lp_max_support}; "
                "use sinkhorn for instances this large"
            )
        plan = _solve_lp(a.weights, b.weights, cost)
    elif method == "sinkhorn":
        if cost.max() == 0.0:
            # All mass is already in place; the product plan is optimal.
            plan = np.outer(a.weights, b.weights)
        else:
            epsilon = cfg.sinkhorn_epsilon
            if epsilon is None:
                epsilon = 0.01 * float(cost.mean())
            plan = _solve_sinkhorn(a.weights, b.weights, cost, epsilon, cfg.sinkhorn_max_iter)
    else:  # pragma: no cover - exhausted by OtConfig validation
        raise ValueError(f"unknown method {method!r}")

    coupling = Coupling(plan, float((plan * cost).sum()))
    violation = coupling.marginal_violation(a.weights, b.weights)
    if violation > MARGINAL_TOL:
        raise RuntimeError(
            f"solver returned an infeasible plan: marginal violation {violation:.3e}"
        )
    return coupling.cost ** (1.0 / cfg.p), coupling
