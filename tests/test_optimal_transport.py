"""Tests for the discrete optimal transport solvers."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_lsa
from scipy.spatial.distance import cdist
from scipy.stats import wasserstein_distance as scipy_w1

import oracles
import trk.optimal_transport as ot_module
from trk.distributions import EmpiricalDistribution, Gaussian1D, gaussian_w2, sample
from trk.optimal_transport import (
    OtConfig,
    SinkhornConvergenceError,
    wasserstein,
    wasserstein_1d_exact,
)


def cloud(points, weights=None):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if weights is None:
        return EmpiricalDistribution.from_points(points)
    return EmpiricalDistribution(points, np.asarray(weights, dtype=float))


def random_cloud(rng, n, dim, weighted=False):
    pts = rng.normal(size=(n, dim))
    if not weighted:
        return EmpiricalDistribution.from_points(pts)
    w = rng.uniform(0.1, 1.0, size=n)
    return EmpiricalDistribution(pts, w / w.sum())


def lp_solve(a, b, p=1.0):
    """The HiGHS route run directly, whatever route 'auto' would pick: (W_p, plan)."""
    cost = ot_module._cost_matrix(a, b, p)
    plan = ot_module._solve_lp(a.weights, b.weights, cost)
    return float((plan * cost).sum()) ** (1.0 / p), plan


def patch_lp_plan(monkeypatch, corrupt):
    """Make the LP route hand back its optimal plan after `corrupt(plan)` edits it."""
    solve_lp = ot_module._solve_lp

    def corrupted(aw, bw, cost):
        plan = solve_lp(aw, bw, cost)
        corrupt(plan)
        return plan

    monkeypatch.setattr(ot_module, "_solve_lp", corrupted)


class TestOtConfig:
    def test_defaults(self):
        cfg = OtConfig()
        assert cfg.p == 1.0
        assert cfg.method == "auto"
        assert cfg.sinkhorn_epsilon is None
        assert cfg.sinkhorn_max_iter == 2000
        assert cfg.lp_max_support == 400

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            OtConfig(p=0.5)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            OtConfig(method="magic")

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            OtConfig(sinkhorn_epsilon=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # A single comparison once let these through: p = nan made
            # every distance nan, and p = inf read 1.0.
            ({"p": np.nan}, "p must be >= 1, got nan"),
            ({"p": np.inf}, "p must be >= 1, got inf"),
            ({"sinkhorn_epsilon": np.nan}, "sinkhorn_epsilon must be positive"),
            ({"sinkhorn_epsilon": np.inf}, "sinkhorn_epsilon must be positive"),
        ],
    )
    def test_rejects_non_finite_values(self, kwargs, message):
        with pytest.raises(ValueError) as caught:
            OtConfig(**kwargs)
        assert str(caught.value) == message


class TestCoupling:
    """`wasserstein` refuses a solver plan that is not a coupling of the two clouds."""

    def test_rejects_negative_entries(self, monkeypatch):
        rng = np.random.default_rng(45)
        a, b = random_cloud(rng, 6, 2, weighted=True), random_cloud(rng, 5, 2)

        def dent(plan):  # the optimum leaves this entry at 0, so the marginals move by 1e-9
            plan[np.unravel_index(np.argmin(plan), plan.shape)] = -1e-9

        patch_lp_plan(monkeypatch, dent)
        with pytest.raises(RuntimeError, match="negative entries, min -1.000e-09"):
            wasserstein(a, b)

    def test_rejects_marginals_off_by_more_than_the_tolerance(self, monkeypatch):
        rng = np.random.default_rng(46)
        a, b = random_cloud(rng, 6, 2, weighted=True), random_cloud(rng, 5, 2)

        def skew(plan):  # row 0 now sums to its weight plus 1e-6
            plan[0] *= 1.0 + 1e-6 / plan[0].sum()

        patch_lp_plan(monkeypatch, skew)
        with pytest.raises(RuntimeError, match="infeasible plan: marginal violation 1.000e-06"):
            wasserstein(a, b)

    def test_marginal_violation(self):
        plan = np.array([[0.25, 0.25], [0.0, 0.5]])
        violation = ot_module._marginal_violation
        assert violation(plan, np.array([0.5, 0.5]), np.array([0.25, 0.75])) == 0.0
        assert violation(plan, np.array([0.6, 0.4]), np.array([0.25, 0.75])) == pytest.approx(
            0.1
        )


class TestWasserstein1dExact:
    def test_identical_clouds(self):
        a = cloud([0.0, 1.0, 2.0])
        assert wasserstein_1d_exact(a, a, p=1.0) == pytest.approx(0.0, abs=1e-15)

    def test_point_to_symmetric_pair(self):
        # Plan is forced: half the mass moves to -1 and half to +1.
        a = cloud([0.0])
        b = cloud([-1.0, 1.0])
        assert wasserstein_1d_exact(a, b, p=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_uniform_grid(self):
        # Frozen: assignment oracle gives 1 for uniform{0..3} vs uniform{1..4}.
        a = cloud([0.0, 1.0, 2.0, 3.0])
        b = cloud([1.0, 2.0, 3.0, 4.0])
        value = wasserstein_1d_exact(a, b, p=1.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(
            oracles.assignment_ot_cost(a.points, b.points, p=1.0), abs=1e-12
        )

    def test_two_atom_quadratic(self):
        a = cloud([0.0, 2.0])
        b = cloud([1.0, 3.0])
        assert wasserstein_1d_exact(a, b, p=2.0) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_atoms_match_scipy(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = random_cloud(rng, int(rng.integers(2, 12)), 1, weighted=True)
            b = random_cloud(rng, int(rng.integers(2, 12)), 1, weighted=True)
            ours = wasserstein_1d_exact(a, b, p=1.0)
            ref = scipy_w1(a.points[:, 0], b.points[:, 0], a.weights, b.weights)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_rejects_multidimensional_input(self):
        a = EmpiricalDistribution.from_points(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dim 1"):
            wasserstein_1d_exact(a, a)

    @staticmethod
    def from_scratch(a, b, p):
        """The merged quantile sweep with both clouds sorted afresh."""
        u, v = a.points[:, 0], b.points[:, 0]
        order_u, order_v = np.argsort(u, kind="stable"), np.argsort(v, kind="stable")
        cu, cv = np.cumsum(a.weights[order_u]), np.cumsum(b.weights[order_v])
        ts = np.union1d(cu[:-1], cv[:-1])
        edges = np.concatenate([[0.0], ts[(ts > 0.0) & (ts < 1.0)], [1.0]])
        mids = (edges[:-1] + edges[1:]) / 2.0
        iu = order_u[np.minimum(np.searchsorted(cu, mids), len(u) - 1)]
        iv = order_v[np.minimum(np.searchsorted(cv, mids), len(v) - 1)]
        return float(np.sum(np.diff(edges) * np.abs(u[iu] - v[iv]) ** p)) ** (1.0 / p)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_kept_sides_are_bit_equal_to_a_fresh_sort(self, p):
        # Ties (rounded points) make the stable order matter.  Each cloud
        # meets several partners, so all but its first sweep reuse its sort.
        rng = np.random.default_rng(22)
        clouds = [
            cloud(np.round(rng.normal(size=n), 1), weights / weights.sum())
            for n, weights in ((40, rng.random(40)), (25, rng.random(25)), (40, np.ones(40)))
        ]
        for _ in range(2):
            for a in clouds:
                for b in clouds:
                    assert wasserstein_1d_exact(a, b, p) == self.from_scratch(a, b, p)
        assert all("_side" in vars(c) for c in clouds)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_tie_free_sides_are_bit_equal_to_a_fresh_sort(self, p):
        # Unrounded points have no ties, so sides of 1024 points or more
        # keep the default sort.
        rng = np.random.default_rng(23)
        clouds = []
        for n in (1500, 1100, 40, 1):
            weights = rng.random(n)
            clouds.append(cloud(rng.normal(size=n), weights / weights.sum()))
        for a in clouds:
            for b in clouds:
                assert wasserstein_1d_exact(a, b, p) == self.from_scratch(a, b, p)


class TestWassersteinDispatch:
    def test_identical_clouds_cost_zero(self):
        a = cloud(np.arange(5.0))
        assert wasserstein(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        a = EmpiricalDistribution.from_points(np.zeros((2, 1)))
        b = EmpiricalDistribution.from_points(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="mismatch"):
            wasserstein(a, b)

    @pytest.mark.parametrize("method", ["auto", "sinkhorn"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("sizes", [(5, 5), (6, 5), (5, 6)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_route_table(self, method, dim, sizes, weighted):
        # lp_max_support 5: (5, 5) fits under it, and a sixth point on
        # either side does not.  'sinkhorn' takes the entropic route on
        # every row; 'auto' by (dim, fits, weighted):
        auto = {
            (1, True, False): "1d",
            (1, True, True): "1d",
            (1, False, False): "1d",
            (1, False, True): "1d",
            (2, True, False): "assignment",
            (2, True, True): "lp",
            (2, False, False): "sinkhorn",
            (2, False, True): "sinkhorn",
        }
        rng = np.random.default_rng(dim)
        a, b = (random_cloud(rng, n, dim, weighted) for n in sizes)
        fits = max(sizes) <= 5
        expected = auto[dim, fits, weighted] if method == "auto" else "sinkhorn"
        assert ot_module._route(a, b, OtConfig(method=method, lp_max_support=5)) == expected

    def test_lp_translation_in_2d(self):
        # Every point moves by the same vector, so W1 equals its length.
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(20, 2))
        shift = np.array([3.0, 4.0])
        a = EmpiricalDistribution.from_points(pts)
        b = EmpiricalDistribution.from_points(pts + shift)
        dist, plan = lp_solve(a, b)
        assert dist == pytest.approx(5.0, rel=1e-9)
        assert ot_module._marginal_violation(plan, a.weights, b.weights) < 1e-7

    def test_lp_matches_assignment_oracle(self):
        rng = np.random.default_rng(24)
        for p in (1.0, 2.0):
            for _ in range(10):
                a = random_cloud(rng, 15, 2)
                b = random_cloud(rng, 15, 2)
                dist, _ = lp_solve(a, b, p)
                expected = oracles.assignment_ot_cost(a.points, b.points, p=p)
                assert dist**p == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_exact_1d_agrees_with_lp(self):
        # Two independent exact routes on 100 random weighted instances.
        rng = np.random.default_rng(25)
        for i in range(100):
            p = 1.0 if i % 2 == 0 else 2.0
            a = random_cloud(rng, int(rng.integers(2, 25)), 1, weighted=True)
            b = random_cloud(rng, int(rng.integers(2, 25)), 1, weighted=True)
            d1 = wasserstein_1d_exact(a, b, p=p)
            d2, _ = lp_solve(a, b, p)
            assert d1 == pytest.approx(d2, rel=1e-8, abs=1e-8)

    def test_cost_matches_distance_power(self):
        # Unequal sizes take the LP route, whose plan costs <plan, C> = W_p^p.
        rng = np.random.default_rng(26)
        a = random_cloud(rng, 12, 3)
        b = random_cloud(rng, 9, 3)
        cost = ot_module._cost_matrix(a, b, 2.0)
        plan = ot_module._solve_lp(a.weights, b.weights, cost)
        dist = wasserstein(a, b, OtConfig(p=2.0))
        assert float((plan * cost).sum()) == pytest.approx(dist**2, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(27)
        a = random_cloud(rng, 10, 2)
        b = random_cloud(rng, 14, 2)
        assert wasserstein(a, b) == pytest.approx(wasserstein(b, a), rel=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            a = random_cloud(rng, 8, 2)
            b = random_cloud(rng, 8, 2)
            c = random_cloud(rng, 8, 2)
            dab, _ = lp_solve(a, b, 2.0)
            dbc, _ = lp_solve(b, c, 2.0)
            dac, _ = lp_solve(a, c, 2.0)
            assert dac <= dab + dbc + 1e-9

    def test_gaussian_sample_sanity(self):
        # Empirical W2 between 10^4-point samples of N(0,1) and N(1,1)
        # should sit within 5e-2 of the closed-form distance 1.
        a = sample(Gaussian1D(0.0, 1.0), 10_000, seed=31)
        b = sample(Gaussian1D(1.0, 1.0), 10_000, seed=32)
        dist = wasserstein(a, b, OtConfig(p=2.0))
        closed = np.sqrt(gaussian_w2(Gaussian1D(0.0, 1.0), Gaussian1D(1.0, 1.0)))
        assert dist == pytest.approx(closed, abs=5e-2)


class TestAssignmentRoute:
    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        solve_lp = ot_module._solve_lp

        def counting(*args):
            calls.append(args)
            return solve_lp(*args)

        monkeypatch.setattr(ot_module, "_solve_lp", counting)
        return calls

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_auto_matches_lp_and_assignment_oracle(self, p, lp_calls):
        rng = np.random.default_rng(41)
        for _ in range(5):
            a = random_cloud(rng, 30, 2)
            b = random_cloud(rng, 30, 2)
            auto = wasserstein(a, b, OtConfig(p=p))
            assert not lp_calls  # uniform and equal-size: assignment, not HiGHS
            lp, _ = lp_solve(a, b, p)
            assert auto == pytest.approx(lp, rel=1e-8)
            expected = oracles.assignment_ot_cost(a.points, b.points, p=p)
            assert auto**p == pytest.approx(expected, rel=1e-8)
            lp_calls.clear()

    def test_plan_is_a_scaled_permutation(self):
        rng = np.random.default_rng(42)
        n = 25
        a = random_cloud(rng, n, 3)
        b = random_cloud(rng, n, 3)
        plan = ot_module._solve_assignment(a.weights, ot_module._cost_matrix(a, b, 1.0))
        nonzero = plan[plan != 0.0]
        assert nonzero.size == n
        assert np.all(nonzero == 1.0 / n)
        assert ot_module._marginal_violation(plan, a.weights, b.weights) <= 1e-15

    @pytest.mark.parametrize(
        "sizes,weighted", [((12, 12), True), ((12, 9), False)], ids=["weighted", "unequal"]
    )
    def test_other_clouds_keep_the_lp(self, sizes, weighted, lp_calls):
        rng = np.random.default_rng(43)
        a = random_cloud(rng, sizes[0], 2, weighted=weighted)
        b = random_cloud(rng, sizes[1], 2)
        wasserstein(a, b)
        assert len(lp_calls) == 1


class TestCostMatrix:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 20])
    def test_bit_equal_to_cdist(self, dim):
        # cdist sums squared differences one coordinate at a time; a numpy
        # .sum(-1) would match only below 8 dimensions.
        rng = np.random.default_rng(dim)
        for scale in (1e-3, 1.0, 1e3):
            x = scale * rng.normal(size=(17, dim))
            y = scale * rng.normal(size=(23, dim))
            for p in (1.0, 1.5, 2.0, 3.0):
                cost = ot_module._cost_matrix(cloud(x), cloud(y), p)
                assert np.array_equal(cost, cdist(x, y) ** p), (scale, p)

    def test_assignment_route_peaks_at_three_matrices(self):
        # Keeps _DENSE_MATRICES["assignment"] truthful: the cost matrix is
        # built in place, so the plan, the cost and <plan, cost> are the peak.
        rng = np.random.default_rng(44)
        n = 300
        a, b = random_cloud(rng, n, 2), random_cloud(rng, n, 2)
        wasserstein(a, b)  # resolve the solver outside the traced call
        tracemalloc.start()
        try:
            wasserstein(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ot_module._DENSE_MATRICES["assignment"] == 3
        assert peak <= (3 + 0.05) * n * n * 8


class TestAssignmentSolver:
    """The `_lsap` extension loaded directly against `scipy.optimize`'s solver."""

    @staticmethod
    def square_costs():
        rng = np.random.default_rng(45)
        for n in (1, 2, 5, 30, 200):
            yield rng.normal(size=(n, n))
            yield rng.integers(0, 3, size=(n, n)).astype(float)  # many ties
            yield np.zeros((n, n))

    def test_fast_path_returns_scipy_plan(self):
        direct = ot_module._load_lsap_extension()
        for cost in self.square_costs():
            rows, cols = direct(cost)
            expected_rows, expected_cols = scipy_lsa(cost)
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(cols, expected_cols)

    @pytest.mark.parametrize("imported", [True, False], ids=["imported", "absent"])
    def test_direct_load_leaves_sys_modules_alone(self, monkeypatch, imported):
        if not imported:
            monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
        before = sys.modules.get("scipy.optimize._lsap")
        ot_module._load_lsap_extension()
        assert sys.modules.get("scipy.optimize._lsap") is before

    # One +inf entry only forbids that match; a row of them is infeasible.
    @pytest.mark.parametrize(
        "bad",
        [(1, 2, np.nan), (1, 2, -np.inf), (1, slice(None), np.inf)],
        ids=["nan", "minus_inf", "inf_row"],
    )
    def test_nonfinite_cost_raises_like_scipy(self, bad):
        cost = np.ones((4, 4))
        cost[bad[:2]] = bad[2]
        with pytest.raises(ValueError) as expected:
            scipy_lsa(cost)
        with pytest.raises(ValueError) as got:
            ot_module._load_lsap_extension()(cost)
        assert str(got.value) == str(expected.value)

    def test_fallback_when_the_extension_does_not_load(self):
        # A fresh interpreter, so scipy.optimize is not loaded yet and the
        # solver is resolved for the first time after the loader breaks.
        child = (
            "import json, sys\n"
            "import numpy as np\n"
            "import trk.optimal_transport as ot\n"
            "from trk.distributions import EmpiricalDistribution\n"
            "def broken():\n"
            "    raise ImportError('no _lsap here')\n"
            "ot._load_lsap_extension = broken\n"
            "rng = np.random.default_rng(46)\n"
            "a = EmpiricalDistribution.from_points(rng.normal(size=(40, 2)))\n"
            "b = EmpiricalDistribution.from_points(rng.normal(size=(40, 2)))\n"
            "solver = ot._linear_sum_assignment()\n"
            "rows, cols = solver(ot._cost_matrix(a, b, 1.0))\n"
            "print(json.dumps([solver.__module__, 'scipy.optimize' in sys.modules,\n"
            "                  cols.tolist(), ot.wasserstein(a, b).hex()]))\n"
        )
        src = str(Path(ot_module.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", child],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        module, optimize_loaded, cols, dist = json.loads(done.stdout.splitlines()[-1])
        assert optimize_loaded
        rng = np.random.default_rng(46)
        a, b = random_cloud(rng, 40, 2), random_cloud(rng, 40, 2)
        _, expected_cols = scipy_lsa(ot_module._cost_matrix(a, b, 1.0))
        assert cols == expected_cols.tolist()
        assert float.fromhex(dist) == wasserstein(a, b)


class TestSinkhorn:
    def test_within_ten_percent_of_lp_at_moderate_epsilon(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            a = random_cloud(rng, 40, 2)
            b = EmpiricalDistribution.from_points(rng.normal(size=(40, 2)) + 0.5)
            exact, _ = lp_solve(a, b)
            # Epsilon at 5% of the mean pairwise cost.
            cost = ot_module._cost_matrix(a, b, 1.0)
            eps = 0.05 * float(cost.mean())
            plan = ot_module._solve_sinkhorn(a.weights, b.weights, cost, eps, 2000)
            assert ot_module._marginal_violation(plan, a.weights, b.weights) < 1e-6
            entropic = float((plan * cost).sum())
            assert entropic == wasserstein(a, b, OtConfig(method="sinkhorn", sinkhorn_epsilon=eps))
            assert entropic >= exact - 1e-9  # entropic plan cannot beat the optimum
            assert entropic <= exact * 1.10

    def test_nonconvergence_raises_with_violation(self):
        rng = np.random.default_rng(34)
        a = random_cloud(rng, 30, 2)
        b = EmpiricalDistribution.from_points(rng.normal(size=(30, 2)) + 1.0)
        cfg = OtConfig(method="sinkhorn", sinkhorn_max_iter=3)
        with pytest.raises(SinkhornConvergenceError, match="marginal violation") as exc:
            wasserstein(a, b, cfg)
        assert exc.value.violation > 0.0
        assert exc.value.iterations == 3

    def test_coincident_clouds_short_circuit(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("all mass is in place; there is nothing to iterate")

        # The default epsilon would be 0 here, so the iteration must not run.
        monkeypatch.setattr(ot_module, "_solve_sinkhorn", forbidden)
        a = cloud([[1.0, 2.0]])
        assert wasserstein(a, a, OtConfig(method="sinkhorn")) == 0.0

    def test_auto_dispatch_prefers_sinkhorn_above_cap(self, monkeypatch):
        calls = []
        solve_sinkhorn = ot_module._solve_sinkhorn

        def counting(*args):
            calls.append(args)
            return solve_sinkhorn(*args)

        monkeypatch.setattr(ot_module, "_solve_sinkhorn", counting)
        rng = np.random.default_rng(35)
        a = random_cloud(rng, 30, 2)
        b = random_cloud(rng, 30, 2)
        cfg = OtConfig(lp_max_support=10, sinkhorn_epsilon=0.5, sinkhorn_max_iter=5000)
        # At this blur level the entropic cost may sit well above exact;
        # the point here is only that the auto route picked Sinkhorn and
        # `wasserstein` accepted its plan as feasible.
        assert wasserstein(a, b, cfg) > 0.0
        assert len(calls) == 1


class TestDenseBudget:
    def test_refuses_before_allocating_the_cost_matrix(self):
        rng = np.random.default_rng(36)
        n = 20_000
        a, b = random_cloud(rng, n, 2), random_cloud(rng, n, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                wasserstein(a, b, OtConfig(method="sinkhorn"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith(
            "the sinkhorn route on supports of 20000 and 20000 points needs about"
        )
        assert "above the 1 GiB dense-transport budget" in str(exc.value)
        # Not even one row of the 20 000 x 20 000 cost matrix was allocated.
        assert peak < n * 8

    @pytest.mark.parametrize("method", sorted(ot_module._DENSE_MATRICES))
    def test_budget_is_the_working_set_arithmetic(self, method):
        # The largest square instance under the budget passes; one more point
        # per side is refused.  Only sizes are checked, nothing is allocated.
        per_entry = ot_module._DENSE_MATRICES[method] * 8
        n = int(np.sqrt(ot_module.DENSE_BUDGET_BYTES / per_entry))
        assert n * n * per_entry <= ot_module.DENSE_BUDGET_BYTES
        ot_module._check_dense_budget(method, n, n)
        with pytest.raises(ValueError, match=f"supports of {n + 1} and {n + 1} points"):
            ot_module._check_dense_budget(method, n + 1, n + 1)

    def test_one_dimensional_clouds_need_no_budget(self):
        rng = np.random.default_rng(37)
        a, b = random_cloud(rng, 20_000, 1), random_cloud(rng, 20_000, 1)
        dist = wasserstein(a, b)
        assert dist == pytest.approx(scipy_w1(a.points[:, 0], b.points[:, 0]), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    shift=st.floats(-10, 10),
    x0=st.floats(-5, 5),
    x1=st.floats(-5, 5),
)
def test_translation_invariance_property(shift, x0, x1):
    a = cloud([x0, x1])
    b = cloud([x0 + 1.0, x1 - 2.0])
    a2 = cloud([x0 + shift, x1 + shift])
    b2 = cloud([x0 + 1.0 + shift, x1 - 2.0 + shift])
    d1 = wasserstein_1d_exact(a, b, p=1.0)
    d2 = wasserstein_1d_exact(a2, b2, p=1.0)
    assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-9)


def union_coupling(cumulative, target):
    """`_quantile_coupling` with its breakpoints merged by `np.union1d`."""
    order_v, cv = target._side
    ts = np.union1d(cumulative[:-1], cv[:-1])
    edges = np.concatenate([[0.0], ts[(ts > 0.0) & (ts < 1.0)], [1.0]])
    mids = (edges[:-1] + edges[1:]) / 2.0
    pu = np.minimum(np.searchsorted(cumulative, mids), len(cumulative) - 1)
    pv = np.minimum(np.searchsorted(cv, mids), len(cv) - 1)
    return pu, target.points[order_v[pv], 0], np.diff(edges)


# Small integer weights: equal cumulative weights within a side and across
# the two, zero weights (repeated breakpoints, and breakpoints at 0 or 1),
# one-atom sides and sides left with no breakpoint inside (0, 1).
side_weights = st.lists(st.integers(0, 3), min_size=1, max_size=12).filter(any)


@settings(max_examples=200, deadline=None)
@given(moving=side_weights, target=side_weights, seed=st.integers(0, 2**16))
@example(moving=[1], target=[1], seed=0)
@example(moving=[1], target=[1, 1, 2], seed=0)
@example(moving=[0, 0, 2], target=[2, 0, 0], seed=0)
@example(moving=[1, 1, 2], target=[2, 2], seed=0)
def test_breakpoint_merge_is_union1d(moving, target, seed):
    rng = np.random.default_rng(seed)
    weights = np.array(moving, dtype=float) / sum(moving)
    cumulative = np.cumsum(weights)
    points = np.round(rng.normal(size=len(target)), 1)
    b = cloud(points, np.array(target, dtype=float) / sum(target))
    got = ot_module._quantile_coupling(cumulative, b)
    expected = union_coupling(cumulative, b)
    for ours, ref in zip(got, expected, strict=True):
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()


def test_the_only_quantile_sweep_is_quantile_coupling():
    # One sweep: a new search for quantile breakpoints goes through
    # `_quantile_coupling`.
    calls = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("searchsorted", "union1d", "unique")
            ):
                calls.append((module, function, child.func.attr))
            visit(child, module, function)

    for path in sorted(Path(ot_module.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    # No set routine: numpy's `unique`, which `union1d` calls, imports
    # `numpy.ma`, and `_quantile_coupling` merges its breakpoints by a sort.
    assert sorted(set(calls)) == [("optimal_transport", "_quantile_coupling", "searchsorted")]
