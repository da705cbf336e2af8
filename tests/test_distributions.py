"""Tests for distribution containers and Gaussian closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trk.distributions import (
    _CHECKED_SORT_MIN,
    EmpiricalDistribution,
    Gaussian1D,
    GaussianJoint,
    GaussianND,
    _as_nd,
    _is_symmetric,
    _kl_moments,
    _quantile_side,
    _w2_moments,
    gaussian_kl,
    gaussian_w2,
    psd_sqrt,
    sample,
)
from trk.gaussian_lab import random_task
from trk.optimal_transport import wasserstein


def random_psd(rng, dim, eig_lo=0.3, eig_hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(eig_lo, eig_hi, size=dim)
    return (q * eigs) @ q.T


def random_gaussian_nd(rng, dim):
    return GaussianND(rng.normal(size=dim), random_psd(rng, dim))


class TestEmpiricalDistribution:
    def test_basic_construction(self):
        dist = EmpiricalDistribution(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
        assert dist.size == 2
        assert dist.dim == 1

    def test_from_points_uniform(self):
        dist = EmpiricalDistribution.from_points(np.arange(4.0))
        assert dist.dim == 1
        np.testing.assert_allclose(dist.weights, 0.25)

    @pytest.mark.parametrize("shape", [(0, 2), (0,)])
    def test_from_no_points_is_refused(self, shape):
        with pytest.raises(ValueError, match="need at least one point"):
            EmpiricalDistribution.from_points(np.empty(shape))

    @pytest.mark.parametrize("points", [np.float64(1.0), np.zeros((2, 3, 1))], ids=["0-d", "3-d"])
    def test_from_points_refuses_other_shapes(self, points):
        with pytest.raises(ValueError, match=r"points must have shape \(n, d\), got"):
            EmpiricalDistribution.from_points(points)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalDistribution(np.zeros((2, 1)), np.array([1.5, -0.5]))

    def test_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EmpiricalDistribution(np.zeros((2, 1)), np.array([0.6, 0.6]))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalDistribution(np.array([[np.nan]]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.zeros((0, 1)), np.zeros(0))

    def test_points_are_read_only(self):
        dist = EmpiricalDistribution.from_points(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dist.points[0, 0] = 1.0

    def test_one_dimensional_side_is_sorted_once_and_read_only(self):
        points = np.array([[0.5], [-1.0], [0.5], [2.0], [-1.0]])
        dist = EmpiricalDistribution(points, np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        assert "_side" not in vars(dist)  # nothing is sorted until a sweep asks
        order, cumulative = dist._side
        assert dist._side[0] is order
        np.testing.assert_array_equal(order, np.argsort(points[:, 0], kind="stable"))
        np.testing.assert_array_equal(cumulative, np.cumsum(dist.weights[order]))
        for arr in (order, cumulative):
            with pytest.raises(ValueError):
                arr[0] = 0

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
            max_size=40,
        ),
        distinct=st.booleans(),
        long=st.booleans(),
    )
    def test_side_order_is_the_stable_sort(self, values, distinct, long):
        # From _CHECKED_SORT_MIN values the default sort is kept only where
        # the sorted values strictly increase; ties, signed zeros and NaN
        # take the stable sort.
        values = np.array(values, dtype=np.float64)
        if long:  # shuffled filler takes the array past the size rule
            filler = np.random.default_rng(len(values)).permutation(_CHECKED_SORT_MIN) - 0.5
            values = np.concatenate([values, filler])
        if distinct:  # the tie-free case, which keeps the default sort
            values = np.unique(values[np.isfinite(values)])[::-1].copy()
        weights = np.linspace(0.5, 1.5, len(values))
        order, cumulative = _quantile_side(values, weights)
        expected = np.argsort(values, kind="stable")
        np.testing.assert_array_equal(order, expected)
        assert cumulative.tobytes() == np.cumsum(weights[expected]).tobytes()

    def test_two_dimensional_cloud_never_computes_a_side(self):
        # Through the assignment route and the LP route.
        rng = np.random.default_rng(3)
        a, b, c = (EmpiricalDistribution.from_points(rng.normal(size=(n, 2))) for n in (6, 6, 5))
        wasserstein(a, b)
        wasserstein(a, c)
        assert not any("_side" in vars(cloud) for cloud in (a, b, c))
        with pytest.raises(ValueError, match="1-d cloud, got dim 2"):
            a._side


class TestGaussianContainers:
    def test_gaussian_1d_requires_positive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            Gaussian1D(0.0, 0.0)

    def test_gaussian_1d_as_nd(self):
        nd = _as_nd(Gaussian1D(2.0, 3.0))
        assert nd.dim == 1
        np.testing.assert_allclose(nd.cov, [[3.0]])

    def test_gaussian_nd_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianND(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_gaussian_nd_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            GaussianND(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_gaussian_nd_allows_degenerate(self):
        nd = GaussianND(np.zeros(2), np.diag([1.0, 0.0]))
        assert nd.dim == 2

    def test_joint_marginals(self):
        joint = GaussianJoint(
            mean_x=[1.0, 2.0],
            mean_y=[3.0],
            cov_xx=np.eye(2),
            cov_xy=[[0.5], [0.0]],
            cov_yy=[[2.0]],
        )
        assert joint.dim_x == 2 and joint.dim_y == 1
        np.testing.assert_allclose(joint.x_marginal().mean, [1.0, 2.0])
        full = joint.full()
        assert full.dim == 3
        np.testing.assert_allclose(full.cov[0, 2], 0.5)

    def test_joint_rejects_non_psd_assembly(self):
        # Blocks are individually fine but the cross term breaks PSD-ness.
        with pytest.raises(ValueError, match="PSD"):
            GaussianJoint(
                mean_x=[0.0],
                mean_y=[0.0],
                cov_xx=[[1.0]],
                cov_xy=[[2.0]],
                cov_yy=[[1.0]],
            )


class TestPsdSqrt:
    def test_recovers_matrix(self):
        rng = np.random.default_rng(3)
        mat = random_psd(rng, 4)
        root = psd_sqrt(mat)
        np.testing.assert_allclose(root @ root, mat, atol=1e-10)
        np.testing.assert_allclose(root, root.T, atol=1e-12)

    def test_clamps_tiny_negative_eigenvalue(self):
        mat = np.diag([1.0, -5e-9])
        root = psd_sqrt(mat)
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            psd_sqrt(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # An infinite diagonal used to come back as an all-NaN root, and NaN
        # was reported as an asymmetry.
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            psd_sqrt(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestStacks:
    """psd_sqrt and the KL and W2 closed forms take a leading stack axis."""

    def laws(self, count=6, dim=3):
        rng = np.random.default_rng(21)
        return [random_gaussian_nd(rng, dim) for _ in range(2 * count)]

    def test_psd_sqrt_is_per_matrix(self):
        covs = np.stack([law.cov for law in self.laws()])
        roots = psd_sqrt(covs)
        for cov, root in zip(covs, roots):
            assert root.tobytes() == psd_sqrt(cov).tobytes()

    def test_psd_sqrt_refuses_an_indefinite_member(self):
        covs = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(ValueError, match="positive semi-definite"):
            psd_sqrt(covs)

    @pytest.mark.parametrize(
        "kernel,closed_form", [(_kl_moments, gaussian_kl), (_w2_moments, gaussian_w2)]
    )
    def test_divergences_are_per_pair(self, kernel, closed_form):
        laws = self.laws()
        p, q = laws[::2], laws[1::2]
        stacks = [np.stack([getattr(law, m) for law in side]) for side in (p, q)
                  for m in ("mean", "cov")]
        assert kernel(*stacks).tolist() == [closed_form(a, b) for a, b in zip(p, q)]

    def test_kl_of_identical_laws_is_never_negative(self):
        # Round-off once gave -4.4e-16 here, which the pipeline refused as a
        # negative risk: identical tasks drawn at seed 183 in 5-D.
        task = random_task(5, 1, seed=183)
        assert gaussian_kl(task.x_marginal(), task.x_marginal()) == 0.0
        for seed in range(100):
            law = random_task(4, 1, seed=seed).x_marginal()
            assert 0.0 <= gaussian_kl(law, law) <= 1e-14


# Asymmetries straddling the 1e-8 tolerance, plus a spread of larger and
# smaller ones.
_ASYMMETRY = st.one_of(
    st.sampled_from(
        [0.0, 1e-8, np.nextafter(1e-8, 0.0), np.nextafter(1e-8, 1.0), 0.5e-8, 2e-8]
    ),
    st.floats(0.0, 1e-7),
)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 5),
    entries=st.lists(
        st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=10, max_size=10
    ),
    slot=st.integers(0, 9),
    delta=_ASYMMETRY,
    sign=st.sampled_from([1.0, -1.0]),
)
def test_symmetry_check_matches_allclose(dim, entries, slot, delta, sign):
    # A diagonally dominant symmetric matrix, then one off-diagonal entry moved.
    upper = np.triu_indices(dim, 1)
    mat = np.zeros((dim, dim))
    mat[upper] = entries[: len(upper[0])]
    mat = mat + mat.T + np.eye(dim) * 100.0
    i, j = upper[0][slot % len(upper[0])], upper[1][slot % len(upper[0])]
    mat[i, j] = mat[j, i] + sign * delta
    symmetric = np.allclose(mat, mat.T, atol=1e-8, rtol=0.0)
    assert _is_symmetric(mat) == symmetric
    constructors = [
        lambda: psd_sqrt(mat),
        lambda: GaussianND(np.zeros(dim), mat),
        lambda: GaussianJoint(np.zeros(dim), [0.0], mat, np.zeros((dim, 1)), [[1.0]]),
    ]
    for build in constructors:
        if symmetric:
            build()
        else:
            with pytest.raises(ValueError, match="symmetric"):
                build()


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0)])
def test_nan_entry_rejected_by_every_constructor(where):
    mat = np.eye(2)
    mat[where] = np.nan
    constructors = [
        lambda: psd_sqrt(mat),
        lambda: GaussianND(np.zeros(2), mat),
        lambda: GaussianJoint(np.zeros(2), [0.0], mat, np.zeros((2, 1)), [[1.0]]),
    ]
    for build in constructors:
        with pytest.raises(ValueError, match="finite"):
            build()


class TestGaussianKl:
    def test_identical_is_zero(self):
        p = Gaussian1D(0.3, 1.7)
        assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_unit_mean_shift(self):
        # Frozen: quadrature oracle gives 0.5 for KL(N(1,1) || N(0,1)).
        value = gaussian_kl(Gaussian1D(1.0, 1.0), Gaussian1D(0.0, 1.0))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert value == pytest.approx(oracles.kl_quadrature_1d(1, 1, 0, 1), abs=1e-9)

    def test_2d_variance_inflation(self):
        # Frozen: 2-D quadrature oracle gives 1 - log 2 = 0.3068528194400547.
        p = GaussianND(np.zeros(2), np.diag([2.0, 2.0]))
        q = GaussianND(np.zeros(2), np.eye(2))
        value = gaussian_kl(p, q)
        assert value == pytest.approx(0.3068528194400547, abs=1e-12)
        oracle = oracles.kl_quadrature_2d([0, 0], np.diag([2.0, 2.0]), [0, 0], np.eye(2))
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_asymmetry(self):
        p, q = Gaussian1D(0.0, 1.0), Gaussian1D(0.0, 4.0)
        assert gaussian_kl(p, q) != pytest.approx(gaussian_kl(q, p), abs=1e-3)

    def test_singular_covariance_rejected(self):
        p = GaussianND(np.zeros(2), np.diag([1.0, 0.0]))
        q = GaussianND(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="singular"):
            gaussian_kl(p, q)
        with pytest.raises(ValueError, match="singular"):
            gaussian_kl(q, p)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            gaussian_kl(Gaussian1D(0, 1), GaussianND(np.zeros(2), np.eye(2)))

    def test_nonnegative_and_zero_iff_equal(self):
        # 200 seeded random pairs in 1-3 dimensions.
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            p = random_gaussian_nd(rng, dim)
            q = random_gaussian_nd(rng, dim)
            assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-11)
            assert gaussian_kl(p, q) > 1e-8  # distinct continuous draws

    def test_matches_quadrature_on_random_1d(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mp, mq = rng.normal(size=2)
            vp, vq = rng.uniform(0.4, 3.0, size=2)
            closed = gaussian_kl(Gaussian1D(mp, vp), Gaussian1D(mq, vq))
            quad = oracles.kl_quadrature_1d(mp, vp, mq, vq)
            assert closed == pytest.approx(quad, rel=1e-2, abs=1e-4)

    def test_matches_quadrature_on_random_2d(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            p = GaussianND(rng.normal(scale=0.5, size=2), random_psd(rng, 2, 0.5, 2.0))
            q = GaussianND(rng.normal(scale=0.5, size=2), random_psd(rng, 2, 0.5, 2.0))
            closed = gaussian_kl(p, q)
            quad = oracles.kl_quadrature_2d(p.mean, p.cov, q.mean, q.cov)
            assert closed == pytest.approx(quad, rel=1e-2, abs=1e-4)


class TestGaussianW2:
    def test_identical_is_zero(self):
        p = GaussianND(np.ones(3), np.eye(3) * 0.7)
        assert gaussian_w2(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_pure_mean_shift(self):
        value = gaussian_w2(Gaussian1D(0.0, 1.0), Gaussian1D(1.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_pure_variance_change(self):
        # Frozen: sorted-sample oracle gives (2 - 1)^2 = 1 for N(0,4) vs N(0,1).
        value = gaussian_w2(Gaussian1D(0.0, 4.0), Gaussian1D(0.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(oracles.w2sq_mc_1d(0, 4, 0, 1), abs=1e-2)

    def test_point_masses(self):
        # Degenerate covariances reduce W2^2 to the squared mean distance.
        p = GaussianND([0.0, 0.0], np.zeros((2, 2)))
        q = GaussianND([3.0, 4.0], np.zeros((2, 2)))
        assert gaussian_w2(p, q) == pytest.approx(25.0, abs=1e-12)

    def test_symmetry_on_random(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            p = random_gaussian_nd(rng, dim)
            q = random_gaussian_nd(rng, dim)
            assert gaussian_w2(p, q) == pytest.approx(gaussian_w2(q, p), rel=1e-9, abs=1e-11)

    def test_matches_quantile_quadrature_on_random_1d(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            mp, mq = rng.normal(size=2)
            vp, vq = rng.uniform(0.4, 3.0, size=2)
            closed = gaussian_w2(Gaussian1D(mp, vp), Gaussian1D(mq, vq))
            quad = oracles.w2sq_quantile_quadrature_1d(mp, vp, mq, vq)
            assert closed == pytest.approx(quad, rel=1e-2, abs=1e-4)

    def test_matches_tensorized_quadrature_on_diagonal_2d(self):
        # For diagonal covariances W2^2 splits across coordinates, so two
        # 1-D quantile integrals give an independent 2-D oracle.
        rng = np.random.default_rng(16)
        for _ in range(8):
            means = rng.normal(size=(2, 2))
            diags = rng.uniform(0.4, 3.0, size=(2, 2))
            p = GaussianND(means[0], np.diag(diags[0]))
            q = GaussianND(means[1], np.diag(diags[1]))
            closed = gaussian_w2(p, q)
            quad = sum(
                oracles.w2sq_quantile_quadrature_1d(
                    means[0][j], diags[0][j], means[1][j], diags[1][j]
                )
                for j in range(2)
            )
            assert closed == pytest.approx(quad, rel=1e-2, abs=1e-4)

    def test_matches_commuting_pair_formula(self):
        # Rotated diagonal pairs sharing an eigenbasis have a scalar expression
        # for W2^2 that avoids matrix square roots entirely.
        rng = np.random.default_rng(17)
        for _ in range(30):
            dim = int(rng.integers(2, 4))
            basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            dp = rng.uniform(0.2, 3.0, size=dim)
            dq = rng.uniform(0.2, 3.0, size=dim)
            mp, mq = rng.normal(size=(2, dim))
            p = GaussianND(mp, (basis * dp) @ basis.T)
            q = GaussianND(mq, (basis * dq) @ basis.T)
            expected = oracles.w2sq_commuting(mp, mq, basis, dp, dq)
            assert gaussian_w2(p, q) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_talagrand_against_standard_normal(self):
        # W2^2(p, q) <= 2 KL(p || q) when q is standard normal.
        q = Gaussian1D(0.0, 1.0)
        rng = np.random.default_rng(18)
        for _ in range(200):
            p = Gaussian1D(rng.normal(), rng.uniform(0.2, 4.0))
            assert gaussian_w2(p, q) <= 2.0 * gaussian_kl(p, q) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    mp=st.floats(-5, 5),
    mq=st.floats(-5, 5),
    vp=st.floats(0.05, 10),
    vq=st.floats(0.05, 10),
)
def test_divergences_nonnegative_property(mp, mq, vp, vq):
    p, q = Gaussian1D(mp, vp), Gaussian1D(mq, vq)
    assert gaussian_kl(p, q) >= -1e-12
    assert gaussian_w2(p, q) >= 0.0


class TestSample:
    def test_deterministic_in_seed(self):
        dist = GaussianND(np.zeros(2), np.eye(2))
        a = sample(dist, 100, seed=5)
        b = sample(dist, 100, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_seed_changes_draw(self):
        dist = Gaussian1D(0.0, 1.0)
        a = sample(dist, 100, seed=5)
        b = sample(dist, 100, seed=6)
        assert not np.array_equal(a.points, b.points)

    def test_moments_recovered(self):
        dist = GaussianND(np.array([1.0, -2.0]), np.diag([2.0, 0.5]))
        cloud = sample(dist, 200_000, seed=7)
        np.testing.assert_allclose(cloud.points.mean(axis=0), dist.mean, atol=2e-2)
        np.testing.assert_allclose(np.cov(cloud.points.T, bias=True), dist.cov, atol=5e-2)

    def test_joint_sample_has_stacked_dim(self):
        joint = GaussianJoint([0.0, 0.0], [0.0], np.eye(2), [[0.3], [0.1]], [[1.0]])
        cloud = sample(joint, 50, seed=8)
        assert cloud.dim == 3

    def test_rejects_a_cloud(self):
        cloud = EmpiricalDistribution.from_points(np.arange(3.0))
        with pytest.raises(TypeError, match="cannot sample from EmpiricalDistribution"):
            sample(cloud, 5, seed=9)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match="n >= 1"):
            sample(Gaussian1D(0, 1), 0, seed=1)
