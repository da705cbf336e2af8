"""Tests for the closed-form Gaussian task risks."""

import numpy as np
import pytest

import oracles
from trk.distributions import Gaussian1D, GaussianJoint, GaussianND, gaussian_kl, gaussian_w2, sample
from trk.gaussian_lab import (
    RiskDecomposition,
    _basic_cases,
    _random_pairs,
    _random_tasks,
    augment_features,
    basic_case_risks,
    conditionally_independent_augmentation,
    feature_augmentation_risks,
    optimal_linear_model,
    optimal_output_initializer,
    output_augmentation_laws,
    output_augmentation_risks,
    predictive_laws,
    random_basic_pair,
    random_task,
    restrict_inputs,
    restrict_outputs,
)
from trk.transfer_core import AffineModel, output_risk_w


def scalar_task(var_x, cov_xy, var_y, mean_x=0.0, mean_y=0.0):
    return GaussianJoint(
        mean_x=[mean_x], mean_y=[mean_y], cov_xx=[[var_x]], cov_xy=[[cov_xy]], cov_yy=[[var_y]]
    )


def mc_loss_gap(source, target, n=200_000, seed=0):
    """Monte-Carlo estimate of the excess squared loss on the target task."""
    cloud = sample(target, n, seed)
    d = target.dim_x
    x, y = cloud.points[:, :d], cloud.points[:, d]
    f_s = optimal_linear_model(source)
    f_t = optimal_linear_model(target)
    loss_s = np.mean((y - f_s(x)[:, 0]) ** 2)
    loss_t = np.mean((y - f_t(x)[:, 0]) ** 2)
    return loss_s - loss_t


class TestRiskDecomposition:
    def test_total_computed(self):
        dec = RiskDecomposition(0.25, 0.5)
        assert dec.total == pytest.approx(0.75)

    def test_negative_term_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RiskDecomposition(-0.1, 0.0)


class TestOptimalLinearModel:
    def test_identity_input_covariance(self):
        joint = GaussianJoint(
            mean_x=[0.0, 0.0], mean_y=[0.0], cov_xx=np.eye(2), cov_xy=[[0.5], [0.0]],
            cov_yy=[[1.0]],
        )
        model = optimal_linear_model(joint)
        np.testing.assert_allclose(model.weights, [[0.5, 0.0]], atol=1e-12)
        np.testing.assert_allclose(model.bias, [0.0], atol=1e-12)

    def test_independent_output_predicts_mean(self):
        task = scalar_task(2.0, 0.0, 1.0, mean_x=3.0, mean_y=-1.5)
        model = optimal_linear_model(task)
        np.testing.assert_allclose(model.weights, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(model.bias, [-1.5], atol=1e-12)

    def test_matches_least_squares_on_samples(self):
        task = random_task(3, 1, seed=51)
        cloud = sample(task, 100_000, seed=52)
        x, y = cloud.points[:, :3], cloud.points[:, 3]
        design = np.concatenate([x, np.ones((len(y), 1))], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        model = optimal_linear_model(task)
        np.testing.assert_allclose(model.weights[0], coef[:3], atol=1e-2)
        np.testing.assert_allclose(model.bias[0], coef[3], atol=1e-2)

    def test_singular_input_covariance_rejected(self):
        joint = GaussianJoint(
            mean_x=[0.0, 0.0], mean_y=[0.0], cov_xx=[[1.0, 1.0], [1.0, 1.0]],
            cov_xy=[[0.1], [0.1]], cov_yy=[[1.0]],
        )
        with pytest.raises(ValueError, match="singular"):
            optimal_linear_model(joint)


class TestPredictiveLaws:
    def test_moments_by_hand(self):
        # Source w = 1/2 on target inputs with variance 4: var_st = 1.
        source = scalar_task(2.0, 1.0, 1.5)
        target = scalar_task(4.0, 1.0, 1.0, mean_x=1.0, mean_y=2.0)
        p_st, p_t = predictive_laws(source, target)
        assert p_st.mean == pytest.approx(0.5)  # w_s * mu_tx + b_s = 0.5
        assert p_st.variance == pytest.approx(1.0)
        assert p_t.mean == pytest.approx(2.0)
        assert p_t.variance == pytest.approx(0.25)  # (1/4)^2 * 4


class TestBasicCaseRisks:
    def test_identical_tasks_zero(self):
        source, _ = random_basic_pair(2, seed=53)
        target = source
        kl, w, _, _ = basic_case_risks(source, target)
        assert kl.total == pytest.approx(0.0, abs=1e-12)
        assert w.total == pytest.approx(0.0, abs=1e-12)

    def test_pure_mean_shift(self):
        # Same covariances, shifted output mean: only the bias terms move.
        source = scalar_task(1.0, 0.5, 1.0)
        target = scalar_task(1.0, 0.5, 1.0, mean_y=0.7)
        kl, w, _, _ = basic_case_risks(source, target)
        var_st = 0.25  # w = 1/2, var = w^2 * 1
        assert kl.variance_term == pytest.approx(0.0, abs=1e-14)
        assert kl.bias_term == pytest.approx(0.7**2 / (2 * var_st), abs=1e-12)
        assert w.variance_term == pytest.approx(0.0, abs=1e-14)
        assert w.bias_term == pytest.approx(0.49, abs=1e-12)

    def test_matched_prediction_variances(self):
        # Different joints, same regression slope: variance terms vanish.
        source = scalar_task(2.0, 1.0, 1.0)
        target = scalar_task(1.0, 0.5, 1.0)
        kl, w, _, _ = basic_case_risks(source, target)
        assert kl.variance_term == pytest.approx(0.0, abs=1e-14)
        assert w.variance_term == pytest.approx(0.0, abs=1e-14)

    def test_matches_transfer_core_closed_forms(self):
        for seed in range(20):
            source, target = random_basic_pair(int(seed % 3) + 1, seed=100 + seed)
            kl, w, _, _ = basic_case_risks(source, target)
            p_st, p_t = predictive_laws(source, target)
            assert kl.total == pytest.approx(gaussian_kl(p_t, p_st), abs=1e-9)
            assert w.total == pytest.approx(gaussian_w2(p_t, p_st), abs=1e-9)

    def test_matches_monte_carlo(self):
        source, target = random_basic_pair(2, seed=54)
        kl, w, _, _ = basic_case_risks(source, target)
        p_st, p_t = predictive_laws(source, target)
        # Sample the target prediction law and average the log density ratio.
        draws = sample(p_t, 300_000, seed=55).points[:, 0]

        def log_pdf(x, law):
            return -0.5 * ((x - law.mean) ** 2 / law.variance + np.log(2 * np.pi * law.variance))

        kl_mc = np.mean(log_pdf(draws, p_t) - log_pdf(draws, p_st))
        assert kl.total == pytest.approx(kl_mc, abs=2e-2)
        a = np.sort(draws)
        b = np.sort(sample(p_st, 300_000, seed=56).points[:, 0])
        w_mc = np.mean((a - b) ** 2)
        assert w.total == pytest.approx(w_mc, abs=2e-2)

    def test_degenerate_source_predictor_rejected(self):
        source = scalar_task(1.0, 0.0, 1.0)  # w_s = 0
        target = scalar_task(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            basic_case_risks(source, target)

    def test_dimension_mismatch_rejected(self):
        source, _ = random_basic_pair(2, seed=57)
        _, target = random_basic_pair(3, seed=58)
        with pytest.raises(ValueError, match="mismatch"):
            basic_case_risks(source, target)


class TestRegret:
    def test_identical_tasks_zero(self):
        for seed in range(59, 69):
            source, _ = random_basic_pair(seed % 3 + 1, seed=seed)
            case = basic_case_risks(source, source)
            assert (case.regret, case.residual) == (0.0, 0.0), seed

    def test_doubled_weights_instance(self):
        # w_s = 1 = 2 w_t with zero means: regret is ||cov^1/2 w_t||^2 = 1/4.
        source = scalar_task(1.0, 1.0, 1.5)
        target = scalar_task(1.0, 0.5, 1.0)
        assert basic_case_risks(source, target).regret == pytest.approx(0.25, abs=1e-12)

    def test_matches_monte_carlo_loss_gap(self):
        for seed in range(5):
            source, target = random_basic_pair(2, seed=200 + seed)
            gap = mc_loss_gap(source, target, n=400_000, seed=300 + seed)
            assert basic_case_risks(source, target).regret == pytest.approx(gap, abs=1e-2)


class TestRiskRegretResidual:
    def test_identity_and_sign(self):
        for seed in range(50):
            source, target = random_basic_pair(int(seed % 3) + 1, seed=400 + seed)
            _, w, reg, residual = basic_case_risks(source, target)
            assert reg == pytest.approx(w.total + residual, abs=1e-9)
            assert residual >= -1e-12
            assert w.total <= reg + 1e-12

    def test_parallel_weights_close_the_gap(self):
        # Same-direction weights make Cauchy-Schwarz tight: risk == regret.
        source = scalar_task(1.0, 1.0, 1.5)
        target = scalar_task(1.0, 0.5, 1.0)
        _, w, reg, residual = basic_case_risks(source, target)
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert w.total == pytest.approx(reg, abs=1e-12)


TERMS = ("kl_variance", "kl_bias", "w_variance", "w_bias", "regret", "residual")


def moments(joint):
    return (joint.mean_x, joint.mean_y, joint.cov_xx, joint.cov_xy, joint.cov_yy)


def case_terms(case):
    """The six closed forms of a `BasicCase`, named as the stacked kernel names them."""
    kl, w, regret, residual = case
    values = (kl.variance_term, kl.bias_term, w.variance_term, w.bias_term, regret, residual)
    return dict(zip(TERMS, values))


class TestStackedKernel:
    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_stack_is_one_pair_at_a_time(self, dim):
        seeds = range(20, 32)
        pairs = _random_pairs(dim, seeds, drift=0.4).checked()
        stacked = _basic_cases(pairs.at(0), pairs.at(1))
        for i, seed in enumerate(seeds):
            source, target = random_basic_pair(dim, seed, drift=0.4)
            for law, role in ((source, 0), (target, 1)):
                for got, want in zip(moments(law), pairs.at((role, i))):
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (seed, role)
            expected = case_terms(basic_case_risks(source, target))
            assert {t: float(getattr(stacked, t)[i]) for t in TERMS} == expected, seed

    def test_task_stack_is_one_task_at_a_time(self):
        tasks = _random_tasks(3, 2, range(5, 9)).checked()
        for i, seed in enumerate(range(5, 9)):
            for got, want in zip(moments(random_task(3, 2, seed)), tasks.at(i)):
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), seed

    @pytest.mark.parametrize("drift", [0.0, 0.25, 3.5])
    @pytest.mark.parametrize("dim", [1, 3, 8, 30])
    def test_pairs_are_the_documented_draws(self, dim, drift):
        # Bit for bit the plain calls, in the documented order, of each
        # pair's own stream; a reordered or rescaled draw shows here.
        seeds = [0, 1, 9173, 2**40]
        pairs = _random_pairs(dim, seeds, drift=drift)
        for i, seed in enumerate(seeds):
            for role, law in enumerate(oracles.random_basic_pair_draw(dim, seed, drift)):
                for got, want in zip(pairs.at((role, i)), law):
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (seed, role)

    @pytest.mark.parametrize("dims", [(1, 1), (3, 1), (8, 2), (30, 1)])
    def test_tasks_are_the_documented_draws(self, dims):
        seeds = [0, 5, 9173]
        tasks = _random_tasks(*dims, seeds)
        for i, seed in enumerate(seeds):
            for got, want in zip(tasks.at(i), oracles.random_task_draw(*dims, seed)):
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), seed

    @pytest.mark.parametrize(
        "drift, rule",
        [
            (-1e-300, ">= 0"),
            (np.nan, ">= 0"),
            (1e308, "at most 8.988465674311579e+307, so that 2 * drift is finite"),
            (np.inf, "at most 8.988465674311579e+307, so that 2 * drift is finite"),
        ],
    )
    def test_a_drift_without_a_finite_width_is_refused(self, drift, rule):
        # The two messages the config shows under `gaussian_lab.`.
        with pytest.raises(ValueError) as caught:
            random_basic_pair(3, 0, drift=drift)
        assert str(caught.value) == f"drift must be {rule}, got {drift!r}"

    @pytest.mark.parametrize(
        "draw, message",
        [
            (lambda: random_basic_pair(0, 0), "dim must be >= 1, got 0"),
            (lambda: random_task(0, 1, 0), "dim_x must be >= 1, got 0"),
            (lambda: random_task(2, 0, 0), "dim_y must be >= 1, got 0"),
        ],
    )
    def test_a_dimension_below_one_is_refused_by_name(self, draw, message):
        with pytest.raises(ValueError) as caught:
            draw()
        assert str(caught.value) == message

    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_matches_exact_oracle(self, dim):
        seeds = range(500, 512)
        pairs = _random_pairs(dim, seeds).checked()
        stacked = _basic_cases(pairs.at(0), pairs.at(1))
        for i, seed in enumerate(seeds):
            expected = oracles.basic_case_exact(pairs.law((0, i)), pairs.law((1, i)))
            for term in TERMS:
                got = float(getattr(stacked, term)[i])
                assert got == pytest.approx(expected[term], rel=1e-12, abs=1e-15), (seed, term)


class TestFeatureAugmentation:
    def base_source(self, seed=61):
        return random_task(2, 1, seed=seed)

    def test_conditionally_independent_augmentation_is_free(self):
        rng = np.random.default_rng(62)
        source = self.base_source()
        cov_cross = rng.normal(scale=0.2, size=(2, 1))
        target = conditionally_independent_augmentation(
            source, mean_new=[0.3], cov_new=[[1.0]], cov_cross=cov_cross
        )
        kl, w = feature_augmentation_risks(source, target)
        assert kl.total == pytest.approx(0.0, abs=1e-9)
        assert w.total == pytest.approx(0.0, abs=1e-9)
        # Projection optimality: the target model ignores the new coordinate.
        w_s = optimal_linear_model(source).weights[0]
        w_t = optimal_linear_model(target).weights[0]
        np.testing.assert_allclose(w_t[:2], w_s, atol=1e-9)
        np.testing.assert_allclose(w_t[2:], 0.0, atol=1e-9)

    def test_uncorrelated_augmentation_closed_form(self):
        # Orthogonal new feature with direct output correlation c: the
        # explained-variance ratio is 1 + c^2 / (v_new * var_s).
        source = scalar_task(2.0, 1.0, 1.0)
        c, v_new = 0.4, 1.5
        target = augment_features(
            source, mean_new=[0.0], cov_new=[[v_new]], cov_cross=np.zeros((1, 1)),
            cov_new_y=[[c]],
        )
        kl, w = feature_augmentation_risks(source, target)
        var_s = 1.0**2 / 2.0
        ratio = 1.0 + c**2 / (v_new * var_s)
        assert kl.variance_term == pytest.approx(0.5 * (ratio - np.log(ratio) - 1.0), abs=1e-12)
        assert kl.bias_term == 0.0
        var_t = var_s * ratio
        assert w.variance_term == pytest.approx(
            (np.sqrt(var_t) - np.sqrt(var_s)) ** 2, abs=1e-12
        )
        assert w.bias_term == 0.0
        assert kl.total > 0.0 and w.total > 0.0

    def test_matches_gaussian_divergences_of_prediction_laws(self):
        # Independent route: both laws share the output mean, so the risks
        # are plain divergences between N(mu, var_s) and N(mu, var_t).
        for seed in range(10):
            full = random_task(4, 1, seed=700 + seed)
            source = restrict_inputs(full, 2)
            kl, w = feature_augmentation_risks(source, full)
            var_s = float(source.cov_xy[:, 0] @ np.linalg.solve(source.cov_xx, source.cov_xy[:, 0]))
            var_t = float(full.cov_xy[:, 0] @ np.linalg.solve(full.cov_xx, full.cov_xy[:, 0]))
            mu = float(full.mean_y[0])
            p_st, p_t = Gaussian1D(mu, var_s), Gaussian1D(mu, var_t)
            assert kl.total == pytest.approx(gaussian_kl(p_t, p_st), abs=1e-9)
            assert w.total == pytest.approx(gaussian_w2(p_t, p_st), abs=1e-9)

    def test_no_harm_in_explained_variance(self):
        # More features never reduce the optimum's explained variance.
        for seed in range(50):
            full = random_task(3, 1, seed=800 + seed)
            source = restrict_inputs(full, 2)
            var_s = float(source.cov_xy[:, 0] @ np.linalg.solve(source.cov_xx, source.cov_xy[:, 0]))
            var_t = float(full.cov_xy[:, 0] @ np.linalg.solve(full.cov_xx, full.cov_xy[:, 0]))
            assert var_t >= var_s - 1e-10

    def test_embedding_violation_rejected(self):
        source = self.base_source()
        other = random_task(3, 1, seed=63)
        with pytest.raises(ValueError, match="embed"):
            feature_augmentation_risks(source, other)

    def test_needs_added_coordinates(self):
        source = self.base_source()
        with pytest.raises(ValueError, match="add feature coordinates"):
            feature_augmentation_risks(source, source)


class TestOutputAugmentation:
    def make_pair(self, seed, d=2, l=1, k=1):
        target = random_task(d, l + k, seed=seed)
        source = restrict_outputs(target, l)
        return source, target

    def test_optimal_initializer_gives_zero_risk(self):
        for seed in range(10):
            source, target = self.make_pair(900 + seed)
            init = optimal_output_initializer(source, target)
            kl, w, dec = output_augmentation_risks(source, target, init)
            assert kl == pytest.approx(0.0, abs=1e-9)
            assert w == pytest.approx(0.0, abs=1e-9)
            assert dec.total == pytest.approx(0.0, abs=1e-9)

    def test_eigenvalue_route_matches_trace_logdet(self):
        rng = np.random.default_rng(64)
        for seed in range(10):
            source, target = self.make_pair(1000 + seed, d=3, l=1, k=2)
            init = optimal_output_initializer(source, target)
            noisy = AffineModel(
                init.weights + rng.normal(scale=0.3, size=init.weights.shape),
                init.bias + rng.normal(scale=0.3, size=init.bias.shape),
            )
            kl, _, dec = output_augmentation_risks(source, target, noisy)
            assert dec.total == pytest.approx(kl, abs=1e-9)
            assert dec.variance_term >= -1e-12
            assert dec.bias_term >= -1e-12

    def test_bias_term_is_the_quadratic_form(self):
        source, target = self.make_pair(65)
        init = optimal_output_initializer(source, target)
        shifted = AffineModel(init.weights, init.bias + 0.7)
        _, _, dec = output_augmentation_risks(source, target, shifted)
        p_st, p_t = output_augmentation_laws(source, target, shifted)
        diff = p_t.mean - p_st.mean
        expected = 0.5 * diff @ np.linalg.solve(p_st.cov, diff)
        assert dec.bias_term == pytest.approx(expected, abs=1e-12)
        # A pure bias shift leaves the covariances equal.
        assert dec.variance_term == pytest.approx(0.0, abs=1e-12)

    def test_w_risk_matches_transport_pair_route(self):
        source, target = self.make_pair(66)
        init = AffineModel(np.array([[0.2, -0.1]]), np.array([0.4]))
        _, w, _ = output_augmentation_risks(source, target, init)
        source_model = optimal_linear_model(source)
        stacked = AffineModel(
            np.vstack([source_model.weights, init.weights]),
            np.concatenate([source_model.bias, init.bias]),
        )
        _, p_t = output_augmentation_laws(source, target, init)
        route = output_risk_w(stacked, target.x_marginal(), p_t)
        assert w == pytest.approx(route, abs=1e-12)

    def test_singular_intermediate_covariance_rejected(self):
        source, target = self.make_pair(67)
        dead = AffineModel(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="singular"):
            output_augmentation_risks(source, target, dead)

    def test_initializer_dimension_checked(self):
        source, target = self.make_pair(68)
        wrong = AffineModel(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="initializer"):
            output_augmentation_risks(source, target, wrong)

    def test_embedding_violation_rejected(self):
        source, _ = self.make_pair(69)
        _, other = self.make_pair(70)
        with pytest.raises(ValueError, match="embed"):
            output_augmentation_risks(source, other, AffineModel(np.zeros((1, 2)), np.zeros(1)))


class TestGenerators:
    def test_random_task_deterministic(self):
        a = random_task(2, 1, seed=71)
        b = random_task(2, 1, seed=71)
        np.testing.assert_array_equal(a.cov_xx, b.cov_xx)
        np.testing.assert_array_equal(a.mean_y, b.mean_y)

    def test_random_task_spectrum_bounds(self):
        task = random_task(3, 2, seed=72)
        eigs = np.linalg.eigvalsh(task.full().cov)
        assert eigs.min() >= 0.5 - 1e-9
        assert eigs.max() <= 2.0 + 1e-9

    def test_marginals_and_full_match_validated_laws(self):
        # The joint's laws skip re-validation; they must still be bit-equal to
        # a freshly validated GaussianND and read-only.
        joints = [random_task(3, 2, seed=s) for s in range(10)]
        joints += [joint for s in range(10) for joint in random_basic_pair(4, seed=s)]
        for joint in joints:
            expected = {
                "x": GaussianND(joint.mean_x, joint.cov_xx),
                "full": GaussianND(
                    np.concatenate([joint.mean_x, joint.mean_y]),
                    np.block([[joint.cov_xx, joint.cov_xy], [joint.cov_xy.T, joint.cov_yy]]),
                ),
            }
            actual = {"x": joint.x_marginal(), "full": joint.full()}
            for key, law in actual.items():
                for got, want in ((law.mean, expected[key].mean), (law.cov, expected[key].cov)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), key
                    assert not got.flags.writeable, key

    def test_restrictions_are_consistent(self):
        task = random_task(3, 2, seed=73)
        sub = restrict_inputs(task, 2)
        np.testing.assert_array_equal(sub.cov_xx, task.cov_xx[:2, :2])
        sub_out = restrict_outputs(task, 1)
        np.testing.assert_array_equal(sub_out.cov_yy, task.cov_yy[:1, :1])
