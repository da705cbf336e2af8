"""Tests for transport maps, risk operations, and combiners."""

import numpy as np
import pytest

import oracles
from trk.distributions import EmpiricalDistribution, Gaussian1D, GaussianND, gaussian_kl, gaussian_w2
from trk.optimal_transport import OtConfig
from trk.transfer_core import (
    AffineMap,
    AffineModel,
    IdentityMap,
    LinearCombiner,
    PolynomialCombiner,
    TransportMap,
    TransportPair,
    combine,
    cross_entropy_sandwich,
    input_risk,
    output_risk_kl,
    output_risk_w,
    transfer_risk,
)


def empirical(points):
    return EmpiricalDistribution.from_points(np.asarray(points, dtype=float))


def scalar_affine(w, b):
    return AffineModel(np.array([[float(w)]]), np.array([float(b)]))


class AbsMap(TransportMap):
    """|x| = relu(x) + relu(-x), a one-hidden-layer ReLU net with no affine form."""

    def __init__(self, dim):
        self.in_dim = self.out_dim = dim

    def __call__(self, points):
        return np.maximum(points, 0.0) + np.maximum(-points, 0.0)


def identity_pair(dim=1, source=None):
    source = source if source is not None else AffineModel(np.eye(dim), np.zeros(dim))
    return TransportPair(
        input_map=IdentityMap(dim),
        output_map=IdentityMap(source.out_dim),
        source_model=source,
        mode="y_only",
    )


class TestModels:
    def test_affine_model_batch_eval(self):
        model = AffineModel(np.array([[1.0, 2.0]]), np.array([0.5]))
        out = model(np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out, [[3.5], [0.5]])

    def test_affine_model_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="bias length"):
            AffineModel(np.eye(2), np.zeros(3))

class TestTransportMaps:
    def test_identity_as_affine_round_trip(self):
        model = IdentityMap(3).as_affine()
        pts = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(model(pts), pts)

class TestTransportPair:
    def test_apply_modes_match_as_affine(self):
        rng = np.random.default_rng(41)
        source = AffineModel(rng.normal(size=(2, 3)), rng.normal(size=2))
        pts = rng.normal(size=(7, 3))
        for mode, out_in_dim in (("xy", 5), ("y_only", 2), ("x_only", 3)):
            output_map = AffineMap(AffineModel(rng.normal(size=(2, out_in_dim)), rng.normal(size=2)))
            pair = TransportPair(IdentityMap(3), output_map, source, mode=mode)
            collapsed = pair.as_affine()
            assert collapsed is not None
            np.testing.assert_allclose(collapsed(pts), pair.apply(pts), atol=1e-12)

    def test_x_only_allows_missing_source_model(self):
        pair = TransportPair(IdentityMap(2), IdentityMap(2), None, mode="x_only")
        pts = np.ones((3, 2))
        np.testing.assert_allclose(pair.apply(pts), pts)

    def test_y_only_requires_source_model(self):
        with pytest.raises(ValueError, match="needs a source model"):
            TransportPair(IdentityMap(2), IdentityMap(2), None, mode="y_only")

    def test_dimension_validation(self):
        source = AffineModel(np.ones((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="output map expects"):
            TransportPair(IdentityMap(2), IdentityMap(3), source, mode="y_only")
        with pytest.raises(ValueError, match="source model"):
            TransportPair(IdentityMap(3), IdentityMap(1), source, mode="y_only")

    def test_mlp_component_blocks_as_affine(self):
        pair = TransportPair(IdentityMap(1), AbsMap(1), scalar_affine(1, 0), mode="y_only")
        assert pair.as_affine() is None
        np.testing.assert_allclose(pair.apply(np.array([[-2.0], [3.0]])), [[2.0], [3.0]])


class TestInputRisk:
    def test_identity_same_distribution_is_zero(self):
        cloud = empirical([[0.0], [1.0], [2.0]])
        assert input_risk(IdentityMap(1), cloud, cloud) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_unit_shift_w2(self):
        value = input_risk(
            IdentityMap(1),
            Gaussian1D(0.0, 1.0),
            Gaussian1D(1.0, 1.0),
            metric="wasserstein",
            cfg=OtConfig(p=2.0),
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kl_metric_orientation(self):
        # KL(pushforward || source), which is asymmetric in the variances.
        value = input_risk(
            IdentityMap(1), Gaussian1D(0.0, 2.0), Gaussian1D(0.0, 1.0), metric="kl"
        )
        assert value == pytest.approx(gaussian_kl(Gaussian1D(0, 2), Gaussian1D(0, 1)), abs=1e-12)

    def test_empirical_affine_matches_assignment_oracle(self):
        rng = np.random.default_rng(42)
        target = rng.normal(size=(20, 2))
        source = rng.normal(size=(20, 2)) + 1.0
        halving = AffineMap(AffineModel(0.5 * np.eye(2), np.zeros(2)))
        value = input_risk(
            halving, empirical(target), empirical(source), cfg=OtConfig(method="exact_lp")
        )
        assert value == pytest.approx(
            oracles.assignment_ot_cost(target / 2.0, source, p=1.0), rel=1e-8
        )

    def test_kl_on_samples_rejected(self):
        cloud = empirical([[0.0], [1.0]])
        with pytest.raises(ValueError, match="not defined for sampled"):
            input_risk(IdentityMap(1), cloud, cloud, metric="kl")

    def test_mixed_carriers_rejected(self):
        with pytest.raises(TypeError, match="both"):
            input_risk(IdentityMap(1), empirical([[0.0]]), Gaussian1D(0, 1))

    def test_gaussian_w1_rejected(self):
        with pytest.raises(ValueError, match="p=2"):
            input_risk(IdentityMap(1), Gaussian1D(0, 1), Gaussian1D(1, 1), cfg=OtConfig(p=1.0))

    def test_mlp_pushforward_of_gaussian_rejected(self):
        with pytest.raises(ValueError, match="AbsMap has no closed-form Gaussian pushforward"):
            input_risk(AbsMap(1), Gaussian1D(0, 1), Gaussian1D(0, 1), cfg=OtConfig(p=2.0))
        # The same map on samples is fine: the pushforward is just evaluated.
        cloud = empirical([[-1.0], [2.0]])
        assert input_risk(AbsMap(1), cloud, empirical([[1.0], [2.0]])) == 0.0


class TestOutputRiskW:
    def test_exact_reproduction_is_zero(self):
        cloud = empirical([[0.0], [1.0], [2.0]])
        pair = identity_pair(1)
        value = output_risk_w(pair, cloud, cloud, p=1.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_affine_pair_matches_closed_form(self):
        # Source model doubles the input; the prediction law is then
        # N(2 mu, 4 sigma^2) and the risk is the closed-form W2^2 to target.
        law_xt = Gaussian1D(1.0, 2.0)
        target = Gaussian1D(0.5, 1.0)
        pair = identity_pair(1, source=scalar_affine(2.0, 0.0))
        value = output_risk_w(pair, law_xt, target, p=2.0)
        assert value == pytest.approx(gaussian_w2(Gaussian1D(2.0, 8.0), target), abs=1e-12)

    def test_empirical_matches_assignment_oracle(self):
        rng = np.random.default_rng(43)
        xs = rng.normal(size=(30, 1))
        ys = rng.normal(size=(30, 1))
        pair = identity_pair(1, source=scalar_affine(1.5, 0.25))
        value = output_risk_w(pair, empirical(xs), empirical(ys), p=1.0)
        assert value == pytest.approx(
            oracles.assignment_ot_cost(xs * 1.5 + 0.25, ys, p=1.0), rel=1e-8
        )

    def test_mixed_carriers_rejected(self):
        pair = identity_pair(1)
        with pytest.raises(TypeError, match="sampled target output"):
            output_risk_w(pair, empirical([[0.0]]), Gaussian1D(0, 1))


class TestOutputRiskKl:
    def test_gaussian_argument_order(self):
        # The value is KL of the target law from the predicted law.
        p_st, p_t = Gaussian1D(0.0, 2.0), Gaussian1D(0.0, 1.0)
        expected = 0.5 * (0.5 - np.log(0.5) - 1.0)
        assert output_risk_kl(p_st, p_t) == pytest.approx(expected, abs=1e-12)
        assert output_risk_kl(p_st, p_t) == pytest.approx(gaussian_kl(p_t, p_st), abs=1e-15)

    def test_discrete_frozen_value(self):
        # Frozen: 0.5 log(0.5/0.9) + 0.5 log(0.5/0.1) = 0.5108256237659907.
        value = output_risk_kl(np.array([0.9, 0.1]), np.array([0.5, 0.5]), smoothing=0.0)
        assert value == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_disjoint_support_needs_smoothing(self):
        p_st = np.array([1.0, 0.0])
        p_t = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="singular part"):
            output_risk_kl(p_st, p_t, smoothing=0.0)
        smoothed = output_risk_kl(p_st, p_t, smoothing=1e-6)
        assert np.isfinite(smoothed) and smoothed > 0.0

    def test_smoothing_shrinks_toward_zero_divergence(self):
        p_st = np.array([0.9, 0.1])
        p_t = np.array([0.5, 0.5])
        raw = output_risk_kl(p_st, p_t)
        heavy = output_risk_kl(p_st, p_t, smoothing=10.0)
        assert heavy < raw

    def test_pmf_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            output_risk_kl(np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            output_risk_kl(np.array([1.1, -0.1]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="length mismatch"):
            output_risk_kl(np.array([1.0]), np.array([0.5, 0.5]))


class TestCombine:
    def test_reference_pair_values(self):
        # Published risk table pairs for the quadratic-output combiner.
        combiner = PolynomialCombiner(input_coeff=0.31, output_coeff=0.92, power=2.0)
        assert combine(combiner, 0.181, 0.428) == pytest.approx(0.224, abs=1e-3)
        assert combine(combiner, 0.148, 0.084) == pytest.approx(0.052, abs=1e-3)

    def test_linear_combiner(self):
        assert combine(LinearCombiner(0.5), 2.0, 1.0) == pytest.approx(2.0)

    def test_zero_risks_combine_to_zero(self):
        assert combine(LinearCombiner(3.0), 0.0, 0.0) == 0.0
        assert combine(PolynomialCombiner(1.0, 1.0, 2.0), 0.0, 0.0) == 0.0

    def test_negative_risk_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            combine(LinearCombiner(1.0), -0.1, 0.0)

    def test_combiner_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LinearCombiner(-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            PolynomialCombiner(-0.1, 1.0)
        with pytest.raises(ValueError, match="power"):
            PolynomialCombiner(1.0, 1.0, 0.5)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(44)
        for combiner in (LinearCombiner(0.7), PolynomialCombiner(0.31, 0.92, 2.0)):
            for _ in range(50):
                e_i, e_o = rng.uniform(0, 2, size=2)
                step = rng.uniform(0.01, 0.5)
                assert combiner.combine(e_i + step, e_o) >= combiner.combine(e_i, e_o)
                assert combiner.combine(e_i, e_o + step) >= combiner.combine(e_i, e_o)


class TestTransferRisk:
    def make_gaussian_setup(self):
        law_xt = Gaussian1D(0.0, 1.0)
        law_xs = Gaussian1D(0.0, 1.0)
        target = Gaussian1D(1.0, 1.0)
        return law_xt, law_xs, target

    def test_picks_strictly_better_candidate(self):
        law_xt, law_xs, target = self.make_gaussian_setup()
        source = scalar_affine(1.0, 0.0)
        # First candidate leaves predictions at N(0,1); second shifts them
        # onto the target law exactly.
        bad = identity_pair(1, source=source)
        good = TransportPair(IdentityMap(1), AffineMap(scalar_affine(1.0, 1.0)), source)
        report, index = transfer_risk(
            [bad, good], law_xt, law_xs, target, LinearCombiner(1.0), cfg=OtConfig(p=2.0)
        )
        assert index == 1
        assert report.output_risk == pytest.approx(0.0, abs=1e-12)
        assert report.combined == pytest.approx(report.output_risk + report.input_risk, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        law_xt, law_xs, target = self.make_gaussian_setup()
        source = scalar_affine(1.0, 0.0)
        twin_a = identity_pair(1, source=source)
        twin_b = identity_pair(1, source=source)
        _, index = transfer_risk(
            [twin_a, twin_b], law_xt, law_xs, target, LinearCombiner(1.0), cfg=OtConfig(p=2.0)
        )
        assert index == 0

    def test_report_combined_consistency(self):
        law_xt, law_xs, target = self.make_gaussian_setup()
        pair = identity_pair(1, source=scalar_affine(2.0, 0.5))
        combiner = PolynomialCombiner(0.31, 0.92, 2.0)
        report, _ = transfer_risk([pair], law_xt, law_xs, target, combiner, cfg=OtConfig(p=2.0))
        assert report.combined == pytest.approx(
            combine(combiner, report.input_risk, report.output_risk), abs=1e-12
        )
        assert report.combiner == combiner.tag
        assert report.approximation is False

    def test_kl_divergence_route(self):
        law_xt, law_xs, target = self.make_gaussian_setup()
        pair = identity_pair(1)
        report, _ = transfer_risk(
            [pair], law_xt, law_xs, target, LinearCombiner(1.0), divergence="kl",
            cfg=OtConfig(p=2.0),
        )
        assert report.divergence == "kl"
        assert report.output_risk == pytest.approx(gaussian_kl(target, Gaussian1D(0, 1)), abs=1e-12)

    def test_proxy_flag_inferred_for_sampled_target(self):
        cloud = empirical([[0.0], [1.0]])
        pair = identity_pair(1)
        report, _ = transfer_risk(
            [pair], cloud, cloud, cloud, LinearCombiner(1.0), cfg=OtConfig(p=1.0)
        )
        assert report.approximation is True

    def test_empty_candidates_rejected(self):
        law_xt, law_xs, target = self.make_gaussian_setup()
        with pytest.raises(ValueError, match="at least one candidate"):
            transfer_risk([], law_xt, law_xs, target, LinearCombiner(1.0))


class TestCrossEntropySandwich:
    def test_uniform_prediction_bounds(self):
        p_st = np.array([0.5, 0.5])
        law = np.array([0.3, 0.7])
        p_t = np.array([0.6, 0.4])
        lower, center, upper = cross_entropy_sandwich(p_st, law, p_t)
        assert lower == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)
        assert upper == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        assert lower <= center <= upper

    def test_center_zero_when_laws_agree(self):
        p_st = np.array([0.4, 0.6])
        same = np.array([0.25, 0.75])
        _, center, _ = cross_entropy_sandwich(p_st, same, same)
        assert center == pytest.approx(0.0, abs=1e-12)

    def test_ordering_on_random_instances(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            p_st = rng.dirichlet(np.ones(k) * 2.0)
            law = rng.dirichlet(np.ones(k))
            p_t = rng.dirichlet(np.ones(k))
            lower, center, upper = cross_entropy_sandwich(p_st, law, p_t)
            assert lower - 1e-12 <= center <= upper + 1e-12

    def test_requires_positive_prediction_law(self):
        with pytest.raises(ValueError, match="strictly positive"):
            cross_entropy_sandwich(
                np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.5, 0.5])
            )


class TestContinuityProbe:
    def test_combined_risk_deviation_vanishes_with_perturbation(self):
        # Perturb the target input law along a fixed direction and watch the
        # combined risk of a fixed candidate return to its base value.
        source = scalar_affine(1.0, 0.0)
        pair = identity_pair(1, source=source)
        combiner = LinearCombiner(0.5)
        law_xs = Gaussian1D(0.0, 1.0)
        target = Gaussian1D(0.0, 1.0)
        cfg = OtConfig(p=2.0)

        def combined(delta):
            report, _ = transfer_risk(
                [pair], Gaussian1D(delta, 1.0), law_xs, target, combiner, cfg=cfg
            )
            return report.combined

        base = combined(0.0)
        deltas = [2.0**-k for k in range(1, 9)]
        deviations = [abs(combined(d) - base) for d in deltas]
        # Vanishing and monotone over the last three dyadic steps.
        assert deviations[-1] < 1e-3
        assert deviations[-3] >= deviations[-2] >= deviations[-1]
        # Deviation stays under a crude Lipschitz envelope L * delta.
        slope = deviations[0] / deltas[0]
        for dev, delta in zip(deviations, deltas):
            assert dev <= 4.0 * slope * delta + 1e-12
