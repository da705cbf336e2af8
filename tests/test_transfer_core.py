"""Tests for affine models, risk operations, and combiners."""

import itertools
import math

import numpy as np
import pytest

import oracles
from trk.distributions import EmpiricalDistribution, Gaussian1D, GaussianND, gaussian_kl, gaussian_w2
from trk.optimal_transport import OtConfig, _cost_matrix, _solve_lp
from trk.transfer_core import (
    AffineModel,
    PolynomialCombiner,
    combine,
    cross_entropy_sandwich,
    input_risk,
    output_risk_w,
)


def empirical(points):
    return EmpiricalDistribution.from_points(np.asarray(points, dtype=float))


def scalar_affine(w, b):
    return AffineModel(np.array([[float(w)]]), np.array([float(b)]))


class TestModels:
    def test_affine_model_batch_eval(self):
        model = AffineModel(np.array([[1.0, 2.0]]), np.array([0.5]))
        out = model(np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out, [[3.5], [0.5]])

    def test_affine_model_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="bias length"):
            AffineModel(np.eye(2), np.zeros(3))


class TestInputRisk:
    def test_identity_same_distribution_is_zero(self):
        cloud = empirical([[0.0], [1.0], [2.0]])
        assert input_risk(cloud, cloud) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_unit_shift_w2(self):
        value = input_risk(
            Gaussian1D(0.0, 1.0),
            Gaussian1D(1.0, 1.0),
            metric="wasserstein",
            cfg=OtConfig(p=2.0),
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kl_metric_orientation(self):
        # KL(target || source), which is asymmetric in the variances.
        value = input_risk(Gaussian1D(0.0, 2.0), Gaussian1D(0.0, 1.0), metric="kl")
        assert value == pytest.approx(gaussian_kl(Gaussian1D(0, 2), Gaussian1D(0, 1)), abs=1e-12)

    def test_empirical_affine_matches_assignment_oracle(self):
        rng = np.random.default_rng(42)
        target = rng.normal(size=(20, 2))
        source = rng.normal(size=(20, 2)) + 1.0
        law_xt, law_xs = empirical(target / 2.0), empirical(source)
        value = input_risk(law_xt, law_xs)
        assert value == pytest.approx(
            oracles.assignment_ot_cost(target / 2.0, source, p=1.0), rel=1e-8
        )
        cost = _cost_matrix(law_xt, law_xs, 1.0)
        lp = float((_solve_lp(law_xt.weights, law_xs.weights, cost) * cost).sum())
        assert value == pytest.approx(lp, rel=1e-8)

    def test_kl_on_samples_rejected(self):
        cloud = empirical([[0.0], [1.0]])
        with pytest.raises(ValueError, match="not defined for sampled"):
            input_risk(cloud, cloud, metric="kl")

    def test_mixed_carriers_rejected(self):
        with pytest.raises(TypeError, match="both"):
            input_risk(empirical([[0.0]]), Gaussian1D(0, 1))

    def test_gaussian_w1_rejected(self):
        with pytest.raises(ValueError, match="p=2"):
            input_risk(Gaussian1D(0, 1), Gaussian1D(1, 1), cfg=OtConfig(p=1.0))


class TestOutputRiskW:
    def test_gaussian_affine_pair_matches_closed_form(self):
        # The model doubles the input; the prediction law is then
        # N(2 mu, 4 sigma^2) and the risk is the closed-form W2^2 to target.
        law_xt = Gaussian1D(1.0, 2.0)
        target = Gaussian1D(0.5, 1.0)
        value = output_risk_w(scalar_affine(2.0, 0.0), law_xt, target)
        assert value == pytest.approx(gaussian_w2(Gaussian1D(2.0, 8.0), target), abs=1e-12)

    def test_sampled_carriers_rejected(self):
        # Sampled output risks are trained in finetune, not computed here.
        cloud = empirical([[0.0], [1.0]])
        with pytest.raises(TypeError, match="needs Gaussian carriers"):
            output_risk_w(scalar_affine(1, 0), cloud, cloud)

    def test_mixed_carriers_rejected(self):
        cloud, gaussian = empirical([[0.0], [1.0]]), Gaussian1D(0, 1)
        for law_xt, target in ((cloud, gaussian), (gaussian, cloud)):
            with pytest.raises(TypeError, match="needs Gaussian carriers"):
                output_risk_w(scalar_affine(1, 0), law_xt, target)


class TestCombine:
    def test_reference_pair_values(self):
        # Published risk table pairs for the quadratic-output combiner.
        combiner = PolynomialCombiner(input_coeff=0.31, output_coeff=0.92, power=2.0)
        assert combine(combiner, 0.181, 0.428) == pytest.approx(0.224, abs=1e-3)
        assert combine(combiner, 0.148, 0.084) == pytest.approx(0.052, abs=1e-3)

    def test_linear_combiner(self):
        # The config's linear form with weight w is the combiner (w, 1, 1).
        assert combine(PolynomialCombiner(0.5, 1.0, 1.0), 2.0, 1.0) == pytest.approx(2.0)

    def test_linear_form_matches_its_formula_bit_for_bit(self):
        # o + w * i and w * i + 1.0 * o ** 1.0 round identically: pow(x, 1.0)
        # and 1.0 * x are x, and IEEE addition commutes.
        rng = np.random.default_rng(15)
        magnitudes = [0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e300]
        triples = [
            tuple(float(rng.uniform(0.0, 2.0) * rng.choice(magnitudes)) for _ in range(3))
            for _ in range(3000)
        ]
        triples += itertools.product((0.0, 5e-324, 0.7), repeat=3)
        finite = 0
        for w, i, o in triples:
            combiner = PolynomialCombiner(w, 1.0, 1.0)
            if math.isfinite(o + w * i):
                assert combine(combiner, i, o).hex() == (o + w * i).hex()
                finite += 1
            else:  # w * i overflowed
                with pytest.raises(ValueError, match="is not finite"):
                    combine(combiner, i, o)
        assert finite > 2500

    def test_zero_risks_combine_to_zero(self):
        assert combine(PolynomialCombiner(3.0, 1.0, 1.0), 0.0, 0.0) == 0.0
        assert combine(PolynomialCombiner(1.0, 1.0, 2.0), 0.0, 0.0) == 0.0

    def test_negative_risk_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            combine(PolynomialCombiner(1.0, 1.0, 1.0), -0.1, 0.0)

    def test_overflowing_combination_rejected(self):
        # Python's float ** raises OverflowError where * rounds to inf; both are refused.
        for combiner, e_in, e_out in (
            (PolynomialCombiner(1.0, 1.0, 2.0), 0.0, 1e200),
            (PolynomialCombiner(2.0, 1.0, 1.0), 1e308, 0.0),
        ):
            with pytest.raises(ValueError, match="is not finite"):
                combine(combiner, e_in, e_out)

    def test_combiner_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PolynomialCombiner(-0.1, 1.0)
        with pytest.raises(ValueError, match="power"):
            PolynomialCombiner(1.0, 1.0, 0.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                PolynomialCombiner(bad, 1.0)
            with pytest.raises(ValueError, match="finite"):
                PolynomialCombiner(1.0, 1.0, bad)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(44)
        for combiner in (PolynomialCombiner(0.7, 1.0, 1.0), PolynomialCombiner(0.31, 0.92, 2.0)):
            for _ in range(50):
                e_i, e_o = rng.uniform(0, 2, size=2)
                step = rng.uniform(0.01, 0.5)
                assert combine(combiner, e_i + step, e_o) >= combine(combiner, e_i, e_o)
                assert combine(combiner, e_i, e_o + step) >= combine(combiner, e_i, e_o)


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
        # combined risk of a fixed model return to its base value.
        model = scalar_affine(1.0, 0.0)
        combiner = PolynomialCombiner(0.5, 1.0, 1.0)
        law_xs = Gaussian1D(0.0, 1.0)
        target = Gaussian1D(0.0, 1.0)
        cfg = OtConfig(p=2.0)

        def combined(delta):
            law_xt = Gaussian1D(delta, 1.0)
            e_in = input_risk(law_xt, law_xs, "wasserstein", cfg)
            return combine(combiner, e_in, output_risk_w(model, law_xt, target))

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
