"""Tests for gradient-descent risk minimization and classifier training."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import fit_multinomial_logistic_newton, quantile_wp_1d, softmax_cross_entropy
from trk import finetune
from trk.distributions import EmpiricalDistribution, Gaussian1D, gaussian_w2
from trk.finetune import (
    AffineMapFamily,
    SoftmaxHeadFamily,
    TrainConfig,
    SyntheticDomain,
    TrainingDivergedError,
    cross_entropy_objective,
    evaluate_risk_accuracy_pairs,
    make_synthetic_domains,
    minimize_output_risk,
    train_classifier,
    transport_objective,
)
from trk.gaussian_lab import predictive_laws, random_basic_pair
from trk.optimal_transport import OtConfig, SinkhornConvergenceError
from trk.transfer_core import PolynomialCombiner, combine, input_risk


def uniform_weights(n):
    return np.full(n, 1.0 / n)


def midranks(values):
    """Average ranks with midrank ties, 1-based."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_correlation(a, b):
    ra, rb = midranks(a), midranks(b)
    ra, rb = ra - ra.mean(), rb - rb.mean()
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra**2) * np.sum(rb**2)))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 10
        assert cfg.learning_rate == 0.05
        assert cfg.plateau_patience == 10

    @pytest.mark.parametrize(
        "kwargs",
        [{"epochs": 0}, {"learning_rate": 0.0}, {"learning_rate": -1.0}, {"plateau_patience": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestFamilies:
    def test_parameter_count_and_init(self):
        family = AffineMapFamily(3, 2)
        assert family.parameter_count() == 8
        params = family.init_parameters(np.random.default_rng(0))
        weights, bias = family.unpack(params)
        assert np.all(np.abs(weights) <= 0.1)
        np.testing.assert_array_equal(bias, np.zeros(2))

    def test_build_applies_affinely(self):
        family = AffineMapFamily(2, 1)
        params = np.array([2.0, -1.0, 0.5])  # row-major weights, then bias
        built = family.build(params)
        np.testing.assert_allclose(built(np.array([[1.0, 1.0]])), [[1.5]])

    def test_softmax_head_predicts_argmax(self):
        family = SoftmaxHeadFamily(2, 3)
        params = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        points = np.array([[3.0, 0.0], [0.0, 3.0], [-1.0, -1.0]])
        np.testing.assert_array_equal(family.predict(params, points), [0, 1, 2])

    def test_softmax_head_needs_two_classes(self):
        with pytest.raises(ValueError, match="classes"):
            SoftmaxHeadFamily(2, 1)


class TestTransportObjective:
    def test_value_matches_quantile_oracle(self):
        rng = np.random.default_rng(0)
        family = AffineMapFamily(2, 1)
        inputs = rng.normal(size=(30, 2))
        weights = uniform_weights(30)
        proxy = EmpiricalDistribution.from_points(rng.normal(size=(20, 1)))
        params = rng.normal(size=3)
        value, _ = transport_objective(family, params, inputs, weights, proxy, p=1.0)
        outputs = family.apply(params, inputs)[:, 0]
        oracle = quantile_wp_1d(outputs, weights, proxy.points[:, 0], proxy.weights, p=1.0)
        assert value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_gradient_matches_central_differences(self, p):
        rng = np.random.default_rng(1)
        family = AffineMapFamily(3, 1)
        inputs = rng.normal(size=(40, 3))
        weights = uniform_weights(40)
        proxy = EmpiricalDistribution.from_points(rng.normal(size=(25, 1)))
        for _ in range(20):
            params = rng.normal(size=4)
            _, grad = transport_objective(family, params, inputs, weights, proxy, p=p)
            step = 1e-5
            for i in range(4):
                offset = np.zeros(4)
                offset[i] = step
                fd = (
                    transport_objective(family, params + offset, inputs, weights, proxy, p)[0]
                    - transport_objective(family, params - offset, inputs, weights, proxy, p)[0]
                ) / (2 * step)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_kept_proxy_side_is_bit_equal_to_a_fresh_sort(self, p):
        # A label proxy is all ties, so the stable order decides the coupling.
        rng = np.random.default_rng(3)
        family = AffineMapFamily(3, 1)
        inputs = rng.random(size=(60, 3))
        weights = rng.random(60)
        weights /= weights.sum()
        labels = rng.integers(0, 4, size=60).astype(float)[:, None]
        proxy = EmpiricalDistribution(labels, weights)
        for _ in range(3):
            params = rng.normal(size=4)
            value, grad = transport_objective(family, params, inputs, weights, proxy, p)
            fresh = EmpiricalDistribution(labels, weights)
            ref_value, ref_grad = transport_objective(family, params, inputs, weights, fresh, p)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)

    def test_multidim_output_rejected(self):
        rng = np.random.default_rng(2)
        family = AffineMapFamily(2, 2)
        with pytest.raises(ValueError, match="scalar, got output dimension 2"):
            transport_objective(
                family,
                family.init_parameters(rng),
                rng.normal(size=(10, 2)),
                uniform_weights(10),
                EmpiricalDistribution.from_points(rng.normal(size=(10, 2))),
            )

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_equal_weight_coupling_is_the_per_call_sweep(self, p):
        # Tied outputs against a weighted label proxy of ties: the kept
        # merge and the per-call sweep give the same bits.
        rng = np.random.default_rng(6)
        family = AffineMapFamily(2, 1)
        inputs = rng.integers(0, 3, size=(90, 2)).astype(float)
        weights = uniform_weights(90)
        proxy_weights = rng.random(60)
        proxy = EmpiricalDistribution(
            rng.integers(0, 4, size=60).astype(float)[:, None], proxy_weights / proxy_weights.sum()
        )
        coupling = finetune._equal_weight_coupling(weights, proxy)
        for _ in range(5):
            params = rng.normal(size=3)
            value, grad = transport_objective(
                family, params, inputs, weights, proxy, p, _coupling=coupling
            )
            ref_value, ref_grad = transport_objective(family, params, inputs, weights, proxy, p)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()
        unequal = np.concatenate([np.full(45, 0.5 / 45), np.full(45, 0.5 / 45 + 1e-12)])
        assert finetune._equal_weight_coupling(unequal / unequal.sum(), proxy) is None


class TestCrossEntropyObjective:
    def test_value_on_tiny_instance(self):
        family = SoftmaxHeadFamily(1, 2)
        params = np.array([1.0, -1.0, 0.0, 0.0])
        points = np.array([[2.0]])
        # logits (2, -2): p(class 0) = 1 / (1 + e^-4).
        expected = float(np.log(1.0 + np.exp(-4.0)))
        value, _ = cross_entropy_objective(family, params, points, np.array([0]), np.ones(1))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        family = SoftmaxHeadFamily(3, 3)
        points = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        weights = uniform_weights(40)
        for _ in range(20):
            params = rng.normal(size=family.parameter_count())
            _, grad = cross_entropy_objective(family, params, points, labels, weights)
            step = 1e-5
            for i in rng.choice(family.parameter_count(), size=4, replace=False):
                offset = np.zeros(family.parameter_count())
                offset[i] = step
                fd = (
                    cross_entropy_objective(family, params + offset, points, labels, weights)[0]
                    - cross_entropy_objective(family, params - offset, points, labels, weights)[0]
                ) / (2 * step)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def oracle_objective(family, params, points, labels, weights):
    """The oracle's value, parameter gradient and probabilities for one head."""
    value, grad_logits, probs = softmax_cross_entropy(
        family.apply(params, points), labels, weights
    )
    grad = np.concatenate([(grad_logits.T @ points).ravel(), grad_logits.sum(axis=0)])
    return value, grad, probs


def softmax_instances(classes, seed):
    """Heads and data for the kernel-vs-oracle checks, edge cases included.

    Covers a single row, logits from mild to saturated, logits near +-700
    (whose exponentials overflow unless shifted) and zero weights.
    """
    rng = np.random.default_rng(seed)
    for n, in_dim, scale in ((1, 1, 1.0), (1, 3, 300.0), (50, 1, 1.0), (257, 2, 3.0),
                             (257, 4, 40.0), (1000, 1, 300.0)):
        family = SoftmaxHeadFamily(in_dim, classes)
        params = scale * rng.normal(size=family.parameter_count())
        points = rng.normal(size=(n, in_dim))
        labels = rng.integers(0, classes, size=n)
        weights = rng.random(n)
        yield family, params, points, labels, weights / weights.sum()
    # Bias near +-700: one class at 700-710, the rest near -700.
    family = SoftmaxHeadFamily(2, classes)
    weights_part = rng.normal(size=2 * classes)
    bias = np.full(classes, -700.0) + rng.random(classes)
    bias[rng.integers(classes)] = 700.0 + 10.0 * rng.random()
    points = rng.normal(size=(64, 2))
    labels = rng.integers(0, classes, size=64)
    weights = rng.random(64)
    weights[::3] = 0.0
    yield family, np.concatenate([weights_part, bias]), points, labels, weights / weights.sum()


class TestSoftmaxKernel:
    """`cross_entropy_objective` and `_softmax` against the axis-1 oracle."""

    @pytest.mark.parametrize("classes", range(2, 8))
    def test_bit_equal_below_eight_classes(self, classes):
        # The value and the probabilities are bit-equal.  The kernel's
        # gradient sums over the points in (classes, n) layout, an order the
        # oracle's (n, classes) products do not keep, so it is held to the
        # bound the tests from eight classes use.
        for family, params, points, labels, weights in softmax_instances(classes, classes):
            value, grad = cross_entropy_objective(family, params, points, labels, weights)
            probs = finetune._softmax(family.apply(params, points))
            ref_value, ref_grad, ref_probs = oracle_objective(
                family, params, points, labels, weights
            )
            assert value == ref_value
            assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()
            np.testing.assert_array_equal(probs, ref_probs)

    @pytest.mark.parametrize("classes", range(8, 17))
    def test_within_an_ulp_of_the_normalizer_from_eight_classes(self, classes):
        # numpy sums 8 or more terms in blocks of 8, the kernel column by
        # column, so the normalizer may differ in its last ulp.  That is an
        # absolute error in the loss: a loss near zero would see it as a
        # large relative one, but random labels keep these losses of order 1.
        for family, params, points, labels, weights in softmax_instances(classes, classes):
            value, grad = cross_entropy_objective(family, params, points, labels, weights)
            probs = finetune._softmax(family.apply(params, points))
            ref_value, ref_grad, ref_probs = oracle_objective(
                family, params, points, labels, weights
            )
            assert value == pytest.approx(ref_value, rel=1e-14)
            assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()
            np.testing.assert_allclose(probs, ref_probs, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("in_dim", [1, 4])
    def test_benchmark_shapes_within_the_bound(self, in_dim):
        # The empirical benchmark's heads: 1-D source features and 4-class
        # target representations, 10 000 training points, 4 classes.
        n, classes = 10_000, 4
        rng = np.random.default_rng(10 + in_dim)
        family = SoftmaxHeadFamily(in_dim, classes)
        params = rng.normal(size=family.parameter_count())
        points = rng.normal(size=(n, in_dim))
        labels = rng.integers(0, classes, size=n)
        weights = uniform_weights(n)
        value, grad = cross_entropy_objective(family, params, points, labels, weights)
        ref_value, ref_grad, _ = oracle_objective(family, params, points, labels, weights)
        assert value == ref_value
        assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()

    def test_in_dim_one_products_are_the_matmul_products(self, monkeypatch):
        # At in_dim 1 the softmax kernel, `AffineMapFamily.apply` and
        # `AffineModel.__call__` form each product alone; a k = 1 matrix
        # product rounds each entry once as well, so all three are bit-equal
        # to the matmul route, zeros and saturated logits included.
        rng = np.random.default_rng(5)
        n, classes = 1000, 4
        points = rng.normal(size=(n, 1))
        points[::7] = 0.0
        family = SoftmaxHeadFamily(1, classes)
        params = 300.0 * rng.normal(size=family.parameter_count())
        weights, bias = family.unpack(params)
        expected = points @ weights.T + bias
        assert family.apply(params, points).tobytes() == expected.tobytes()
        assert family.build(params)(points).tobytes() == expected.tobytes()
        labels = rng.integers(0, classes, size=n)
        args = (family, params, points, labels, uniform_weights(n))
        value, grad = cross_entropy_objective(*args)
        # The kernel's one np.multiply forms the logits; routed through
        # np.matmul it is the k = 1 matrix product.
        monkeypatch.setattr(np, "multiply", lambda a, b, out: np.matmul(a, b, out=out))
        ref_value, ref_grad = cross_entropy_objective(*args)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("in_dim", [1, 4])
    def test_peak_memory_is_few_class_arrays(self, in_dim):
        # Each (n, classes) temporary costs n * classes * 8 bytes; the kernel
        # keeps the logits and one buffer alive plus a few length-n vectors.
        n, classes = 10_000, 4
        rng = np.random.default_rng(in_dim)
        family = SoftmaxHeadFamily(in_dim, classes)
        params = rng.normal(size=family.parameter_count())
        points = rng.normal(size=(n, in_dim))
        labels = rng.integers(0, classes, size=n)
        weights = uniform_weights(n)
        cross_entropy_objective(family, params, points, labels, weights)
        tracemalloc.start()
        try:
            cross_entropy_objective(family, params, points, labels, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * classes * 8


class TestMinimizeOutputRisk:
    def setup_instance(self, seed=4, n=80):
        rng = np.random.default_rng(seed)
        law_zt = EmpiricalDistribution.from_points(rng.normal(size=(n, 1)))
        proxy = EmpiricalDistribution.from_points(
            1.5 * rng.normal(size=(60, 1)) + 0.7
        )
        return law_zt, proxy

    def test_reaches_grid_optimum(self):
        law_zt, proxy = self.setup_instance()
        family = AffineMapFamily(1, 1)
        risk, _, _ = minimize_output_risk(
            family, law_zt, proxy, cfg=TrainConfig(epochs=10, learning_rate=0.3)
        )
        # Exhaustive W1 over a (w, b) grid, evaluated by the quantile formula
        # directly: uniform weights make the merged segment layout the same
        # for every grid point, so the whole grid vectorizes.
        n, m = law_zt.size, proxy.size
        cu, cv = np.arange(1, n + 1) / n, np.arange(1, m + 1) / m
        edges = np.concatenate([[0.0], np.union1d(cu[:-1], cv[:-1]), [1.0]])
        mids, gaps = (edges[:-1] + edges[1:]) / 2.0, np.diff(edges)
        iu = np.minimum(np.searchsorted(cu, mids), n - 1)
        iv = np.minimum(np.searchsorted(cv, mids), m - 1)
        su = np.sort(law_zt.points[:, 0])[iu]
        sv = np.sort(proxy.points[:, 0])[iv]
        grid_w, grid_b = np.meshgrid(
            np.linspace(0.0, 3.0, 100), np.linspace(-1.0, 2.0, 100), indexing="ij"
        )
        values = np.abs(
            grid_w.ravel()[:, None] * su[None, :] + grid_b.ravel()[:, None] - sv[None, :]
        ) @ gaps
        grid = float(values.min())
        assert 0.0 <= risk <= 1.1 * grid

    def test_budget_is_monotone(self):
        law_zt, proxy = self.setup_instance()
        family = AffineMapFamily(1, 1)
        risk_10, _, _ = minimize_output_risk(
            family, law_zt, proxy, cfg=TrainConfig(epochs=10, seed=5)
        )
        risk_50, _, _ = minimize_output_risk(
            family, law_zt, proxy, cfg=TrainConfig(epochs=50, seed=5)
        )
        assert risk_50 <= risk_10 + 1e-9

    def test_never_worse_than_initialization(self):
        law_zt, proxy = self.setup_instance()
        risk, _, trace = minimize_output_risk(
            AffineMapFamily(1, 1), law_zt, proxy, cfg=TrainConfig(seed=6)
        )
        assert risk <= trace.objectives[0] + 1e-12

    def test_runs_exactly_the_budget(self):
        law_zt, proxy = self.setup_instance()
        _, _, trace = minimize_output_risk(
            AffineMapFamily(1, 1), law_zt, proxy, cfg=TrainConfig(epochs=7)
        )
        assert trace.epochs_run == 7
        assert len(trace.objectives) == 7

    def test_divergence_carries_trace(self):
        law_zt, proxy = self.setup_instance()
        with pytest.raises(TrainingDivergedError) as info:
            minimize_output_risk(
                AffineMapFamily(1, 1),
                law_zt,
                proxy,
                p=2.0,
                cfg=TrainConfig(epochs=200, learning_rate=1e6),
            )
        trace = info.value.trace
        assert trace.epochs_run < 200
        assert all(np.isfinite(v) for v in trace.objectives)

    def test_divergence_error_survives_a_pickle(self):
        # A fit process sends its error to the parent through a pickle.
        law_zt, proxy = self.setup_instance()
        with pytest.raises(TrainingDivergedError) as info:
            minimize_output_risk(
                AffineMapFamily(1, 1), law_zt, proxy, p=2.0,
                cfg=TrainConfig(epochs=200, learning_rate=1e6),
            )
        error = info.value
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is TrainingDivergedError
        assert str(copy) == str(error)
        assert copy.trace.objectives == error.trace.objectives
        assert copy.trace.parameters.tobytes() == error.trace.parameters.tobytes()

    def test_kept_merge_gives_the_per_epoch_merge_bits(self, monkeypatch):
        # Equal weights: the descent merges its coupling once.  Tied outputs
        # and a label proxy of ties; n above the checked-sort threshold.
        rng = np.random.default_rng(8)
        n = 2000
        law_zt = EmpiricalDistribution.from_points(rng.integers(0, 5, size=(n, 3)) / 4.0)
        labels = rng.integers(0, 3, size=n).astype(float)[:, None]
        proxy = EmpiricalDistribution(labels, uniform_weights(n))
        cfg = TrainConfig(epochs=15, learning_rate=0.5)
        args = (AffineMapFamily(3, 1), law_zt, proxy, 1.0, cfg)
        risk, model, trace = minimize_output_risk(*args)
        monkeypatch.setattr(finetune, "_equal_weight_coupling", lambda weights, proxy: None)
        ref_risk, ref_model, ref_trace = minimize_output_risk(*args)
        assert risk == ref_risk
        assert trace.objectives == ref_trace.objectives
        assert trace.parameters.tobytes() == ref_trace.parameters.tobytes()

    def test_deterministic(self):
        law_zt, proxy = self.setup_instance()
        first = minimize_output_risk(
            AffineMapFamily(1, 1), law_zt, proxy, cfg=TrainConfig(seed=7)
        )
        second = minimize_output_risk(
            AffineMapFamily(1, 1), law_zt, proxy, cfg=TrainConfig(seed=7)
        )
        assert first[0] == second[0]
        assert first[2].objectives == second[2].objectives

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_reports_exact_risk_of_returned_map(self, p):
        # 80 uniform weights sum to 1 - 1.6e-15, which once broke the oracle.
        for n in (40, 80):
            law_zt, proxy = self.setup_instance(seed=8, n=n)
            risk, best_map, trace = minimize_output_risk(
                AffineMapFamily(1, 1), law_zt, proxy, p=p,
                cfg=TrainConfig(epochs=5, seed=8),
            )
            assert trace.epochs_run == 5
            pushed = best_map(law_zt.points)[:, 0]
            exact = quantile_wp_1d(
                pushed, law_zt.weights, proxy.points[:, 0], proxy.weights, p=p
            )
            assert risk == pytest.approx(exact, rel=1e-12)

    def test_dimension_validation(self):
        law_zt, proxy = self.setup_instance()
        with pytest.raises(ValueError, match="family expects"):
            minimize_output_risk(AffineMapFamily(2, 1), law_zt, proxy)
        with pytest.raises(ValueError, match="proxy dimension"):
            minimize_output_risk(AffineMapFamily(1, 2), law_zt, proxy)
        plane = EmpiricalDistribution.from_points(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="scalar, got output dimension 2"):
            minimize_output_risk(AffineMapFamily(2, 2), plane, plane)


def separable_blobs(seed, n=200, gap=4.0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    points = rng.normal(scale=0.5, size=(n, 2))
    points[labels == 1] += gap
    perm = rng.permutation(n)
    return points[perm], labels[perm]


def perceptron_is_separable(points, labels, sweeps=200):
    """Perceptron convergence check: returns True when a run stops updating."""
    augmented = np.concatenate([points, np.ones((len(points), 1))], axis=1)
    signs = 2.0 * labels - 1.0
    w = np.zeros(augmented.shape[1])
    for _ in range(sweeps):
        updated = False
        for x, s in zip(augmented, signs):
            if s * (w @ x) <= 0.0:
                w += s * x
                updated = True
        if not updated:
            return True
    return False


class TestTrainClassifier:
    def test_separable_blobs(self):
        points, labels = separable_blobs(9)
        assert perceptron_is_separable(points[:100], labels[:100])
        accuracy, _, _ = train_classifier(
            SoftmaxHeadFamily(2, 2),
            EmpiricalDistribution.from_points(points[:100]),
            labels[:100],
            EmpiricalDistribution.from_points(points[100:]),
            labels[100:],
            TrainConfig(epochs=100),
        )
        assert accuracy >= 0.95

    def test_shuffled_labels_hit_chance(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(400, 2))
        labels = rng.integers(0, 2, size=400)
        accuracy, _, _ = train_classifier(
            SoftmaxHeadFamily(2, 2),
            EmpiricalDistribution.from_points(points[:200]),
            labels[:200],
            EmpiricalDistribution.from_points(points[200:]),
            labels[200:],
            TrainConfig(epochs=100),
        )
        assert abs(accuracy - 0.5) <= 0.1

    def test_matches_newton_oracle_on_overlapping_blobs(self):
        rng = np.random.default_rng(11)
        n = 300
        means = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]])
        labels = np.arange(n) % 3
        points = means[labels] + rng.normal(scale=0.8, size=(n, 2))
        perm = rng.permutation(n)
        points, labels = points[perm], labels[perm]
        half = n // 2
        accuracy, _, _ = train_classifier(
            SoftmaxHeadFamily(2, 3),
            EmpiricalDistribution.from_points(points[:half]),
            labels[:half],
            EmpiricalDistribution.from_points(points[half:]),
            labels[half:],
            TrainConfig(epochs=100, learning_rate=0.2),
        )
        weights, bias = fit_multinomial_logistic_newton(points[:half], labels[:half], 3)
        reference = np.mean(
            np.argmax(points[half:] @ weights.T + bias, axis=1) == labels[half:]
        )
        assert accuracy == pytest.approx(reference, abs=0.05)

    def test_single_class_rejected(self):
        points = np.random.default_rng(12).normal(size=(20, 2))
        dist = EmpiricalDistribution.from_points(points)
        with pytest.raises(ValueError, match="single class"):
            train_classifier(
                SoftmaxHeadFamily(2, 2), dist, np.zeros(20, dtype=int), dist,
                np.zeros(20, dtype=int),
            )

    def test_labels_out_of_range_rejected(self):
        points = np.random.default_rng(13).normal(size=(10, 2))
        dist = EmpiricalDistribution.from_points(points)
        bad = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        with pytest.raises(ValueError, match="labels"):
            train_classifier(SoftmaxHeadFamily(2, 2), dist, bad, dist, bad)

    def test_plateau_stops_early(self):
        points, labels = separable_blobs(14, n=60)
        dist = EmpiricalDistribution.from_points(points)
        _, _, trace = train_classifier(
            SoftmaxHeadFamily(2, 2),
            dist,
            labels,
            dist,
            labels,
            TrainConfig(epochs=100, learning_rate=1e-15, plateau_patience=5),
        )
        assert trace.epochs_run == 6

    def test_budget_contained(self):
        points, labels = separable_blobs(15, n=60)
        dist = EmpiricalDistribution.from_points(points)
        _, _, trace = train_classifier(
            SoftmaxHeadFamily(2, 2), dist, labels, dist, labels, TrainConfig(epochs=12)
        )
        assert trace.epochs_run <= 12

    def test_accuracy_uses_the_held_out_split(self):
        points, labels = separable_blobs(16)
        train = EmpiricalDistribution.from_points(points[:100])
        held = EmpiricalDistribution.from_points(points[100:])
        straight, _, _ = train_classifier(
            SoftmaxHeadFamily(2, 2), train, labels[:100], held, labels[100:]
        )
        flipped, _, _ = train_classifier(
            SoftmaxHeadFamily(2, 2), train, labels[:100], held, 1 - labels[100:]
        )
        assert straight == pytest.approx(1.0 - flipped, abs=1e-12)

    def test_deterministic(self):
        points, labels = separable_blobs(17, n=80)
        dist = EmpiricalDistribution.from_points(points)
        runs = [
            train_classifier(
                SoftmaxHeadFamily(2, 2), dist, labels, dist, labels, TrainConfig(seed=3)
            )
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][2].objectives == runs[1][2].objectives


class TestSyntheticDomains:
    def test_shapes_and_names(self):
        domains = make_synthetic_domains(0)
        assert [d.name for d in domains] == ["domain_a", "domain_b", "domain_c"]
        for domain in domains:
            assert domain.train.size == domain.held_out.size == 200
            assert domain.train.dim == 2
            assert set(np.unique(domain.train_labels)) == {0, 1, 2}

    def test_deterministic(self):
        first, second = make_synthetic_domains(1), make_synthetic_domains(1)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.train.points, b.train.points)
            np.testing.assert_array_equal(a.held_out_labels, b.held_out_labels)

    def test_validation(self):
        with pytest.raises(ValueError, match="domains"):
            make_synthetic_domains(0, n_domains=1)
        with pytest.raises(ValueError, match="samples_per_domain"):
            make_synthetic_domains(0, samples_per_domain=8)


@pytest.fixture(scope="module")
def transfer_table():
    return evaluate_risk_accuracy_pairs(make_synthetic_domains(0))


class TestEvaluatePairs:
    def test_six_ordered_rows(self, transfer_table):
        assert [(r.source, r.target) for r in transfer_table] == [
            ("domain_a", "domain_b"),
            ("domain_a", "domain_c"),
            ("domain_b", "domain_a"),
            ("domain_b", "domain_c"),
            ("domain_c", "domain_a"),
            ("domain_c", "domain_b"),
        ]

    def test_rows_internally_consistent(self, transfer_table):
        for row in transfer_table:
            assert 0.0 <= row.accuracy <= 1.0
            assert row.input_risk >= 0.0
            assert row.output_risk >= 0.0

    def test_risk_anticorrelates_with_accuracy(self, transfer_table):
        combiner = PolynomialCombiner(0.31, 0.92, 2)
        rho = rank_correlation(
            [r.accuracy for r in transfer_table],
            [combine(combiner, r.input_risk, r.output_risk) for r in transfer_table],
        )
        assert rho <= -0.5

    def test_identical_domains_have_zero_input_risk_and_top_accuracy(self):
        domains = make_synthetic_domains(2, samples_per_domain=160)
        from dataclasses import replace as dc_replace

        clone = dc_replace(domains[0], name="domain_a_clone")
        table = evaluate_risk_accuracy_pairs([domains[0], clone, domains[2]])
        twins = [r for r in table if {"domain_a", "domain_a_clone"} == {r.source, r.target}]
        others = [r for r in table if r not in twins]
        assert all(r.input_risk <= 1e-9 for r in twins)
        assert max(r.accuracy for r in twins) == max(r.accuracy for r in table)
        assert min(r.accuracy for r in twins) >= max(r.accuracy for r in others) - 0.02

    def test_validation(self):
        domains = make_synthetic_domains(3, samples_per_domain=60)
        with pytest.raises(ValueError, match="domains"):
            evaluate_risk_accuracy_pairs(domains[:1])

    @staticmethod
    def blob_domain(name, center, rng, padded=False):
        """A 1-D two-class domain of 200 points, halved into train and held-out.

        `padded` appends to each half a zero-weight copy of its rows with the
        labels flipped, as a weighted dataset may hold.
        """
        halves = []
        for _ in range(2):
            labels = rng.integers(0, 2, 100)
            points = (center + 1.5 * labels + 0.6 * rng.normal(size=100))[:, None]
            weights = uniform_weights(100)
            if padded:
                points = np.concatenate([points, points])
                labels = np.concatenate([labels, 1 - labels])
                weights = np.concatenate([weights, np.zeros(100)])
            halves.append((EmpiricalDistribution(points, weights), labels))
        (train, train_labels), (held_out, held_out_labels) = halves
        return SyntheticDomain(name, train, train_labels, held_out, held_out_labels, classes=2)

    def test_zero_weight_target_rows_change_nothing(self):
        # Every law of the target, not only its input cloud, carries the
        # target's weights: rows of weight 0 train and score nothing.
        source = self.blob_domain("a", 0.0, np.random.default_rng(0))
        plain, padded = (
            self.blob_domain("b", 0.4, np.random.default_rng(1), padded=flag)
            for flag in (False, True)
        )
        rows = evaluate_risk_accuracy_pairs([source, plain])
        padded_rows = evaluate_risk_accuracy_pairs([source, padded])
        assert len(rows) == len(padded_rows) == 2
        for row, padded_row in zip(rows, padded_rows):
            assert (row.source, row.target) == (padded_row.source, padded_row.target)
            for field in ("accuracy", "input_risk", "output_risk"):
                assert getattr(padded_row, field) == pytest.approx(
                    getattr(row, field), rel=1e-12, abs=0.0
                ), (row.source, row.target, field)


class TestPairFits:
    """Which heads `evaluate_risk_accuracy_pairs` trains, with which seeds."""

    @pytest.mark.parametrize("n_domains", [3, 4])
    def test_one_source_head_per_domain(self, monkeypatch, n_domains):
        domains = make_synthetic_domains(1, n_domains=n_domains, samples_per_domain=48)
        sources = {id(d.train): d.name for d in domains}
        fits, map_seeds, used = [], [], {}

        class Recorded:
            """A fitted source model that logs each read under its source's name."""

            def __init__(self, model, name):
                self.model, self.name = model, name

            def __call__(self, points):
                used.setdefault(self.name, []).append(self)
                return self.model(points)

        def fit(family, features, *args):
            accuracy, model, trace = train_classifier(family, features, *args)
            cfg = args[-1]
            if id(features) in sources:
                fits.append(("source", cfg.seed))
                return accuracy, Recorded(model, sources[id(features)]), trace
            fits.append(("target", cfg.seed))
            return accuracy, model, trace

        def descend(family, law_zt, proxy, p, cfg):
            map_seeds.append(cfg.seed)
            return minimize_output_risk(family, law_zt, proxy, p, cfg)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        monkeypatch.setattr(finetune, "minimize_output_risk", descend)
        rows = evaluate_risk_accuracy_pairs(
            domains,
            TrainConfig(epochs=2, seed=20),
            TrainConfig(epochs=5, seed=10),
        )
        n_pairs = n_domains * (n_domains - 1)
        assert len(rows) == n_pairs
        assert len(fits) == n_domains + n_pairs
        expected, pair = [], 0
        for k in range(n_domains):
            expected.append(("source", 10 + k))
            for _ in range(n_domains - 1):
                expected.append(("target", 10 + pair))
                pair += 1
        assert fits == expected
        assert map_seeds == [20 + i for i in range(n_pairs)]
        # Each source's model is the one fit, read by every pair of that source.
        assert sorted(used) == sorted(sources.values())
        assert all(len({id(m) for m in models}) == 1 for models in used.values())

    @pytest.mark.parametrize("n_domains", [3, 4])
    def test_one_input_risk_per_unordered_pair(self, monkeypatch, n_domains):
        domains = make_synthetic_domains(1, n_domains=n_domains, samples_per_domain=48)
        names = {id(d.train): d.name for d in domains}
        solves = []

        def solve(law_xt, law_xs, metric, cfg):
            solves.append((names[id(law_xt)], names[id(law_xs)]))
            return input_risk(law_xt, law_xs, metric, cfg)

        monkeypatch.setattr(finetune, "input_risk", solve)
        rows = evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=2), TrainConfig(epochs=3))
        # Each unordered pair is solved at its first ordered pair, in pair order.
        firsts, seen = [], set()
        for row in rows:
            if frozenset((row.source, row.target)) not in seen:
                seen.add(frozenset((row.source, row.target)))
                firsts.append((row.target, row.source))
        assert solves == firsts
        assert len(solves) == n_domains * (n_domains - 1) // 2
        by_pair = {(r.source, r.target): r.input_risk for r in rows}
        assert all(by_pair[s, t] == by_pair[t, s] for s, t in by_pair)

    def test_reused_reverse_risk_is_within_ulps_of_its_own_solve(self):
        # The assignment route may land a different optimal plan in each
        # direction, so a direct reverse solve can differ in its last bits.
        domains = make_synthetic_domains(0, samples_per_domain=80)
        rows = evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1), TrainConfig(epochs=1))
        by_name = {d.name: d for d in domains}
        for row in rows:
            direct = input_risk(by_name[row.target].train, by_name[row.source].train)
            assert row.input_risk == pytest.approx(direct, rel=1e-14, abs=0.0)

    def test_solver_failure_surfaces_at_the_first_pair(self, monkeypatch):
        domains = make_synthetic_domains(1, samples_per_domain=48)
        names = {id(d.train): d.name for d in domains}
        pairs = []

        def fit(family, features, labels, *args):
            pairs.append(family.in_dim)
            return train_classifier(family, features, labels, *args)

        def fail_on_b_c(law_xt, law_xs, metric, cfg):
            if {names[id(law_xt)], names[id(law_xs)]} == {"domain_b", "domain_c"}:
                raise RuntimeError("solver failed")
            return input_risk(law_xt, law_xs, metric, cfg)

        monkeypatch.setattr(finetune, "input_risk", fail_on_b_c)
        monkeypatch.setattr(finetune, "train_classifier", fit)
        with pytest.raises(RuntimeError, match="solver failed"):
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1), TrainConfig(epochs=1))
        # Heads of a->b, a->c and b->a trained; b->c failed before its target head.
        assert pairs == [2, 3, 3, 2, 3]

    def test_divergence_names_the_head_and_keeps_the_trace(self):
        domains = make_synthetic_domains(3, samples_per_domain=24)
        with (
            np.errstate(over="ignore", invalid="ignore"),
            pytest.raises(TrainingDivergedError) as caught,
        ):
            evaluate_risk_accuracy_pairs(
                domains,
                TrainConfig(learning_rate=0.5, seed=3),
                TrainConfig(epochs=100, learning_rate=1e308, seed=3),
            )
        assert str(caught.value) == "source head of domain_a: loss became nan at epoch 1"
        assert caught.value.trace.epochs_run == 1
        assert isinstance(caught.value.__cause__, TrainingDivergedError)


def force_workers(monkeypatch, workers):
    """Run `evaluate_risk_accuracy_pairs` on `workers` processes, whatever its domains."""
    monkeypatch.setattr(finetune, "_fit_workers", lambda domains, ot: workers)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def line_domains(n, classes=4, names="abc"):
    """1-D domains of n training and n held-out points, `classes` labels each."""
    rng = np.random.default_rng(n)

    def half():
        labels = rng.integers(0, classes, n)
        points = (labels + 0.5 * rng.normal(size=n))[:, None]
        return EmpiricalDistribution(points, uniform_weights(n)), labels

    return [SyntheticDomain(name, *half(), *half(), classes=classes) for name in names]


class TestConcurrentFits:
    """`evaluate_risk_accuracy_pairs` on several processes is its one-process run."""

    @pytest.mark.parametrize("n_domains", [2, 3, 4, 5])
    def test_two_workers_give_the_one_worker_rows(self, monkeypatch, n_domains):
        domains = make_synthetic_domains(5, n_domains=n_domains, samples_per_domain=120)
        cfgs = (TrainConfig(epochs=4, learning_rate=0.5), TrainConfig(epochs=30))
        rows = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            rows[workers] = evaluate_risk_accuracy_pairs(domains, *cfgs)
        assert rows[2] == rows[1]
        assert_no_child_left()

    def test_the_crossover_gives_the_one_worker_rows(self, monkeypatch):
        # Unforced: 1-D domains on a two-CPU mask run on two processes once
        # the crossover is met.
        domains = line_domains(60)
        cfgs = (TrainConfig(epochs=4, learning_rate=0.5), TrainConfig(epochs=20))
        with monkeypatch.context() as patch:
            force_workers(patch, 1)
            serial = evaluate_risk_accuracy_pairs(domains, *cfgs)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 60)
        assert finetune._fit_workers(domains, OtConfig()) == 2
        assert evaluate_risk_accuracy_pairs(domains, *cfgs) == serial

    def test_source_heads_train_side_by_side(self, monkeypatch, tmp_path):
        # Each source head logs the process it trains in: the first block's
        # in this one, the second block's in one child.
        domains = make_synthetic_domains(1, n_domains=4, samples_per_domain=48)
        sources = {id(d.train): d.name for d in domains}
        log = tmp_path / "heads"

        def fit(family, features, *args):
            if id(features) in sources:
                with open(log, "a") as out:
                    out.write(f"{sources[id(features)]} {os.getpid()}\n")
            return train_classifier(family, features, *args)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        force_workers(monkeypatch, 2)
        cfgs = (TrainConfig(epochs=1), TrainConfig(epochs=2))
        rows = evaluate_risk_accuracy_pairs(domains, *cfgs)
        pids = dict(line.split() for line in log.read_text().splitlines())
        assert sorted(pids) == ["domain_a", "domain_b", "domain_c", "domain_d"]
        assert pids["domain_a"] == pids["domain_b"] == str(os.getpid())
        assert pids["domain_c"] == pids["domain_d"] != str(os.getpid())
        monkeypatch.undo()
        assert rows == evaluate_risk_accuracy_pairs(domains, *cfgs)
        assert_no_child_left()

    def test_the_first_failure_in_pair_order_wins(self, monkeypatch, tmp_path):
        # a->b's target head, in this process's block, fails only after
        # domain_c's source head, later in pair order, has failed in the child.
        domains = make_synthetic_domains(1, samples_per_domain=48)
        child_failed = tmp_path / "child_failed"
        waited = []

        def fit(family, features, labels, *args):
            if features is domains[2].train:
                child_failed.touch()
                raise ValueError("source head of domain_c failed")
            if family.in_dim == family.classes and args[-1].seed == 0:  # a->b's target head
                deadline = time.monotonic() + 30
                while not child_failed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                waited.append(child_failed.exists())
                raise ValueError("target head of a->b failed")
            return train_classifier(family, features, labels, *args)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        force_workers(monkeypatch, 2)
        with pytest.raises(ValueError, match="target head of a->b failed"):
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1), TrainConfig(epochs=1))
        assert waited == [True]
        assert_no_child_left()

    def test_a_child_block_divergence_comes_back_with_its_trace(self, monkeypatch):
        # Only domain_c's source head diverges, in the child's block; its
        # error crosses the pipe with the message and trace of one process.
        domains = make_synthetic_domains(3, samples_per_domain=24)

        def fit(family, features, labels, eval_features, eval_labels, cfg):
            if features is domains[2].train:
                cfg = replace(cfg, learning_rate=1e308)
            return train_classifier(family, features, labels, eval_features, eval_labels, cfg)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        errors = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with (
                np.errstate(over="ignore", invalid="ignore"),
                pytest.raises(TrainingDivergedError) as caught,
            ):
                evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=2), TrainConfig(epochs=5))
            errors.append(caught.value)
        serial, forked = errors
        assert str(forked) == str(serial) == "source head of domain_c: loss became nan at epoch 1"
        assert forked.trace.objectives == serial.trace.objectives
        assert np.array_equal(forked.trace.parameters, serial.trace.parameters)
        assert_no_child_left()

    def test_divergence_on_two_workers_is_the_one_worker_error(self, monkeypatch):
        # Every source head diverges; the first one's error is raised, with
        # its trace, and numpy's overflow stays silent in the child too (a
        # warning would fail this test under the suite's filter).
        domains = make_synthetic_domains(3, samples_per_domain=24)
        cfgs = (TrainConfig(learning_rate=0.5, seed=3),
                TrainConfig(epochs=100, learning_rate=1e308, seed=3))
        errors = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with (
                np.errstate(over="ignore", invalid="ignore"),
                pytest.raises(TrainingDivergedError) as caught,
            ):
                evaluate_risk_accuracy_pairs(domains, *cfgs)
            errors.append(caught.value)
        serial, concurrent = errors
        assert str(concurrent) == str(serial) == (
            "source head of domain_a: loss became nan at epoch 1"
        )
        assert concurrent.trace.objectives == serial.trace.objectives
        assert np.array_equal(concurrent.trace.parameters, serial.trace.parameters)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_failure_here_kills_the_child(self, monkeypatch, error):
        # The child's block would run for a minute; this process's first
        # head fails at once, and the run ends with the child reaped.
        domains = make_synthetic_domains(1, samples_per_domain=48)
        parent = os.getpid()

        def fit(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise error("source head of domain_a failed")

        monkeypatch.setattr(finetune, "train_classifier", fit)
        force_workers(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(error, match="domain_a failed"):
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1), TrainConfig(epochs=1))
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_a_killed_parent_takes_its_child_with_it(self, tmp_path):
        # A parent killed outright reaps nothing; the kernel kills its fit
        # process, which would otherwise sleep on for a minute.
        child_pid = tmp_path / "child_pid"
        script = (
            "import os, sys, time\n"
            "from trk import finetune\n"
            "parent = os.getpid()\n"
            "def fit(*args):\n"
            "    if os.getpid() != parent:\n"
            "        with open(sys.argv[1] + '.tmp', 'w') as out:\n"
            "            out.write(str(os.getpid()))\n"
            "        os.rename(sys.argv[1] + '.tmp', sys.argv[1])\n"
            "    time.sleep(60)\n"
            "finetune.train_classifier = fit\n"
            "finetune._fit_workers = lambda domains, ot: 2\n"
            "finetune.evaluate_risk_accuracy_pairs(\n"
            "    finetune.make_synthetic_domains(1, samples_per_domain=48))\n"
        )
        src = str(Path(finetune.__file__).resolve().parents[1])
        parent = subprocess.Popen(
            [sys.executable, "-c", script, str(child_pid)], env=dict(os.environ, PYTHONPATH=src)
        )
        try:
            deadline = time.monotonic() + 30
            while not child_pid.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert child_pid.exists()
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
        stat = Path(f"/proc/{child_pid.read_text()}/stat")
        deadline = time.monotonic() + 10
        # Gone, or a zombie its new parent has not reaped yet.
        while stat.exists() and time.monotonic() < deadline:
            try:
                if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                    break
            except FileNotFoundError:
                break
            time.sleep(0.01)
        else:
            assert not stat.exists()

    def test_a_child_that_ends_without_a_result_is_named(self, monkeypatch):
        domains = make_synthetic_domains(1, n_domains=4, samples_per_domain=48)
        parent = os.getpid()

        def fit(*args):
            if os.getpid() != parent:
                os._exit(3)
            return train_classifier(*args)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        force_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError) as caught:
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1), TrainConfig(epochs=1))
        assert str(caught.value) == (
            "the fit process for source domains domain_c, domain_d ended without a result "
            "(exit code 3)"
        )
        assert_no_child_left()

    def test_an_error_that_does_not_unpickle_comes_back_by_name(self, monkeypatch):
        # SinkhornConvergenceError rebuilds from its message alone and fails
        # to; the child sends a RuntimeError with its type and message.
        domains = make_synthetic_domains(1, n_domains=4, samples_per_domain=48)
        parent = os.getpid()

        def solve(*args):
            if os.getpid() != parent:
                raise SinkhornConvergenceError(1e-3, 7)
            return input_risk(*args)

        monkeypatch.setattr(finetune, "input_risk", solve)
        force_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError) as caught:
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1), TrainConfig(epochs=1))
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == f"SinkhornConvergenceError: {SinkhornConvergenceError(1e-3, 7)}"
        assert_no_child_left()

    def test_workers_follow_the_cpus_the_crossover_and_the_budget(self, monkeypatch):
        domains, ot = line_domains(20, classes=3), OtConfig()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert finetune._fit_workers(domains, ot) == 1  # below the crossover
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 20)
        assert finetune._fit_workers(domains, ot) == 2  # the measured cap, not 3 CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert finetune._fit_workers(domains, ot) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert finetune._fit_workers(domains, ot) == 2
        head = finetune._head_bytes(20, 3)
        assert head == 8 * (4 * 20 * 3 + 3 * 4)
        for budget, workers in ((2 * head, 2), (2 * head - 1, 1), (head, 1), (head - 1, 1)):
            monkeypatch.setattr(finetune, "_HEAD_BUDGET_BYTES", budget)
            assert finetune._fit_workers(domains, ot) == workers  # the pipeline refuses head - 1

    def test_only_one_dimensional_quantile_sweeps_run_at_once(self, monkeypatch):
        # Any other input risk builds a dense matrix that DENSE_BUDGET_BYTES
        # bounds one solve at a time, so those runs keep one worker.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 0)
        line, plane = line_domains(20), make_synthetic_domains(0, samples_per_domain=40)
        assert finetune._fit_workers(line, OtConfig()) == 2
        assert finetune._fit_workers(line, OtConfig(method="sinkhorn")) == 1
        assert finetune._fit_workers(plane, OtConfig()) == 1
        assert finetune._fit_workers(line[:2] + plane[:1], OtConfig()) == 1

    def test_only_a_one_thread_linux_process_forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 0)
        domains = line_domains(20)
        assert finetune._fit_workers(domains, OtConfig()) == 2
        with monkeypatch.context() as patch:
            patch.setattr(sys, "platform", "darwin")
            assert finetune._fit_workers(domains, OtConfig()) == 1
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert finetune._fit_workers(domains, OtConfig()) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert finetune._fit_workers(domains, OtConfig()) == 1
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert finetune._fit_workers(domains, OtConfig()) == 2

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # One worker runs the serial schedule in the calling thread: it
        # neither starts a thread nor forks.
        started = []

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        monkeypatch.setattr(os, "fork", no_fork)
        rows = evaluate_risk_accuracy_pairs(
            make_synthetic_domains(0, samples_per_domain=40),
            TrainConfig(epochs=1), TrainConfig(epochs=1),
        )
        assert len(rows) == 6
        assert started == []


class TestWassersteinHeuristicBound:
    def test_triangle_style_bound_on_closed_forms(self):
        # The proxy objective is sound because matching the label law also
        # controls the distance between the two prediction laws.
        p = 2.0
        for seed in range(100):
            source, target = random_basic_pair(int(seed % 3) + 1, seed=1500 + seed)
            p_st, p_t = predictive_laws(source, target)
            law_y = Gaussian1D(
                float(target.mean_y[0]), float(target.cov_yy[0, 0])
            )
            lhs = 2.0 ** (p - 1.0) * (
                gaussian_w2(p_st, law_y) + gaussian_w2(p_t, law_y)
            )
            rhs = gaussian_w2(p_st, p_t)
            assert lhs >= rhs - 1e-12
