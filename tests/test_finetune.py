"""Tests for output-risk descent and classifier-head training."""

import ast
import itertools
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
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    fit_multinomial_logistic_newton,
    fit_regularized_softmax_head,
    quantile_wp_1d,
    regularized_softmax_loss,
    softmax_cross_entropy,
)
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


HEAD_ROUTES = {"exact": sys.maxsize, "newton_cg": 0}


@pytest.fixture(params=list(HEAD_ROUTES))
def head_route(request):
    """Every head of the test on one Newton route, by the exact steps' parameter cap.

    Patched apart from the test's own `monkeypatch`, whose `undo` keeps it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finetune, "_DENSE_STEP_MAX_PARAMS", HEAD_ROUTES[request.param])
        yield request.param


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 10
        assert cfg.learning_rate == 0.05

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"epochs": 0}, "epochs must be >= 1, got 0"),
            ({"learning_rate": 0.0}, "learning_rate must be positive, got 0.0"),
            ({"learning_rate": -1.0}, "learning_rate must be positive, got -1.0"),
            # A single comparison once let these through.
            ({"learning_rate": np.nan}, "learning_rate must be positive, got nan"),
            ({"learning_rate": np.inf}, "learning_rate must be positive, got inf"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError) as caught:
            TrainConfig(**kwargs)
        assert str(caught.value) == message


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


def head_probabilities(family, params, points):
    """`_class_probabilities` of a head at (n, in_dim) points, as an (n, classes) view."""
    return finetune._class_probabilities(family.build(params), np.ascontiguousarray(points.T)).T


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
    """`cross_entropy_objective` and `_class_probabilities` against the axis-1 oracle."""

    @pytest.mark.parametrize("classes", range(2, 8))
    def test_bit_equal_below_eight_classes(self, classes):
        # The value and the probabilities are bit-equal.  The kernel's
        # gradient sums over the points in (classes, n) layout, an order the
        # oracle's (n, classes) products do not keep, so it is held to the
        # bound the tests from eight classes use.
        for family, params, points, labels, weights in softmax_instances(classes, classes):
            value, grad = cross_entropy_objective(family, params, points, labels, weights)
            probs = head_probabilities(family, params, points)
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
            probs = head_probabilities(family, params, points)
            ref_value, ref_grad, ref_probs = oracle_objective(
                family, params, points, labels, weights
            )
            assert value == pytest.approx(ref_value, rel=1e-14)
            assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()
            np.testing.assert_allclose(probs, ref_probs, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("in_dim", range(15, 21))
    def test_representation_within_the_logit_rounding_bound_from_in_dim_15(self, in_dim):
        # From in_dim 15 OpenBLAS may round the (classes, n) product of the
        # contiguous points otherwise than the oracle's (n, classes) one, so
        # the probabilities are held to a bound derived from the rounding,
        # with u = eps / 2 and, per point, S = max_c (|W| @ |x| + |b|)_c:
        # - a logit is an inner product of in_dim terms plus the bias, so in
        #   any summation order each route is within (in_dim + 1) u S of the
        #   exact one to first order (Higham 2002, sec. 3.1), and the two
        #   routes' logits are within delta = 2 (in_dim + 1) u S;
        # - the softmax moves p_c by at most p_c * 2 delta for logits moved
        #   by delta, since dp_c = p_c (dz_c - sum_j p_j dz_j);
        # - each route then rounds its shifted logits (u |z - max z| <= 2 u S,
        #   on the numerator and on the normalizer's terms), its exp (at most
        #   4 u on each, 2 ulps), its normalizer's classes - 1 additions and
        #   the division: p_c (4 u S + 8 u + classes u) per route.
        # In all, p_ref * eps * ((2 in_dim + 6) S + classes + 8).  Below
        # the smallest normal number exp keeps no relative precision, so
        # the bound adds that number as an absolute term.
        rng = np.random.default_rng(in_dim)
        n = 64
        for classes, scale in itertools.product((2, 5, 12, 32), (1.0, 300.0)):
            family = SoftmaxHeadFamily(in_dim, classes)
            params = scale * rng.normal(size=family.parameter_count())
            points = rng.normal(size=(n, in_dim))
            probs = head_probabilities(family, params, points)
            _, _, ref_probs = oracle_objective(
                family, params, points, np.zeros(n, dtype=int), uniform_weights(n)
            )
            weights, bias = family.unpack(params)
            scales = (np.abs(points) @ np.abs(weights).T + np.abs(bias)).max(axis=1, keepdims=True)
            eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
            bound = ref_probs * eps * ((2 * in_dim + 6) * scales + classes + 8) + tiny
            assert np.all(np.abs(probs - ref_probs) <= bound)

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
        # At in_dim 1 `_class_logits` forms each product alone; a k = 1
        # matrix product rounds each entry once as well, so every read of a
        # head is bit-equal to the matmul route, zeros and saturated logits
        # included.
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
        reads = [
            lambda: cross_entropy_objective(*args),
            lambda: head_probabilities(family, params, points),
            lambda: family.predict(params, points),
        ]
        (value, grad), probs, predicted = [read() for read in reads]
        # `_class_logits`'s one np.multiply forms the logits; routed through
        # np.matmul it is the k = 1 matrix product.
        monkeypatch.setattr(np, "multiply", lambda a, b, out: np.matmul(a, b, out=out))
        (ref_value, ref_grad), ref_probs, ref_predicted = [read() for read in reads]
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()
        assert probs.tobytes() == ref_probs.tobytes()
        assert predicted.tobytes() == ref_predicted.tobytes()

    @pytest.mark.parametrize("in_dim", [1, 4])
    def test_one_exponential_per_call(self, monkeypatch, in_dim):
        # The value and the gradient read one exponential of the shifted
        # logits; the oracle's second one, of the log probabilities, is
        # not taken.
        n, classes = 1000, 4
        rng = np.random.default_rng(20 + in_dim)
        family = SoftmaxHeadFamily(in_dim, classes)
        params = rng.normal(size=family.parameter_count())
        points = rng.normal(size=(n, in_dim))
        labels = rng.integers(0, classes, size=n)
        calls = []
        exp = np.exp

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        cross_entropy_objective(family, params, points, labels, uniform_weights(n))
        assert calls == [(classes, n)]

    @pytest.mark.parametrize("in_dim", [1, 4])
    def test_peak_memory_is_few_class_arrays(self, in_dim):
        # Each (n, classes) temporary costs n * classes * 8 bytes; the kernel
        # keeps one such array alive plus a few length-n vectors.
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

    def test_a_fit_stays_within_its_head_bytes(self):
        # The whole fit: operands, every Newton step's kernel, exact
        # Hessians and their solves or Hessian products and conjugate
        # gradients, and the held-out prediction, on as many held-out
        # points as training points.  The count is a bound and no more: at
        # most a quarter above the measured peak.  The grid holds heads on
        # both sides of the exact steps' parameter cap, up to 8 classes on
        # 2 inputs below it and from 16 classes on 1 input above; the next
        # two heads sit at the cap with most class pairs and most feature
        # pairs.  The last two hold more parameters than points: 100
        # classes on 200 points and 300 inputs on 400.
        shapes = [(10_000, classes, in_dim) for classes, in_dim in itertools.product(
            (2, 3, 4, 8, 16), (1, 2, 4, 16)
        )]
        cap = finetune._DENSE_STEP_MAX_PARAMS
        at_cap = [(1000, 15, 1), (1000, 2, 14)]
        assert all(classes * (in_dim + 1) == cap for _, classes, in_dim in at_cap)
        for n, classes, in_dim in shapes + at_cap + [(200, 100, 100), (400, 10, 300)]:
            rng = np.random.default_rng(classes * in_dim)
            family = SoftmaxHeadFamily(in_dim, classes)
            labels = np.arange(n) % classes
            centers = 2.0 * rng.normal(size=(classes, in_dim))[labels]
            clouds = [
                EmpiricalDistribution.from_points(centers + rng.normal(size=(n, in_dim)))
                for _ in "ab"
            ]
            args = (family, clouds[0], labels, clouds[1], labels)
            train_classifier(*args)
            tracemalloc.start()
            try:
                train_classifier(*args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            counted = finetune._head_bytes(n, classes, in_dim)
            assert peak <= counted <= 1.25 * peak, (n, classes, in_dim)

    def test_a_prediction_holds_one_class_array(self):
        # The held-out logits are the one (classes, n) array, beside an
        # 8192-element block, numpy's ufunc buffer (their bias is added by
        # broadcast) or the argmax's copy of a block of columns, and a few
        # vectors of n: 1.4 class arrays here, where the class-axis
        # argmax's copy of the whole array peaked at 2.0.
        n, classes = 200, 100
        rng = np.random.default_rng(41)
        family = SoftmaxHeadFamily(classes, classes)
        params = rng.normal(size=family.parameter_count())
        points = rng.normal(size=(n, classes))
        weights, bias = family.unpack(params)
        expected = np.argmax(points @ weights.T + bias, axis=1)
        family.predict(params, points)
        tracemalloc.start()
        try:
            predicted = family.predict(params, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * classes + 8192 + 4 * n)
        np.testing.assert_array_equal(predicted, expected)

    @pytest.mark.parametrize("classes, n", [(3, 5), (7, 5000), (100, 200), (9000, 3)])
    def test_class_argmax_is_numpys_over_any_blocks(self, classes, n):
        # Ties and NaN as numpy has them: the first largest, or the first NaN.
        rng = np.random.default_rng(classes)
        values = rng.integers(0, 3, size=(classes, n)).astype(float)
        values[rng.integers(0, classes, size=n // 2), rng.integers(0, n, size=n // 2)] = np.nan
        np.testing.assert_array_equal(finetune._class_argmax(values), np.argmax(values, axis=0))


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

    def test_keeps_the_iterate_after_the_last_step(self):
        # One epoch evaluates only the start; the map returned is the one
        # after the step, which only the evaluation after the loop sees.
        law_zt, proxy = self.setup_instance()
        family, cfg = AffineMapFamily(1, 1), TrainConfig(epochs=1, learning_rate=0.3)
        risk, _, trace = minimize_output_risk(family, law_zt, proxy, cfg=cfg)
        assert len(trace.objectives) == 1
        assert risk < trace.objectives[0]
        start = family.init_parameters(np.random.default_rng(cfg.seed))
        _, grad = transport_objective(family, start, law_zt.points, law_zt.weights, proxy)
        assert trace.parameters.tobytes() == (start - cfg.learning_rate * grad).tobytes()

    def test_every_strict_improvement_counts_and_the_budget_is_run(self, monkeypatch):
        # Each step improves by far less than 1e-9: the descent still runs
        # its whole budget, and the loop keeps the last epoch's iterate, the
        # strictly lowest, which shows once the evaluation after the loop
        # reads NaN.
        law_zt, proxy = self.setup_instance()
        cfg = TrainConfig(epochs=20, learning_rate=1e-12)
        args = (AffineMapFamily(1, 1), law_zt, proxy, 1.0, cfg)
        risk, _, trace = minimize_output_risk(*args)
        assert trace.epochs_run == 20
        assert risk < trace.objectives[-1] < trace.objectives[0]
        assert trace.objectives[0] - trace.objectives[1] < 1e-9
        calls = []

        def nan_after_the_loop(*call, **kwargs):
            calls.append(None)
            value, grad = transport_objective(*call, **kwargs)
            return (np.nan if len(calls) > 20 else value), grad

        monkeypatch.setattr(finetune, "transport_objective", nan_after_the_loop)
        risk, _, trace = minimize_output_risk(*args)
        assert len(calls) == 21
        assert risk == trace.objectives[-1] < trace.objectives[0]

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
        plane = EmpiricalDistribution.from_points(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="proxy dimension 2 != family output dimension 1"):
            minimize_output_risk(AffineMapFamily(1, 1), law_zt, plane)
        # A map that is not scalar is refused before the laws are read.
        for zt, yt_proxy in ((law_zt, proxy), (plane, plane)):
            with pytest.raises(ValueError, match="scalar, got output dimension 2"):
                minimize_output_risk(AffineMapFamily(zt.dim, 2), zt, yt_proxy)


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
        # Labels of another dtype are refused by name before any indexing;
        # float ones once surfaced as a raw IndexError, and 1.5 lies inside
        # the class range.
        good = np.array([0, 1] * 5)
        for bad in ([0.0, 1.0] * 5, [0, 1.5] * 5, [True, False] * 5):
            with pytest.raises(ValueError, match=r"^labels must be integers, got dtype"):
                train_classifier(SoftmaxHeadFamily(2, 2), dist, np.array(bad), dist, good)
            with pytest.raises(ValueError, match=r"^eval_labels must be integers, got dtype"):
                train_classifier(SoftmaxHeadFamily(2, 2), dist, good, dist, np.array(bad))

    @staticmethod
    def head_instances():
        """Weighted heads from separable to overlapping, zero weights included.

        Yields (family, training cloud, labels); the 1-D 4-class and the
        4-D 4-class ones have the empirical benchmark's source and target
        head shapes.
        """
        for seed, (n, in_dim, classes, gap) in enumerate(
            [(100, 2, 2, 8.0), (300, 2, 3, 1.0), (2000, 1, 4, 1.5), (2000, 4, 4, 1.0),
             (400, 3, 5, 0.3), (50, 6, 8, 2.0)]
        ):
            rng = np.random.default_rng(30 + seed)
            labels = np.arange(n) % classes
            points = gap * rng.normal(size=(classes, in_dim))[labels] + rng.normal(size=(n, in_dim))
            weights = rng.random(n)
            weights[::5] = 0.0
            cloud = EmpiricalDistribution(points, weights / weights.sum())
            yield SoftmaxHeadFamily(in_dim, classes), cloud, labels

    @staticmethod
    def flat(model):
        """A head's parameters in the oracle's layout: each class's weights, then its bias."""
        return np.concatenate([model.weights, model.bias[:, None]], axis=1).ravel()

    def test_is_the_regularized_loss_minimizer(self):
        # The oracle runs L-BFGS, which forms no Hessian, until every
        # gradient entry is below 1e-8.  Both stop rules bound the distance
        # to the minimizer, which the loss curves by at least _HEAD_L2 in
        # every direction: Newton's stop by sqrt(2 tol / l2), since half
        # the decrement g H^-1 g is below tol, and the oracle's by
        # |g| / l2.  The gradient at the head is held to the stop rule's
        # own bound, |g|^2 <= 2 tol lambda_max(H), with lambda_max(H) at
        # most the weighted mean of |x~|^2 plus l2.
        l2, tol, gtol = finetune._HEAD_L2, finetune._NEWTON_TOL, 1e-8
        for family, cloud, labels in self.head_instances():
            _, model, trace = train_classifier(family, cloud, labels, cloud, labels)
            args = (cloud.points, labels, cloud.weights, family.classes, l2)
            weights, bias = fit_regularized_softmax_head(*args, gtol=gtol)
            reference = np.concatenate([weights, bias[:, None]], axis=1).ravel()
            head = self.flat(model)
            bound = np.sqrt(2.0 * tol / l2) + np.sqrt(head.size) * gtol / l2
            assert np.linalg.norm(head - reference) <= bound, family.classes
            value, grad = regularized_softmax_loss(head, *args)
            curvature = cloud.weights @ (1.0 + np.sum(cloud.points**2, axis=1)) + l2
            assert grad @ grad <= 2.0 * tol * curvature, family.classes
            assert value == pytest.approx(trace.objectives[-1], rel=1e-13)
            assert all(step < 0.0 for step in np.diff(trace.objectives))

    def test_hessian_products_are_the_gradient_derivative(self):
        # Central differences of the regularized gradient, in `unpack`'s
        # parameter order, against the Hessian's product with each unit
        # vector and against its diagonal.
        l2, step = finetune._HEAD_L2, 1e-6
        rng = np.random.default_rng(40)
        for in_dim, classes in ((1, 2), (1, 4), (3, 3), (4, 4), (2, 6)):
            family = SoftmaxHeadFamily(in_dim, classes)
            points = rng.normal(size=(50, in_dim))
            labels = rng.integers(0, classes, size=50)
            weights = rng.random(50)
            weights /= weights.sum()
            params = rng.normal(size=family.parameter_count())
            points_t, _ = finetune._head_operands(points, labels)
            product, diagonal = finetune._head_curvature(family, params, points_t, weights)

            def gradient(at):
                return cross_entropy_objective(family, at, points, labels, weights)[1] + l2 * at

            units = np.eye(params.size)
            columns = np.array([
                (gradient(params + step * unit) - gradient(params - step * unit)) / (2 * step)
                for unit in units
            ]).T
            products = np.array([product(unit) for unit in units]).T
            np.testing.assert_allclose(products, columns, rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(diagonal, np.diag(columns), rtol=0.0, atol=1e-8)

    def test_the_exact_hessian_is_the_gradient_derivative_on_the_sum_zero_subspace(self):
        # Central differences of the regularized gradient give the full
        # Hessian in `unpack`'s order; restricted to the parameters
        # T[:, k] (x) e_j, for T the sum-zero basis and j over the
        # features then the bias, it is `_head_hessian`.
        l2, step = finetune._HEAD_L2, 1e-6
        rng = np.random.default_rng(43)
        for in_dim, classes in ((1, 2), (1, 4), (3, 3), (4, 4), (2, 6)):
            family = SoftmaxHeadFamily(in_dim, classes)
            points = rng.normal(size=(50, in_dim))
            labels = rng.integers(0, classes, size=50)
            weights = rng.random(50)
            weights /= weights.sum()
            params = rng.normal(size=family.parameter_count())
            points_t, _ = finetune._head_operands(points, labels)
            operands = finetune._pair_operands(points_t, classes)
            hessian = finetune._head_hessian(family, params, points_t, weights, operands)

            def gradient(at):
                return cross_entropy_objective(family, at, points, labels, weights)[1] + l2 * at

            units = np.eye(params.size)
            full = np.array([
                (gradient(params + step * unit) - gradient(params - step * unit)) / (2 * step)
                for unit in units
            ]).T
            basis = finetune._sum_zero_basis(classes)
            np.testing.assert_allclose(basis.T @ basis, np.eye(classes - 1), atol=1e-15)
            np.testing.assert_allclose(basis.sum(axis=0), 0.0, atol=1e-15)
            embed = np.zeros((params.size, (classes - 1) * (in_dim + 1)))
            for k, j in itertools.product(range(classes - 1), range(in_dim + 1)):
                column = np.zeros((classes, in_dim + 1))
                column[:, j] = basis[:, k]
                embed[:, k * (in_dim + 1) + j] = np.concatenate(
                    [column[:, :in_dim].ravel(), column[:, in_dim]]
                )
            np.testing.assert_allclose(hessian, embed.T @ full @ embed, rtol=0.0, atol=1e-8)

    def test_the_two_routes_reach_one_minimizer(self):
        # Exact steps and Newton-CG on the same heads, below, at and above
        # the exact steps' parameter cap: both stop within sqrt(2 tol / l2)
        # of the minimizer, since the loss curves by at least l2, so they
        # agree to twice that.  They agreed to 1e-6 when measured.
        tol, l2 = finetune._NEWTON_TOL, finetune._HEAD_L2
        heads = list(self.head_instances())
        for n, in_dim, classes in ((2000, 1, 15), (2000, 1, 16), (2000, 14, 2), (2000, 15, 2)):
            rng = np.random.default_rng(n + in_dim + classes)
            labels = np.arange(n) % classes
            points = 1.5 * rng.normal(size=(classes, in_dim))[labels] + rng.normal(size=(n, in_dim))
            heads.append((SoftmaxHeadFamily(in_dim, classes), EmpiricalDistribution.from_points(points),
                          labels))
        cap = finetune._DENSE_STEP_MAX_PARAMS
        sizes = {family.parameter_count() for family, _, _ in heads}
        assert {cap, cap + 2} <= sizes and min(sizes) < cap < max(sizes)
        for family, cloud, labels in heads:
            fits = {}
            for route, route_cap in HEAD_ROUTES.items():
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(finetune, "_DENSE_STEP_MAX_PARAMS", route_cap)
                    fits[route] = self.flat(train_classifier(family, cloud, labels, cloud, labels)[1])
            gap = np.linalg.norm(fits["exact"] - fits["newton_cg"])
            assert gap <= 2.0 * np.sqrt(2.0 * tol / l2), family.parameter_count()

    @pytest.mark.parametrize("classes, in_dim", [(2, 14), (15, 1), (2, 15), (16, 1), (100, 100)])
    def test_the_cap_picks_the_route(self, monkeypatch, classes, in_dim):
        # Heads up to the cap take exact steps and no Hessian product;
        # above it, Newton-CG and no exact Hessian.  A 100-class head on 100
        # inputs, 10 100 parameters, stays on the Hessian products.  Below
        # the cap, a budget that does not hold two exact-step heads puts the
        # head on Newton-CG too.
        routes = []
        hessian, curvature = finetune._head_hessian, finetune._head_curvature

        def exact(*args):
            routes.append("exact")
            return hessian(*args)

        def products(*args):
            routes.append("newton_cg")
            return curvature(*args)

        monkeypatch.setattr(finetune, "_head_hessian", exact)
        monkeypatch.setattr(finetune, "_head_curvature", products)
        n = 200
        rng = np.random.default_rng(classes * in_dim)
        labels = np.arange(n) % classes
        points = 2.0 * rng.normal(size=(classes, in_dim))[labels] + rng.normal(size=(n, in_dim))
        cloud = EmpiricalDistribution.from_points(points)
        family = SoftmaxHeadFamily(in_dim, classes)
        train_classifier(family, cloud, labels, cloud, labels)
        expected = "exact" if family.parameter_count() <= finetune._DENSE_STEP_MAX_PARAMS else "newton_cg"
        assert routes and set(routes) == {expected}
        if expected == "exact":
            routes.clear()
            budget = 2 * finetune._exact_step_bytes(n, classes, in_dim) - 1
            monkeypatch.setattr(finetune, "_HEAD_BUDGET_BYTES", budget)
            train_classifier(family, cloud, labels, cloud, labels)
            assert routes and set(routes) == {"newton_cg"}

    def test_the_row_order_does_not_matter(self):
        # The minimizer depends on the weighted rows alone; a permutation
        # only reorders the sums, so the heads agree to rounding.
        for family, cloud, labels in self.head_instances():
            order = np.random.default_rng(family.classes).permutation(cloud.size)
            shuffled = EmpiricalDistribution(cloud.points[order], cloud.weights[order])
            _, model, _ = train_classifier(family, cloud, labels, cloud, labels)
            _, moved, _ = train_classifier(
                family, shuffled, labels[order], cloud, labels
            )
            np.testing.assert_allclose(self.flat(moved), self.flat(model), rtol=0.0, atol=1e-9)

    def test_each_solve_failure_is_a_divergence(self, monkeypatch, head_route):
        # Features of 1e200 overflow the squared points of the Hessian's
        # diagonal, or its feature products; a Hessian that finds no
        # curvature, as rounding could make one, is refused too: a Hessian
        # product of zero, or an exact Hessian that is zero, indefinite
        # (its Cholesky fails) or holds a non-finite entry.  Each ends at
        # Newton step 0, after the loss at zero is recorded.
        points, labels = separable_blobs(18, n=40)
        family = SoftmaxHeadFamily(2, 2)
        message = "loss Hessian became non-finite or singular at Newton step 0"
        dist = EmpiricalDistribution.from_points(1e200 * points)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as caught:
            train_classifier(family, dist, labels, dist, labels)
        assert str(caught.value) == message
        assert caught.value.trace.objectives == (np.log(2.0),)
        assert caught.value.trace.parameters.tobytes() == np.zeros(6).tobytes()
        dist = EmpiricalDistribution.from_points(points)
        curvature, hessian = finetune._head_curvature, finetune._head_hessian

        def flat(*args):
            product, diagonal = curvature(*args)
            return (lambda direction: 0.0 * product(direction)), diagonal

        def indefinite(*args):
            matrix = hessian(*args)
            matrix[0, 1] = matrix[1, 0] = 2.0 * np.sqrt(matrix[0, 0] * matrix[1, 1])
            return matrix

        def non_finite(*args):
            matrix = hessian(*args)
            matrix[0, -1] = matrix[-1, 0] = np.inf
            return matrix

        broken = (
            [("_head_curvature", flat)] if head_route == "newton_cg"
            else [("_head_hessian", lambda *args: 0.0 * hessian(*args)),
                  ("_head_hessian", indefinite), ("_head_hessian", non_finite)]
        )
        for name, replacement in broken:
            monkeypatch.setattr(finetune, name, replacement)
            with pytest.raises(TrainingDivergedError, match=f"^{message}$") as caught:
                train_classifier(family, dist, labels, dist, labels)
            assert caught.value.trace.objectives == (np.log(2.0),)
            monkeypatch.undo()
        # Each cap ends the solve with the iterate it reached.
        dist = EmpiricalDistribution.from_points(points)
        monkeypatch.setattr(finetune, "_NEWTON_MAX_STEPS", 2)
        with pytest.raises(TrainingDivergedError, match="^loss did not converge in 2 Newton steps$"):
            train_classifier(family, dist, labels, dist, labels)
        monkeypatch.undo()
        objective = finetune.cross_entropy_objective

        def no_decrease(family, params, *args, **kwargs):
            value, grad = objective(family, params, *args, **kwargs)
            return (value if not params.any() else np.nan), grad

        monkeypatch.setattr(finetune, "cross_entropy_objective", no_decrease)
        with pytest.raises(TrainingDivergedError) as caught:
            train_classifier(family, dist, labels, dist, labels)
        assert str(caught.value) == (
            f"line search found no decrease in {finetune._NEWTON_MAX_HALVINGS} halvings "
            "at Newton step 0"
        )
        assert caught.value.trace.objectives == (np.log(2.0),)

    @pytest.mark.parametrize("scale", [1e-6, 1e7, 1e150])
    def test_features_far_from_unit_size_are_solved(self, scale, head_route):
        # Scaling the features by s scales the Hessian's weight block by
        # s^2, and its diagonal scales that away, as the conjugate
        # gradients' preconditioner or before the Cholesky factorization:
        # the head is returned, and its gradient in unit-size coordinates
        # (each weight's entry divided by s) keeps the stop rule's bound
        # |g|^2 <= 2 tol lambda_max.  A fixed L2 weight against unscaled
        # curvature once refused such heads from a scale of a few million.
        tol = finetune._NEWTON_TOL
        for family, cloud, labels in self.head_instances():
            far = EmpiricalDistribution(scale * cloud.points, cloud.weights)
            _, model, trace = train_classifier(family, far, labels, far, labels)
            args = (far.points, labels, far.weights, family.classes, finetune._HEAD_L2)
            _, grad = regularized_softmax_loss(self.flat(model), *args)
            grad = grad.reshape(family.classes, -1)
            grad[:, :-1] /= scale
            curvature = cloud.weights @ (1.0 + np.sum(cloud.points**2, axis=1))
            curvature += finetune._HEAD_L2 / min(scale, 1.0) ** 2
            assert np.sum(grad**2) <= 2.0 * tol * curvature, family.classes
            assert all(step < 0.0 for step in np.diff(trace.objectives))

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
            train_classifier(SoftmaxHeadFamily(2, 2), dist, labels, dist, labels)
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
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    def test_mixed_feature_counts_are_refused_before_any_fit(self, monkeypatch):
        plane = make_synthetic_domains(3, samples_per_domain=60)
        monkeypatch.setattr(finetune, "train_classifier", self.no_fit)
        with pytest.raises(ValueError) as caught:
            evaluate_risk_accuracy_pairs(plane[:2] + line_domains(30, classes=3, names="x"))
        assert str(caught.value) == (
            "all domains must share the feature count: domain_a has 2, domain_b has 2, x has 1"
        )

    def test_a_head_above_the_budget_is_refused_before_any_fit(self, monkeypatch):
        # 2-D 3-class domains of 30 training points: the largest head is a
        # target head on 3 inputs, so the classes name the cause.  A head
        # is refused on Newton-CG: it takes exact steps only where two
        # heads of theirs fit the budget.
        domains = make_synthetic_domains(3, samples_per_domain=60)
        needed = finetune._newton_cg_bytes(30, 3, 3)
        monkeypatch.setattr(finetune, "train_classifier", self.no_fit)
        monkeypatch.setattr(finetune, "_HEAD_BUDGET_BYTES", needed)
        with pytest.raises(AssertionError, match="a fit ran"):
            evaluate_risk_accuracy_pairs(domains)
        monkeypatch.setattr(finetune, "_HEAD_BUDGET_BYTES", needed - 1)
        with pytest.raises(ValueError) as caught:
            evaluate_risk_accuracy_pairs(domains)
        assert str(caught.value).startswith(
            "domain_a: its largest label 2 makes 3 classes, and training a head on 30 points "
            f"would need about {needed / 2**30:.3g} GiB, above the "
        )
        # A class count that no label reaches is named as declared.
        declared = [replace(d, classes=4) for d in domains]
        with pytest.raises(ValueError, match="^the domains declare 4 classes, and training"):
            evaluate_risk_accuracy_pairs(declared)

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
    """Which heads and maps `evaluate_risk_accuracy_pairs` fits, and the maps' seeds."""

    @pytest.mark.parametrize("n_domains", [3, 4])
    def test_one_source_head_per_domain(self, monkeypatch, n_domains):
        domains = make_synthetic_domains(1, n_domains=n_domains, samples_per_domain=48)
        sources = {id(d.train): d.name for d in domains}
        fits, map_seeds, used = [], [], {}

        class Recorded:
            """A fitted source model that logs each read under its source's name."""

            def __init__(self, model, name):
                self.model, self.name = model, name

            def read(self, attr):
                used.setdefault(self.name, []).append(self)
                return getattr(self.model, attr)

            weights = property(lambda self: self.read("weights"))
            bias = property(lambda self: self.read("bias"))

        def fit(family, features, *args):
            accuracy, model, trace = train_classifier(family, features, *args)
            if id(features) in sources:
                fits.append("source")
                return accuracy, Recorded(model, sources[id(features)]), trace
            fits.append("target")
            return accuracy, model, trace

        def descend(family, law_zt, proxy, p, cfg):
            map_seeds.append(cfg.seed)
            return minimize_output_risk(family, law_zt, proxy, p, cfg)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        monkeypatch.setattr(finetune, "minimize_output_risk", descend)
        rows = evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=2, seed=20))
        n_pairs = n_domains * (n_domains - 1)
        assert len(rows) == n_pairs
        assert fits == (["source"] + ["target"] * (n_domains - 1)) * n_domains
        assert map_seeds == [20 + i for i in range(n_pairs)]
        # Each source's model is the one fit, read by every pair of that source.
        assert sorted(used) == sorted(sources.values())
        assert all(len({id(m) for m in models}) == 1 for models in used.values())

    @pytest.mark.parametrize("n_domains", [3, 4])
    def test_one_input_risk_per_unordered_pair(self, monkeypatch, tmp_path, n_domains):
        # Each process appends its solves and head fits to one log, so the
        # child's show up too.
        domains = make_synthetic_domains(1, n_domains=n_domains, samples_per_domain=48)
        names = {id(d.train): d.name for d in domains}
        log = tmp_path / "events"

        def record(event):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {event}\n")

        def solve(law_xt, law_xs, metric, cfg):
            record(f"solve {names[id(law_xt)]} {names[id(law_xs)]}")
            return input_risk(law_xt, law_xs, metric, cfg)

        def fit(*args):
            record("fit -")
            return train_classifier(*args)

        monkeypatch.setattr(finetune, "input_risk", solve)
        monkeypatch.setattr(finetune, "train_classifier", fit)
        n_solves = n_domains * (n_domains - 1) // 2
        rows = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            log.write_text("")
            rows[workers] = evaluate_risk_accuracy_pairs(
                domains, TrainConfig(epochs=2)
            )
            # Every solve runs in this process before the first head trains,
            # each unordered pair as at its first ordered pair, in pair order.
            firsts, seen = [], set()
            for row in rows[workers]:
                if frozenset((row.source, row.target)) not in seen:
                    seen.add(frozenset((row.source, row.target)))
                    firsts.append((row.target, row.source))
            events = [line.split() for line in log.read_text().splitlines()]
            here = str(os.getpid())
            assert events[:n_solves] == [[here, "solve", t, s] for t, s in firsts]
            assert [kind for _, kind, _ in events[n_solves:]] == ["fit"] * n_domains**2
        assert rows[2] == rows[1]
        by_pair = {(r.source, r.target): r.input_risk for r in rows[1]}
        assert all(by_pair[s, t] == by_pair[t, s] for s, t in by_pair)
        assert_no_child_left()

    def test_reused_reverse_risk_is_within_ulps_of_its_own_solve(self):
        # The assignment route may land a different optimal plan in each
        # direction, so a direct reverse solve can differ in its last bits.
        domains = make_synthetic_domains(0, samples_per_domain=80)
        rows = evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1))
        by_name = {d.name: d for d in domains}
        for row in rows:
            direct = input_risk(by_name[row.target].train, by_name[row.source].train)
            assert row.input_risk == pytest.approx(direct, rel=1e-14, abs=0.0)

    def test_no_head_trains_before_a_failing_solve(self, monkeypatch):
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
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1))
        # b-c, the last unordered pair, fails before domain_a's source head.
        assert pairs == []

    def test_divergence_names_the_head_and_keeps_the_trace(self, head_route):
        # Features of 1e200 overflow the first source head's Hessian
        # diagonal, after the loss at its start is recorded.
        domains = [scaled(d, 1e200) for d in line_domains(20, classes=3)]
        with (
            np.errstate(over="ignore"),
            pytest.raises(TrainingDivergedError) as caught,
        ):
            evaluate_risk_accuracy_pairs(domains)
        assert str(caught.value) == (
            "source head of a: loss Hessian became non-finite or singular at Newton step 0"
        )
        assert caught.value.trace.epochs_run == 1
        assert isinstance(caught.value.__cause__, TrainingDivergedError)


def force_workers(monkeypatch, workers):
    """Run `evaluate_risk_accuracy_pairs` on `workers` processes, whatever its domains."""
    monkeypatch.setattr(finetune, "_fit_workers", lambda domains: workers)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def scaled(domain, factor):
    """`domain` with every feature multiplied by `factor`."""
    def times(cloud):
        return EmpiricalDistribution(factor * cloud.points, cloud.weights)

    return replace(domain, train=times(domain.train), held_out=times(domain.held_out))


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
        cfgs = (TrainConfig(epochs=4, learning_rate=0.5),)
        rows = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            rows[workers] = evaluate_risk_accuracy_pairs(domains, *cfgs)
        assert rows[2] == rows[1]
        assert_no_child_left()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_the_crossover_gives_the_one_worker_rows(self, monkeypatch, dim):
        # Unforced: 1-D and 2-D domains on a two-CPU mask run on two
        # processes once the crossover is met.
        domains = line_domains(60) if dim == 1 else make_synthetic_domains(2, samples_per_domain=120)
        cfgs = (TrainConfig(epochs=4, learning_rate=0.5),)
        with monkeypatch.context() as patch:
            force_workers(patch, 1)
            serial = evaluate_risk_accuracy_pairs(domains, *cfgs)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 60)
        assert finetune._fit_workers(domains) == 2
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
        cfgs = (TrainConfig(epochs=1),)
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
        parent = os.getpid()

        def fit(family, features, labels, *args):
            if features is domains[2].train:
                child_failed.touch()
                raise ValueError("source head of domain_c failed")
            # a->b's target head: the first target head of this process.
            if family.in_dim == family.classes and os.getpid() == parent and not waited:
                deadline = time.monotonic() + 30
                while not child_failed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                waited.append(child_failed.exists())
                raise ValueError("target head of a->b failed")
            return train_classifier(family, features, labels, *args)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        force_workers(monkeypatch, 2)
        with pytest.raises(ValueError, match="target head of a->b failed"):
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1))
        assert waited == [True]
        assert_no_child_left()

    def test_a_child_block_divergence_comes_back_with_its_trace(self, monkeypatch):
        # Only domain_c's source head fails, in the child's block, at its
        # step cap; its error crosses the pipe with the message and trace
        # of one process.
        domains = make_synthetic_domains(3, samples_per_domain=24)

        def fit(family, features, *args):
            with monkeypatch.context() as patch:
                if features is domains[2].train:
                    patch.setattr(finetune, "_NEWTON_MAX_STEPS", 2)
                return train_classifier(family, features, *args)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        errors = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(TrainingDivergedError) as caught:
                evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=2))
            errors.append(caught.value)
        serial, forked = errors
        assert str(forked) == str(serial) == (
            "source head of domain_c: loss did not converge in 2 Newton steps"
        )
        assert len(serial.trace.objectives) == 2 and serial.trace.parameters.any()
        assert forked.trace.objectives == serial.trace.objectives
        assert np.array_equal(forked.trace.parameters, serial.trace.parameters)
        assert_no_child_left()

    def test_divergence_on_two_workers_is_the_one_worker_error(self, monkeypatch, head_route):
        # Every source head diverges on features of 1e200; the first one's
        # error is raised, with its trace, and numpy's overflow stays silent
        # in the child too (a warning would fail this test under the suite's
        # filter).
        domains = [scaled(d, 1e200) for d in line_domains(20, classes=3, names="abcd")]
        errors = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with (
                np.errstate(over="ignore"),
                pytest.raises(TrainingDivergedError) as caught,
            ):
                evaluate_risk_accuracy_pairs(domains)
            errors.append(caught.value)
        serial, concurrent = errors
        assert str(concurrent) == str(serial) == (
            "source head of a: loss Hessian became non-finite or singular at Newton step 0"
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
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1))
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
            "finetune._fit_workers = lambda domains: 2\n"
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
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1))
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

        def fit(*args):
            if os.getpid() != parent:
                raise SinkhornConvergenceError(1e-3, 7)
            return train_classifier(*args)

        monkeypatch.setattr(finetune, "train_classifier", fit)
        force_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError) as caught:
            evaluate_risk_accuracy_pairs(domains, TrainConfig(epochs=1))
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == f"SinkhornConvergenceError: {SinkhornConvergenceError(1e-3, 7)}"
        assert_no_child_left()

    def test_workers_follow_the_cpus_the_crossover_and_the_budget(self, monkeypatch):
        domains = line_domains(20, classes=3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert finetune._fit_workers(domains) == 1  # below the crossover
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 20)
        monkeypatch.setattr(finetune, "_NEWTON_CG_CONCURRENT_MIN_POINTS", 20)
        assert finetune._fit_workers(domains) == 2  # the measured cap, not 3 CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert finetune._fit_workers(domains) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert finetune._fit_workers(domains) == 2
        # Three classes on 1-D domains: the target head, on 3 inputs, is the
        # largest.  Its 12 parameters take exact steps: per point the copy
        # of its 3 inputs, the label index, 10 feature products, 3 class
        # rows and 3 class-pair rows, then its pair terms and Hessians.
        head = finetune._head_bytes(20, 3, 3)
        assert head > finetune._head_bytes(20, 3, 1)
        assert head == 8 * ((3 + 1 + 10 + 3 + 3) * 20 + 3 * 4 * 4**2 + 2 * (2 * 4) ** 2 + 8192)
        # Below two such heads it takes Newton-CG, whose working set then
        # caps the workers: per point the copy, the label index, 2 class
        # rows, the squared points and the most probable classes' index.
        newton_cg = finetune._newton_cg_bytes(20, 3, 3)
        assert newton_cg == 8 * ((2 * 3 + 2 * 3 + 2) * 20 + 12 * 3 * 4 + 8192) < head
        for budget, workers, exact in (
            (2 * head, 2, True), (2 * head - 1, 2, False), (2 * newton_cg, 2, False),
            (2 * newton_cg - 1, 1, False), (newton_cg, 1, False),
        ):
            monkeypatch.setattr(finetune, "_HEAD_BUDGET_BYTES", budget)
            assert finetune._takes_exact_steps(20, 3, 3) is exact
            assert finetune._fit_workers(domains) == workers
        # Not even one head fits: refused ahead of every other gate.
        monkeypatch.setattr(finetune, "_HEAD_BUDGET_BYTES", newton_cg - 1)
        for min_points in (20, 600):
            monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", min_points)
            with pytest.raises(ValueError, match="makes 3 classes, and training a head on 20 points"):
                finetune._fit_workers(domains)

    @staticmethod
    def sized_domains(n, dim, classes):
        """Two domains of n training points on dim features, for `_fit_workers`'s arithmetic alone."""
        half = SimpleNamespace(size=n, dim=dim)
        return [
            SimpleNamespace(name=name, train=half, classes=classes,
                            train_labels=np.arange(classes), held_out_labels=np.arange(classes))
            for name in "ab"
        ]

    @pytest.mark.parametrize(
        "dim, classes, crossover", [(1, 4, 3000), (16, 2, 3000), (2, 8, 600), (4, 8, 600)]
    )
    def test_the_crossover_follows_the_target_heads_route(self, monkeypatch, dim, classes, crossover):
        # Target heads on exact steps fork from 3 000 points; on Newton-CG,
        # whose fits cost more, from 600.  A source head on Newton-CG alone
        # (2 classes on 16 inputs) keeps the exact steps' crossover.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert finetune._takes_exact_steps(crossover, classes, classes) is (crossover == 3000)
        for n, workers in ((crossover - 1, 1), (crossover, 2)):
            assert finetune._fit_workers(self.sized_domains(n, dim, classes)) == workers

    @pytest.mark.parametrize("n, dim, classes", [
        (1_000_000, 14, 2), (3_900_000, 14, 2), (2_000_000, 1, 15), (3_000_000, 4, 4), (10_000, 4, 4),
    ])
    def test_exact_steps_cost_a_run_no_worker(self, monkeypatch, n, dim, classes):
        # Arithmetic only: no fit runs.  Exact steps hold up to about four
        # times Newton-CG's memory per point, so a head takes them only
        # where two heads of theirs fit the budget.  A run then gets the
        # processes Newton-CG heads alone would give it, sized as the
        # larger head on max(dim, classes) inputs: 2-class heads on 14
        # features from 0.96M to 3.9M points, which exact steps alone
        # would refuse, run, as do 4-D 4-class heads on two processes to
        # 3.7M points, which exact steps alone would hold to one from 2.2M.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        budget = finetune._HEAD_BUDGET_BYTES
        heads = budget // finetune._newton_cg_bytes(n, classes, max(dim, classes))
        assert heads >= 1
        assert finetune._fit_workers(self.sized_domains(n, dim, classes)) == min(2, heads)
        if finetune._exact_step_bytes(n, classes, dim) > budget // 2:
            assert not finetune._takes_exact_steps(n, classes, dim)

    def test_every_route_forks_above_the_crossover(self, monkeypatch):
        # A fit process solves no transport problem, so the input risks'
        # route does not gate the count: dense routes fork too.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 0)
        line, plane = line_domains(20), make_synthetic_domains(0, samples_per_domain=40)
        for domains in (line, plane, line[:2] + plane[:1]):
            assert finetune._fit_workers(domains) == 2
        split, run_forked = [], finetune._run_forked

        def recorded(run, items, workers, child):
            split.append(workers)
            return run_forked(run, items, workers, child)

        monkeypatch.setattr(finetune, "_run_forked", recorded)
        cfgs = (
            TrainConfig(epochs=1), OtConfig(method="sinkhorn", sinkhorn_epsilon=0.5),
        )
        rows = evaluate_risk_accuracy_pairs(line, *cfgs)
        assert split == [2]
        force_workers(monkeypatch, 1)
        assert rows == evaluate_risk_accuracy_pairs(line, *cfgs)
        assert_no_child_left()

    def test_no_fit_process_solves_an_input_risk(self, monkeypatch):
        domains = make_synthetic_domains(1, n_domains=4, samples_per_domain=48)
        parent = os.getpid()

        def solve(*args):
            if os.getpid() != parent:
                raise AssertionError("a fit process solved an input risk")
            return input_risk(*args)

        monkeypatch.setattr(finetune, "input_risk", solve)
        cfgs = (TrainConfig(epochs=1),)
        rows = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            rows[workers] = evaluate_risk_accuracy_pairs(domains, *cfgs)
        assert rows[2] == rows[1]
        assert_no_child_left()

    def test_only_a_one_thread_linux_process_forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 0)
        domains = line_domains(20)
        assert finetune._fit_workers(domains) == 2
        with monkeypatch.context() as patch:
            patch.setattr(sys, "platform", "darwin")
            assert finetune._fit_workers(domains) == 1
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert finetune._fit_workers(domains) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert finetune._fit_workers(domains) == 1
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert finetune._fit_workers(domains) == 2

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # One worker runs the serial schedule in the calling thread: it
        # neither starts a thread nor forks.
        started = []

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        monkeypatch.setattr(os, "fork", no_fork)
        rows = evaluate_risk_accuracy_pairs(
            make_synthetic_domains(0, samples_per_domain=40), TrainConfig(epochs=1)
        )
        assert len(rows) == 6
        assert started == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_two_workers_split_contiguous_halves_the_first_no_smaller(self, n):
        parent = os.getpid()
        blocks = finetune._run_forked(
            lambda items: [(os.getpid() == parent, list(items))], range(n), 2, str
        )
        half = (n + 1) // 2
        assert blocks == [(True, list(range(half))), (False, list(range(half, n)))]
        assert finetune._run_forked(lambda items: list(items), range(n), 1, str) == list(range(n))
        assert_no_child_left()

    def test_the_only_fork_is_in_run_forked(self):
        # One split rule: a new fork site goes through `_run_forked`.
        forks = []

        def visit(node, module, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, module, child.name)
                    continue
                if (
                    isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name)
                    and (child.func.value.id, child.func.attr) == ("os", "fork")
                ):
                    forks.append((module, function))
                visit(child, module, function)

        for path in sorted(Path(finetune.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
        assert forks == [("finetune", "_run_forked")]


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
