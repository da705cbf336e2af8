"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Each criterion times itself against its stated budget and prints a single
summary line; run with -rA (or -s) to see the lines for passing tests too.
A criterion fails if any check inside it fails, if it raises, or if it
blows its runtime budget on this machine.
"""

import time
from decimal import Decimal

import numpy as np
from scipy import stats
from scipy.optimize import linprog

from trk.distributions import (
    EmpiricalDistribution,
    Gaussian1D,
    GaussianJoint,
    gaussian_kl,
    gaussian_w2,
    sample,
)
from trk.finetune import (
    AffineMapFamily,
    SoftmaxHeadFamily,
    cross_entropy_objective,
    evaluate_risk_accuracy_pairs,
    make_synthetic_domains,
    transport_objective,
)
from trk.gaussian_lab import (
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
from trk.optimal_transport import (
    OtConfig,
    _cost_matrix,
    _solve_lp,
    wasserstein,
    wasserstein_1d_exact,
)
from trk.transfer_core import (
    AffineModel,
    PolynomialCombiner,
    combine,
    cross_entropy_sandwich,
    input_risk,
    output_risk_w,
)

STUDY_COMBINER = PolynomialCombiner(0.31, 0.92, 2.0)


def run_criterion(number, name, budget, body):
    """Time `body`, print the criterion's verdict line, fail the test if red."""
    started = time.perf_counter()
    failures = []
    try:
        body(failures)
    except Exception as err:
        failures.append(f"unexpected {type(err).__name__}: {err}")
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s)")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


# The paper's six-pair Office table (domains A, W, D) exactly as printed: the
# risks and the combined risk to 3 decimals, the combiner's coefficients to 2.
STUDY_TABLE = [
    # pair, input risk, output risk, combined risk
    ("A-W", "0.181", "0.428", "0.224"),
    ("A-D", "0.263", "0.380", "0.214"),
    ("W-A", "0.181", "0.545", "0.330"),
    ("W-D", "0.148", "0.084", "0.052"),
    ("D-A", "0.263", "0.543", "0.353"),
    ("D-W", "0.148", "0.412", "0.201"),
]
STUDY_COEFFS = ("0.31", "0.92")


def printed_interval(text):
    """The interval a printed decimal stands for: +-half of its last printed unit."""
    half = 0.5 * 10.0 ** Decimal(text).as_tuple().exponent
    return float(text) - half, float(text) + half


def study_table_gap(input_coeff, output_coeff, power):
    """How far the best polynomial combiner in a printed coefficient box misses STUDY_TABLE.

    The coefficients range over their printed intervals, and so do a row's risks.
    A combiner is monotone in each risk, so over a row's risk box it reaches
    exactly the range from its value at the low corner to its value at the high
    corner. The row is reproduced when that range meets the printed interval of
    the combined risk. Both ends are linear in the coefficients,
    C = input_coeff * C(1, 0) + output_coeff * C(0, 1), so the smallest
    achievable worst-row miss is a linear program. Its rows come from the
    shipped `combine`, not from a retyped formula.

    Returns (gap, coefficients, rows). gap <= 0 iff one coefficient pair in the
    box reproduces every row, and -gap is then the slack of the tightest row.
    `rows` names the rows that miss by gap at the best pair.
    """
    unit_in = PolynomialCombiner(1.0, 0.0, power)
    unit_out = PolynomialCombiner(0.0, 1.0, power)
    ends, limits, labels = [], [], []
    for pair, e_in, e_out, published in STUDY_TABLE:
        (in_low, in_high), (out_low, out_high) = printed_interval(e_in), printed_interval(e_out)
        low, high = printed_interval(published)
        # Lowest reachable value <= high, and highest reachable value >= low.
        ends.append([combine(unit_in, in_low, out_low), combine(unit_out, in_low, out_low)])
        limits.append(high)
        labels.append(f"{pair} (lowest reachable value above {high:.4f})")
        ends.append([-combine(unit_in, in_high, out_high), -combine(unit_out, in_high, out_high)])
        limits.append(-low)
        labels.append(f"{pair} (highest reachable value below {low:.4f})")
    ends, limits = np.array(ends), np.array(limits)
    # Variables: input_coeff, output_coeff and the worst-row miss, which is minimised.
    result = linprog(
        [0.0, 0.0, 1.0],
        A_ub=np.column_stack([ends, -np.ones(len(ends))]),
        b_ub=limits,
        bounds=[printed_interval(input_coeff), printed_interval(output_coeff), (None, None)],
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"study-table LP did not solve: {result.message}")
    coeffs, gap = result.x[:2], float(result.x[2])
    misses = ends @ coeffs - limits
    rows = [label for label, miss in zip(labels, misses) if miss >= gap - 1e-12]
    return gap, tuple(float(c) for c in coeffs), rows


def test_criterion_01_study_table_reproduction():
    """The shipped combiner form with the published coefficients reproduces the table.

    Every number in the published table is printed, so each stands for the
    interval of values that print that way, and the check works to that
    precision: some coefficient pair within the printed 0.31 and 0.92 must
    reach every printed combined risk from that row's printed risks. No
    document in this repository settles whether the paper's 0.31 and 0.92 are
    exact or fitted values rounded to two decimals. Read as exact, the D-W row
    misses (its lowest reachable value is C(0.1475, 0.4115) = 0.2015107, above
    0.201's interval by 1.07e-5), so the criterion reads them as rounded.

    The same check must reject neighbouring combiner forms (output power 1.9 or
    2.1, or the two coefficients swapped), so a change of the shipped form
    still turns this criterion red.
    """

    def body(failures):
        gap, (input_coeff, output_coeff), rows = study_table_gap(
            *STUDY_COEFFS, STUDY_COMBINER.power
        )
        if gap > 0.0:
            failures.append(
                f"no coefficients within the printed {'/'.join(STUDY_COEFFS)} reproduce the"
                f" table: the best pair ({input_coeff:.5f}, {output_coeff:.5f}) misses"
                f" {', '.join(rows)} by {gap:.2e}"
            )
        # Each control misses by at least 1.28e-2 (power 1.9 1.28e-2, power 2.1
        # 1.33e-2, swapped 8.46e-2), far above the LP's tolerances.
        controls = [
            ("power 1.9", STUDY_COEFFS, 1.9),
            ("power 2.1", STUDY_COEFFS, 2.1),
            ("swapped coefficients", STUDY_COEFFS[::-1], STUDY_COMBINER.power),
        ]
        for name, coeffs, power in controls:
            gap, _, _ = study_table_gap(*coeffs, power)
            if gap <= 0.0:
                failures.append(
                    f"control '{name}' also reproduces the table (slack {-gap:.2e}),"
                    " so the check cannot tell combiner forms apart"
                )

    run_criterion("01", "study-table-reproduction", 1.0, body)


def test_criterion_02_closed_forms_cross_validated():
    def body(failures):
        n_mc = 100_000
        for i in range(200):
            dim = i % 3 + 1
            source, target = random_basic_pair(dim, seed=10_000 + i)
            kl, w, _, _ = basic_case_risks(source, target)
            p_st, p_t = predictive_laws(source, target)

            kl_core = gaussian_kl(p_t, p_st)
            w_core = output_risk_w(optimal_linear_model(source), target.x_marginal(), p_t)
            if abs(kl.total - kl_core) > 1e-9:
                failures.append(
                    f"instance {i}: kl closed form off by {abs(kl.total - kl_core):.2e}"
                )
            if abs(w.total - w_core) > 1e-9:
                failures.append(f"instance {i}: w closed form off by {abs(w.total - w_core):.2e}")

            draws = sample(p_t, n_mc, seed=20_000 + i).points[:, 0]

            def log_pdf(x, law):
                return -0.5 * (
                    (x - law.mean) ** 2 / law.variance + np.log(2 * np.pi * law.variance)
                )

            kl_mc = float(np.mean(log_pdf(draws, p_t) - log_pdf(draws, p_st)))
            w_mc = float(
                np.mean(
                    (
                        np.sort(draws)
                        - np.sort(sample(p_st, n_mc, seed=30_000 + i).points[:, 0])
                    )
                    ** 2
                )
            )
            if abs(kl.total - kl_mc) > 2e-2:
                failures.append(
                    f"instance {i}: kl vs Monte Carlo off by {abs(kl.total - kl_mc):.3f}"
                )
            if abs(w.total - w_mc) > 2e-2:
                failures.append(f"instance {i}: w vs Monte Carlo off by {abs(w.total - w_mc):.3f}")
            if len(failures) > 5:
                break

    run_criterion("02", "gaussian-closed-form-cross-validation", 60.0, body)


def test_criterion_03_risk_below_regret():
    def body(failures):
        for i in range(500):
            source, target = random_basic_pair(i % 3 + 1, seed=40_000 + i)
            case = basic_case_risks(source, target)
            risk, regret_value, residual = case.w.total, case.regret, case.residual
            if risk > regret_value + 1e-12:
                failures.append(
                    f"instance {i}: risk {risk:.6f} exceeds regret {regret_value:.6f}"
                )
            if abs(regret_value - (risk + residual)) > 1e-9:
                failures.append(
                    f"instance {i}: identity off by {abs(regret_value - risk - residual):.2e}"
                )
            if residual < -1e-12:
                failures.append(f"instance {i}: residual {residual:.2e} negative")
            if len(failures) > 5:
                break

    run_criterion("03", "risk-bounded-by-regret", 30.0, body)


def test_criterion_04_talagrand_against_standard_normal():
    def body(failures):
        rng = np.random.default_rng(50_000)
        reference = Gaussian1D(0.0, 1.0)
        for i in range(200):
            p_t = Gaussian1D(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 4.0))
            margin = 2.0 * gaussian_kl(p_t, reference) - gaussian_w2(p_t, reference)
            if margin < -1e-12:
                failures.append(f"instance {i}: margin {margin:.2e}")
            if len(failures) > 5:
                break

    run_criterion("04", "talagrand-w2-kl-bound", 5.0, body)


def test_criterion_05_cross_entropy_sandwich():
    def body(failures):
        rng = np.random.default_rng(60_000)
        for i in range(100):
            k = int(rng.integers(2, 7))
            p_st = rng.dirichlet(np.ones(k) * 2.0)
            law = rng.dirichlet(np.ones(k))
            p_t = rng.dirichlet(np.ones(k))
            lower, center, upper = cross_entropy_sandwich(p_st, law, p_t)
            if not (lower - 1e-12 <= center <= upper + 1e-12):
                failures.append(f"instance {i} (K={k}): ({lower:.4f}, {center:.4f}, {upper:.4f})")
            if len(failures) > 5:
                break

    run_criterion("05", "cross-entropy-sandwich", 5.0, body)


def test_criterion_06_transport_solver_agreement():
    def lp_distance(a, b, p):
        cost = _cost_matrix(a, b, p)
        return float((_solve_lp(a.weights, b.weights, cost) * cost).sum()) ** (1.0 / p)

    def body(failures):
        for i in range(100):
            rng = np.random.default_rng(70_000 + i)
            n, m = int(rng.integers(2, 51)), int(rng.integers(2, 51))
            a = EmpiricalDistribution(rng.normal(size=(n, 1)), rng.dirichlet(np.ones(n)))
            b = EmpiricalDistribution(
                rng.normal(loc=0.5, size=(m, 1)), rng.dirichlet(np.ones(m))
            )
            p = 1.0 if i % 2 == 0 else 2.0
            quantile = wasserstein_1d_exact(a, b, p)
            lp = lp_distance(a, b, p)
            if abs(quantile - lp) > 1e-7:
                failures.append(f"1-D instance {i}: quantile {quantile:.9f} vs lp {lp:.9f}")
            if len(failures) > 5:
                break
        for i in range(20):
            rng = np.random.default_rng(80_000 + i)
            n, m = int(rng.integers(30, 101)), int(rng.integers(30, 101))
            a = EmpiricalDistribution.from_points(rng.normal(size=(n, 2)))
            b = EmpiricalDistribution.from_points(0.5 + 0.8 * rng.normal(size=(m, 2)))
            lp = lp_distance(a, b, 1.0)
            approx = wasserstein(
                a, b, OtConfig(p=1.0, method="sinkhorn", sinkhorn_max_iter=100_000)
            )
            if abs(approx - lp) > 0.05 * lp:
                failures.append(
                    f"2-D instance {i}: sinkhorn {approx:.6f} vs lp {lp:.6f} "
                    f"({abs(approx - lp) / lp:.1%})"
                )
            if len(failures) > 5:
                break

    run_criterion("06", "transport-solver-agreement", 120.0, body)


def test_criterion_07_feature_augmentation_no_harm():
    def body(failures):
        for i in range(50):
            rng = np.random.default_rng(90_000 + i)
            source = random_task(2, 1, seed=90_500 + i)
            target = conditionally_independent_augmentation(
                source,
                mean_new=rng.uniform(-0.5, 0.5, size=1),
                cov_new=[[float(rng.uniform(0.5, 2.0))]],
                cov_cross=rng.normal(scale=0.2, size=(2, 1)),
            )
            kl, w = feature_augmentation_risks(source, target)
            if kl.total > 1e-9 or w.total > 1e-9:
                failures.append(f"CI instance {i}: risks ({kl.total:.2e}, {w.total:.2e}) not zero")
            w_s = optimal_linear_model(source).weights[0]
            w_t = optimal_linear_model(target).weights[0]
            if np.abs(w_t[:2] - w_s).max() > 1e-9 or np.abs(w_t[2:]).max() > 1e-9:
                failures.append(
                    f"CI instance {i}: target optimum is not the projected source optimum"
                )
            if len(failures) > 5:
                break
        n_mc = 20_000
        for i in range(200):
            full = random_task(3, 1, seed=91_000 + i)
            reduced = restrict_inputs(full, 2)
            cloud = sample(full, n_mc, seed=92_000 + i)
            x, y = cloud.points[:, :3], cloud.points[:, 3]
            f_full = optimal_linear_model(full)
            f_reduced = optimal_linear_model(reduced)
            loss_full = float(np.mean((y - f_full(x)[:, 0]) ** 2))
            loss_reduced = float(np.mean((y - f_reduced(x[:, :2])[:, 0]) ** 2))
            if loss_full > loss_reduced + 1e-2:
                failures.append(
                    f"no-harm instance {i}: loss with extra feature {loss_full:.4f} vs "
                    f"without {loss_reduced:.4f}"
                )
            if len(failures) > 5:
                break

    run_criterion("07", "feature-augmentation-corollaries", 60.0, body)


def test_criterion_08_output_augmentation_formulas():
    def body(failures):
        rng = np.random.default_rng(95_000)
        for i in range(100):
            d, k = (2, 1) if i % 2 == 0 else (3, 2)
            target = random_task(d, 1 + k, seed=96_000 + i)
            source = restrict_outputs(target, 1)
            best = optimal_output_initializer(source, target)
            kl, w, dec = output_augmentation_risks(source, target, best)
            if abs(kl) > 1e-9 or abs(w) > 1e-9 or abs(dec.total) > 1e-9:
                failures.append(
                    f"instance {i}: optimal initializer leaves risk ({kl:.2e}, {w:.2e})"
                )
            # Redraw initializers whose stacked predictor has a badly
            # conditioned output covariance: there the KL blows up and
            # comparing two formulas at 1e-9 absolute stops testing algebra.
            while True:
                noisy = AffineModel(
                    best.weights + rng.normal(scale=0.3, size=best.weights.shape),
                    best.bias + rng.normal(scale=0.3, size=best.bias.shape),
                )
                p_st, _ = output_augmentation_laws(source, target, noisy)
                if np.linalg.cond(p_st.cov) < 1e5:
                    break
            kl, _, dec = output_augmentation_risks(source, target, noisy)
            if abs(dec.total - kl) > 1e-9:
                failures.append(
                    f"instance {i}: eigenvalue route {dec.total:.9f} vs trace/log-det {kl:.9f}"
                )
            if len(failures) > 5:
                break

    run_criterion("08", "output-augmentation-formulas", 30.0, body)


def test_criterion_09_synthetic_domain_study():
    def body(failures):
        domains = make_synthetic_domains(seed=0)
        results = evaluate_risk_accuracy_pairs(domains)
        if len(results) != 6:
            failures.append(f"expected 6 ordered pairs, got {len(results)}")
        accuracy = [r.accuracy for r in results]
        combined = [combine(STUDY_COMBINER, r.input_risk, r.output_risk) for r in results]
        spearman = float(stats.spearmanr(accuracy, combined).statistic)
        if not spearman <= -0.5:
            failures.append(f"Spearman {spearman:.3f} is not <= -0.5")

    run_criterion("09", "synthetic-domain-study", 300.0, body)


def test_criterion_10_training_gradient_checks():
    def body(failures):
        rng = np.random.default_rng(97_000)
        family = AffineMapFamily(3, 1)
        inputs = rng.normal(size=(40, 3))
        weights = np.full(40, 1.0 / 40)
        proxy = EmpiricalDistribution.from_points(rng.normal(size=(25, 1)))
        step = 1e-5
        for point in range(20):
            params = rng.normal(size=4)
            _, grad = transport_objective(family, params, inputs, weights, proxy, p=1.0)
            for i in range(4):
                offset = np.zeros(4)
                offset[i] = step
                fd = (
                    transport_objective(family, params + offset, inputs, weights, proxy, p=1.0)[0]
                    - transport_objective(
                        family, params - offset, inputs, weights, proxy, p=1.0
                    )[0]
                ) / (2 * step)
                if abs(grad[i] - fd) > 1e-4 * max(1.0, abs(fd)) + 1e-8:
                    failures.append(
                        f"transport point {point} coord {i}: {grad[i]:.8f} vs {fd:.8f}"
                    )
        head = SoftmaxHeadFamily(3, 3)
        points = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        for point in range(20):
            params = rng.normal(size=head.parameter_count())
            _, grad = cross_entropy_objective(head, params, points, labels, weights)
            for i in rng.choice(head.parameter_count(), size=4, replace=False):
                offset = np.zeros(head.parameter_count())
                offset[i] = step
                fd = (
                    cross_entropy_objective(head, params + offset, points, labels, weights)[0]
                    - cross_entropy_objective(head, params - offset, points, labels, weights)[0]
                ) / (2 * step)
                if abs(grad[i] - fd) > 1e-4 * max(1.0, abs(fd)) + 1e-8:
                    failures.append(
                        f"cross-entropy point {point} coord {i}: {grad[i]:.8f} vs {fd:.8f}"
                    )

    run_criterion("10", "training-gradient-checks", 10.0, body)


def test_criterion_11_continuity_probes():
    def body(failures):
        ot_cfg = OtConfig(p=2.0)

        def combined_risk(source, target):
            e_in = input_risk(
                target.x_marginal(),
                source.x_marginal(),
                metric="wasserstein",
                cfg=ot_cfg,
            )
            return combine(STUDY_COMBINER, e_in, basic_case_risks(source, target).w.total)

        def check_decay(deviations, label):
            tail = deviations[-3:]
            if not (tail[0] >= tail[1] - 1e-12 and tail[1] >= tail[2] - 1e-12):
                failures.append(f"{label}: last dyadic deviations {tail} are not decreasing")
            if deviations[-1] > deviations[0] / 16.0 + 1e-12:
                failures.append(
                    f"{label}: deviation {deviations[-1]:.2e} has not shrunk from "
                    f"{deviations[0]:.2e} after 6 halvings"
                )

        source, target = random_basic_pair(2, seed=98_000)
        rng = np.random.default_rng(98_001)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        base = combined_risk(source, target)
        deviations = []
        for level in range(7):
            delta = 0.5 / 2.0**level
            shifted = GaussianJoint(
                mean_x=source.mean_x + delta * direction,
                mean_y=source.mean_y,
                cov_xx=source.cov_xx,
                cov_xy=source.cov_xy,
                cov_yy=source.cov_yy,
            )
            deviations.append(abs(combined_risk(shifted, target) - base))
        check_decay(deviations, "source-mean shift")

        source, target = random_basic_pair(2, seed=98_100)
        rng = np.random.default_rng(98_101)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        model = optimal_linear_model(source)
        x_marginal = target.x_marginal()
        _, p_t = predictive_laws(source, target)
        e_in = input_risk(
            x_marginal,
            source.x_marginal(),
            metric="wasserstein",
            cfg=ot_cfg,
        )

        def combined_for(model_eta):
            e_out = output_risk_w(model_eta, x_marginal, p_t)
            return combine(STUDY_COMBINER, e_in, e_out)

        base = combined_for(model)
        deviations = []
        for level in range(7):
            eta = 0.5 / 2.0**level
            perturbed = AffineModel(model.weights + eta * direction[None, :], model.bias)
            deviations.append(abs(combined_for(perturbed) - base))
        check_decay(deviations, "pretrained-weight shift")

    run_criterion("11", "continuity-probes", 30.0, body)
