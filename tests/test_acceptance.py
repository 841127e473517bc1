"""Acceptance gate: one test per shipped claim, pass/fail visible under pytest -v.

Each test states its tolerance inline. The experiment-level checks (08-10)
run the shipped default configurations end to end, so this file takes a few
minutes; everything else is seconds.
"""

import math

import numpy as np
import pytest
from scipy import stats

from dpsgld.core import seeded_rng
from dpsgld.harness import (
    DIMENSION_INDEPENDENCE,
    EXCESS_RISK_VS_N,
    PRIVACY_UTILITY,
    STABILITY,
    ExperimentConfig,
    default_config,
    rows_to_csv,
    run_experiment,
)
from dpsgld.losses import GlmLoss, loss_bounds
from dpsgld.privacy import (
    RdpBudget,
    certify_theorem1,
    certify_theorem2,
    feldman_rdp_bound,
    multi_pass_privacy,
    rdp_to_dp,
    single_pass_rdp,
)
from dpsgld.schedules import (
    multi_pass_schedule,
    single_pass_schedule,
)

from helpers import advance_one_step, finite_diff_gradient, gaussian_step_epsilon, renyi_gaussian

FAMILIES = ("logistic", "smoothed-hinge", "quadratic")


def test_criterion_01_calibrated_single_pass_account():
    # T=10^4, G=1, eta0=1, eps=0.5, delta=1e-5 must give RDP 0.5 at
    # alpha = 1 + ln(1/delta)/eps and convert to exactly (1.0, delta);
    # relative tolerance 1e-9.
    schedule = single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5)
    np.testing.assert_allclose(schedule.eta, 0.005, rtol=1e-12)
    np.testing.assert_allclose(schedule.renyi_order, 24.025850929940456840, rtol=1e-12)
    np.testing.assert_allclose(schedule.beta0, 0.0024025850929940456840, rtol=1e-12)
    rdp = single_pass_rdp(schedule.renyi_order, schedule.eta, schedule.G, schedule.beta0)
    np.testing.assert_allclose(rdp.epsilon, 0.5, rtol=1e-9)
    dp = certify_theorem1(schedule)
    np.testing.assert_allclose(dp.epsilon, 1.0, rtol=1e-9)
    assert dp.delta == 1e-5


def test_criterion_02_accountant_reference_constants():
    # Reference points for the three accountant primitives. The checked-in
    # constants below were recomputed with 40-digit arithmetic; the middle
    # one is asserted both at the coarse published precision (1e-5) and
    # tightly against the recomputed value.
    got = gaussian_step_epsilon(0.1, 1.0, 1.0, 1e-5)
    np.testing.assert_allclose(got, 0.968961, atol=1e-6)
    np.testing.assert_allclose(got, 0.9689610525210778842517, rtol=1e-12)

    got = multi_pass_privacy(1000, 1000, 1e-5).epsilon
    np.testing.assert_allclose(got, 0.43210391462272967, atol=1e-5)
    np.testing.assert_allclose(got, 0.43210391462272966642, rtol=1e-12)

    got = rdp_to_dp(RdpBudget(10.0, 0.1), 1e-6).epsilon
    np.testing.assert_allclose(got, 1.635057, atol=1e-6)
    np.testing.assert_allclose(got, 1.6350567286626971227, rtol=1e-12)


def test_criterion_03_one_step_renyi_never_exceeds_accounted_bound():
    # 100 random one-dimensional single-step configurations: the exact
    # Renyi divergence between the two next-iterate laws (gradients g, g'
    # with |g|,|g'| <= G on adjacent data) must sit below the accountant's
    # last-iterate bound for the same step.
    rng = np.random.default_rng(20240811)
    G = 1.0
    for _ in range(100):
        eta = rng.uniform(0.01, 1.0)
        lam_eta = rng.uniform(1e-6, 1.0)
        beta0 = rng.uniform(0.05, 2.0)
        alpha = rng.uniform(1.01, 40.0)
        w = rng.uniform(-2.0, 2.0)
        g, g_prime = rng.uniform(-G, G, size=2)
        variance = lam_eta * (2.0 - lam_eta) * beta0
        mu1 = np.array([(1.0 - lam_eta) * (w - eta * g)])
        mu2 = np.array([(1.0 - lam_eta) * (w - eta * g_prime)])
        exact = renyi_gaussian(alpha, mu1, mu2, variance)
        sigma_grad = math.sqrt(variance) / eta
        bound = feldman_rdp_bound(alpha, G, [eta], [sigma_grad], [1]).epsilon
        assert exact <= bound * (1.0 + 1e-12), (
            f"one-step divergence {exact} exceeds bound {bound} "
            f"(eta={eta}, lam_eta={lam_eta}, beta0={beta0}, alpha={alpha})"
        )


def test_criterion_04_gradients_match_finite_differences():
    # 1000 random (family, w, example) triples: the gradient the samplers
    # take, clipped phi'(w'x, y)*x, within 1e-5 of central differences of
    # phi (relative to max(1, ||grad||)) and norm within the certified bound
    # G. The clip never fires on this domain.
    rng = np.random.default_rng(52)
    for i in range(1000):
        family = FAMILIES[i % 3]
        loss = GlmLoss(family, h=float(rng.uniform(0.1, 0.9)))
        d = int(rng.integers(1, 9))
        x = rng.normal(size=d)
        x /= max(1.0, float(np.linalg.norm(x)))
        if family == "quadratic":
            w = rng.normal(size=d)
            norm = float(np.linalg.norm(w))
            if norm > 1.0:
                w /= norm * 1.0001
            y = float(rng.uniform(-1.0, 1.0))
        else:
            w = rng.normal(size=d) * 2.0
            y = float(rng.choice([-1.0, 1.0]))
        grad = float(loss.clipped_phi_prime(float(w @ x), y)) * x
        fd = finite_diff_gradient(loss, w, x, y, 1e-6)
        scale = max(1.0, float(np.linalg.norm(grad)))
        err = float(np.linalg.norm(fd - grad)) / scale
        assert err < 1e-5, f"gradient mismatch {err} for {family} at i={i}"
        assert float(np.linalg.norm(grad)) <= loss_bounds(loss).G + 1e-12


def test_criterion_05_schedule_budgets_and_identities():
    # Single pass: the published budget table, and budget <= (1+sqrt(2))*T
    # for every T up to 512. Multi pass: random schedules keep
    # lambda_t*eta_t in (0, 1], reproduce 1 - eta_t/eta_{t-1} exactly, use
    # unit batches, and consume exactly T samples.
    table = {1: 1, 8: 11, 100: 172, 1000: 1788, 4096: 7397}
    for T, expected in table.items():
        schedule = single_pass_schedule(T, 1.0, 1.0, 0.5, 1e-5)
        assert schedule.sample_budget == expected
    cap = 1.0 + math.sqrt(2.0)
    for T in range(1, 513):
        budget = single_pass_schedule(T, 1.0, 1.0, 0.5, 1e-5).sample_budget
        assert budget <= cap * T

    rng = np.random.default_rng(9000)
    accepted = 0
    while accepted < 100:
        n = int(rng.integers(10, 3000))
        exponent = float(rng.uniform(1.0, 2.0))
        eps = float(rng.uniform(0.05, 1.5))
        delta = float(10.0 ** rng.uniform(-8.0, -3.0))
        if n * delta >= 2.5:
            continue
        T = round(float(n) ** exponent * eps * eps)
        if not 1 <= T <= 200_000:
            continue
        schedule = multi_pass_schedule(n, exponent, eps, delta, 1.0, 1.0)
        accepted += 1
        le = schedule.lambda_etas
        etas = schedule.etas
        assert le[0] == 1.0
        assert np.all(le > 0.0) and np.all(le <= 1.0)
        if schedule.T > 1:
            np.testing.assert_array_equal(le[1:], 1.0 - etas[1:] / etas[:-1])
            assert np.all(np.diff(etas) < 0.0)
        assert schedule.sample_budget == schedule.T
        assert schedule.batch_sizes[-1] == 1
        np.testing.assert_allclose(
            schedule.beta0, schedule.eta0**2 * schedule.n / schedule.T, rtol=1e-15
        )


def test_criterion_06_first_step_noise_law():
    # At t=1 the schedules pin lambda*eta = 1, so the first iterate is an
    # exact N(0, beta0*I) draw no matter what the data say. Checked on the
    # per-step kernel two ways: bitwise data-independence, and a
    # Kolmogorov-Smirnov test per coordinate over 10^4 replicates, one group
    # each (each must give p > 1e-3).
    schedule = single_pass_schedule(64, 1.0, 1.0, 0.5, 1e-4)
    np.testing.assert_allclose(schedule.beta0, 0.30344813662425571050, rtol=1e-12)
    d = 3
    loss = GlmLoss("logistic")
    step = (schedule.etas[0], schedule.lambda_etas[0], schedule.beta0)
    x_a, y_a = [[0.9, 0.0, 0.0]], [1.0]
    x_b, y_b = [[0.0, -0.8, 0.1]], [-1.0]
    w0 = np.array([5.0, -3.0, 2.0])

    out_a = advance_one_step(w0[None, None], x_a, y_a, loss, *step, [seeded_rng(31, 0).generator])
    out_b = advance_one_step(-w0[None, None], x_b, y_b, loss, *step, [seeded_rng(31, 0).generator])
    np.testing.assert_array_equal(out_a, out_b)

    reps = 10_000
    gens = [seeded_rng(606, r).generator for r in range(reps)]
    draws = advance_one_step(np.tile(w0, (reps, 1, 1)), x_a, y_a, loss, *step, gens)[:, 0]
    scale = math.sqrt(schedule.beta0)
    for j in range(d):
        p = stats.kstest(draws[:, j], "norm", args=(0.0, scale)).pvalue
        assert p > 1e-3, f"coordinate {j} fails KS against N(0, beta0): p={p}"


def test_criterion_07_contraction_under_shared_noise():
    # 1000 random coupled steps with a shared minibatch and shared noise,
    # each one group of two chains on the per-step kernel: for eta <= 2/L the
    # distance between the chains never grows beyond |1 - lambda*eta| times
    # the previous distance.
    rng = np.random.default_rng(77)
    for i in range(1000):
        family = FAMILIES[i % 3]
        loss = GlmLoss(family, h=float(rng.uniform(0.1, 0.9)))
        bounds = loss_bounds(loss)
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        X = rng.normal(size=(m, d))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
        if family == "quadratic":
            ys = rng.uniform(-1.0, 1.0, size=m)
            w1 = rng.normal(size=d)
            w1 /= max(1.0, float(np.linalg.norm(w1))) * 1.0001
            w2 = rng.normal(size=d)
            w2 /= max(1.0, float(np.linalg.norm(w2))) * 1.0001
        else:
            ys = rng.choice([-1.0, 1.0], size=m)
            w1 = rng.normal(size=d) * 2.0
            w2 = rng.normal(size=d) * 2.0
        eta = float(rng.uniform(0.0, 2.0 / bounds.L))
        lam_eta = float(rng.uniform(0.0, 1.0))
        beta0 = float(rng.uniform(0.0, 1.0))
        seed = int(rng.integers(0, 2**31))
        before = float(np.linalg.norm(w1 - w2))
        [[out1, out2]] = advance_one_step(
            np.stack([w1, w2])[None], X, ys, loss, eta, lam_eta, beta0, [seeded_rng(seed, 0).generator]
        )
        after = float(np.linalg.norm(out1 - out2))
        allowed = abs(1.0 - lam_eta) * before
        assert after <= allowed * (1.0 + 1e-9) + 1e-12, (
            f"expansion at i={i}: after={after}, allowed={allowed}, "
            f"family={family}, eta={eta}, lam_eta={lam_eta}"
        )


def test_criterion_08_stability_experiment_bound_holds():
    # The shipped stability experiment (n=100, d=16, 200 replicate pairs):
    # the replicate-mean squared coupling distance stays below the
    # closed-form bound plus three standard errors at every checkpoint.
    rows, _ = run_experiment(default_config(STABILITY))
    assert len(rows) > 0
    for row in rows:
        assert row.note == ""
        assert row.mean_value <= row.bound_value + 3.0 * row.standard_error
    checkpoints = [row.checkpoint_t for row in rows]
    assert checkpoints == sorted(checkpoints)
    assert checkpoints[-1] == rows[0].T


def test_criterion_09_excess_risk_decays_with_n():
    # The shipped excess-risk experiment (n from 128 to 2048, d = 2n): the
    # log-log fit of mean excess risk against n must have slope in
    # [-0.8, -0.3] with r^2 >= 0.8.
    rows, summary = run_experiment(default_config(EXCESS_RISK_VS_N))
    assert all(row.note == "" for row in rows)
    slope = summary["loglog_slope"]
    r2 = summary["loglog_r2"]
    assert -0.8 <= slope <= -0.3, f"slope {slope} outside [-0.8, -0.3]"
    assert r2 >= 0.8, f"r^2 {r2} below 0.8"


def test_criterion_10_excess_risk_is_dimension_independent():
    # The shipped dimension-independence experiment (n=512 fixed, d up to
    # 8192): max/min mean excess risk <= 1.5 across dimensions, and the
    # accounted epsilon is bit-identical at every d.
    rows, summary = run_experiment(default_config(DIMENSION_INDEPENDENCE))
    assert all(row.note == "" for row in rows)
    assert summary["eps_accounted_distinct"] == 1
    ratio = summary["excess_max_over_min"]
    assert ratio <= 1.5, f"excess risk ratio across d is {ratio} > 1.5"


def test_criterion_11_multi_pass_certificate_is_within_factor_1_5():
    # At delta = 1e-9 the exact closed-form multi-pass budget stays within
    # a factor 1.5 of the claimed 3*eps*sqrt(ln(2/delta)) + 3*eps^2 over
    # n in {1e3, 1e4, 1e5}, pass exponent in {1, 1.5, 2}, eps in
    # {0.1, 0.3, 1.0}. Each ratio is printed.
    delta = 1e-9
    worst = 0.0
    for n in (1000, 10_000, 100_000):
        for exponent in (1.0, 1.5, 2.0):
            for eps in (0.1, 0.3, 1.0):
                exact, claimed = certify_theorem2(
                    multi_pass_schedule(n, exponent, eps, delta, 1.0, 1.0)
                )
                ratio = exact.epsilon / claimed.epsilon
                print(f"n={n} exponent={exponent} eps={eps} ratio={ratio:.6f}")
                assert ratio <= 1.5, (
                    f"certificate ratio {ratio} > 1.5 at n={n}, "
                    f"exponent={exponent}, eps={eps}"
                )
                worst = max(worst, ratio)
    np.testing.assert_allclose(worst, 1.4913700205785854312, rtol=1e-12)


SMALL_CONFIGS = (
    ExperimentConfig(
        experiment=EXCESS_RISK_VS_N,
        n_grid=(16, 32),
        replicates=2,
        n_test=500,
        seed=7,
        dim_factor=1,
    ),
    ExperimentConfig(
        experiment=DIMENSION_INDEPENDENCE,
        n_grid=(32,),
        d_grid=(8, 16),
        replicates=2,
        n_test=500,
        seed=7,
        feature_law="sphere",
    ),
    ExperimentConfig(
        experiment=STABILITY,
        n_grid=(20,),
        d_grid=(4,),
        replicates=4,
        n_test=500,
        seed=7,
        epsilon=math.sqrt(0.1),
        delta=1e-4,
    ),
    ExperimentConfig(
        experiment=PRIVACY_UTILITY,
        n_grid=(24,),
        d_grid=(6,),
        eps_grid=(0.3, 0.8),
        replicates=2,
        n_test=500,
        seed=7,
    ),
)


@pytest.mark.parametrize("config", SMALL_CONFIGS, ids=lambda c: c.experiment)
def test_criterion_12_experiments_rerun_byte_identically(config):
    # Running any experiment twice with the same seed must reproduce the
    # result CSV byte for byte.
    rows_a, summary_a = run_experiment(config)
    rows_b, summary_b = run_experiment(config)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    assert summary_a == summary_b
