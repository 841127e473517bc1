import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsgld import privacy
from dpsgld.core import InfinitePrivacyLossError, InvalidParameterError
from dpsgld.privacy import (
    DpBudget,
    RdpBudget,
    account_report,
    certify_theorem1,
    certify_theorem2,
    feldman_rdp_bound,
    gaussian_step_epsilon,
    multi_pass_privacy,
    rdp_to_dp,
    single_pass_rdp,
    step_delta_allotment,
    strong_compose,
    subsample_amplify,
)
from dpsgld.schedules import MultiPassSchedule, multi_pass_schedule, single_pass_schedule

# Reference values below were computed once with 40-digit arithmetic and frozen.


class TestBudgetTypes:
    def test_dp_budget_domain(self):
        DpBudget(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            DpBudget(-0.1, 1e-5)
        with pytest.raises(InvalidParameterError):
            DpBudget(1.0, 1.0)

    def test_rdp_budget_domain(self):
        RdpBudget(1.5, 0.0)
        with pytest.raises(InvalidParameterError):
            RdpBudget(1.0, 0.1)
        with pytest.raises(InvalidParameterError):
            RdpBudget(2.0, -0.1)


class TestGaussianStepEpsilon:
    def test_reference_value(self):
        got = gaussian_step_epsilon(0.1, 1.0, 1.0, 1e-5)
        np.testing.assert_allclose(got, 0.9689610525210778842517, rtol=1e-14)

    def test_scaling_structure(self):
        base = gaussian_step_epsilon(0.1, 1.0, 1.0, 1e-5)
        np.testing.assert_allclose(
            gaussian_step_epsilon(0.2, 1.0, 1.0, 1e-5), 2 * base, rtol=1e-14
        )
        np.testing.assert_allclose(
            gaussian_step_epsilon(0.1, 1.0, 4.0, 1e-5), base / 4, rtol=1e-14
        )

    def test_zero_sensitivity_is_free(self):
        assert gaussian_step_epsilon(0.0, 1.0, 0.0, 1e-5) == 0.0
        assert gaussian_step_epsilon(0.3, 0.0, 0.0, 1e-5) == 0.0

    def test_zero_noise_with_sensitivity_is_infinite(self):
        with pytest.raises(InfinitePrivacyLossError):
            gaussian_step_epsilon(0.1, 1.0, 0.0, 1e-5)

    def test_domain_checks(self):
        with pytest.raises(InvalidParameterError):
            gaussian_step_epsilon(-0.1, 1.0, 1.0, 1e-5)
        with pytest.raises(InvalidParameterError):
            gaussian_step_epsilon(0.1, 1.0, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            gaussian_step_epsilon(0.1, 1.0, -1.0, 1e-5)


class TestSubsampleAmplify:
    def test_reference_value(self):
        out = subsample_amplify(0.968961, 1000, 1e-5)
        np.testing.assert_allclose(out.epsilon, 0.002631738993435475687, rtol=1e-13)
        np.testing.assert_allclose(out.delta, 1e-8, rtol=1e-15)

    def test_keeps_whole_exponential_inside_log(self):
        # the +1 form: at eps = 0 the amplified value is ln(1 + 1/m), not 0
        out = subsample_amplify(0.0, 100, 1e-5)
        np.testing.assert_allclose(out.epsilon, math.log1p(1.0 / 100), rtol=1e-15)
        assert out.epsilon > 0.0

    def test_m_one_adds_ln_of_one_plus_exp(self):
        out = subsample_amplify(1.0, 1, 0.5)
        np.testing.assert_allclose(out.epsilon, math.log1p(math.e), rtol=1e-15)

    def test_domain_checks(self):
        with pytest.raises(InvalidParameterError):
            subsample_amplify(-0.1, 10, 1e-5)
        with pytest.raises(InvalidParameterError):
            subsample_amplify(0.1, 0, 1e-5)
        with pytest.raises(InvalidParameterError):
            subsample_amplify(0.1, 1.5, 1e-5)
        with pytest.raises(InvalidParameterError):
            subsample_amplify(0.1, 10, 0.0)


@given(
    eps=st.floats(min_value=0.0, max_value=5.0),
    m1=st.integers(min_value=1, max_value=10**6),
    m2=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200)
def test_amplification_monotone_in_m(eps, m1, m2):
    lo, hi = sorted((m1, m2))
    a = subsample_amplify(eps, hi, 1e-5)
    b = subsample_amplify(eps, lo, 1e-5)
    assert a.epsilon <= b.epsilon
    assert a.delta <= b.delta
    assert a.epsilon <= eps + math.log1p(1.0 / hi) + 1e-12


class TestDeltaAllotment:
    def test_telescopes_to_half_delta(self):
        delta = 1e-4
        for T in (2, 10, 1000):
            total = sum(step_delta_allotment(t, delta) for t in range(2, T + 1))
            np.testing.assert_allclose(total, 0.5 * delta * (1.0 - 1.0 / T), rtol=1e-12)

    def test_half_delta_plus_allotments_stays_under_delta(self):
        delta = 1e-4
        total = 0.5 * delta + sum(step_delta_allotment(t, delta) for t in range(2, 2001))
        assert total < delta
        np.testing.assert_allclose(total, delta * (1.0 - 0.5 / 2000), rtol=1e-12)

    def test_starts_at_t_two(self):
        with pytest.raises(InvalidParameterError, match="allotment starts at t=2"):
            step_delta_allotment(1, 1e-4)


class TestStrongCompose:
    def test_reference_value_thousand_uniform_steps(self):
        eps = math.e / 1000.0
        out = strong_compose([(eps, 0.0)] * 1000, 1e-5)
        np.testing.assert_allclose(out.epsilon, 0.43211396649707017750, rtol=1e-13)
        np.testing.assert_allclose(out.delta, 1e-5, rtol=1e-15)

    def test_two_terms_add_up(self):
        eps = math.e / 1000.0
        first = math.sqrt(2.0 * math.log(2.0 / 1e-5) * 1000 * eps * eps)
        second = 1000 * eps * math.expm1(eps)
        np.testing.assert_allclose(first, 0.42471485852379901619, rtol=1e-13)
        np.testing.assert_allclose(second, 0.0073991079732711613114, rtol=1e-13)
        out = strong_compose([(eps, 0.0)] * 1000, 1e-5)
        np.testing.assert_allclose(out.epsilon, first + second, rtol=1e-14)

    def test_deltas_accumulate(self):
        out = strong_compose([(0.1, 1e-7), (0.2, 2e-7)], 1e-5)
        np.testing.assert_allclose(out.delta, 1e-5 + 3e-7, rtol=1e-14)

    def test_empty_composition_costs_only_slack(self):
        out = strong_compose([], 1e-5)
        assert out.epsilon == 0.0
        assert out.delta == 1e-5

    def test_rejects_saturated_delta(self):
        with pytest.raises(InvalidParameterError):
            strong_compose([(0.1, 0.6)], 0.5)
        with pytest.raises(InvalidParameterError):
            strong_compose([(-0.1, 0.0)], 1e-5)
        with pytest.raises(InvalidParameterError):
            strong_compose([(0.1, 0.0)], 0.0)


class TestMultiPassPrivacy:
    def test_reference_value(self):
        out = multi_pass_privacy(1000, 1000, 1e-5)
        np.testing.assert_allclose(out.epsilon, 0.43210391462272966642, rtol=1e-13)
        assert out.delta == 1e-5

    def test_zero_steps_costs_nothing(self):
        assert multi_pass_privacy(100, 0, 1e-5).epsilon == 0.0

    def test_depends_on_t_over_n_squared(self):
        # with T = (n eps)^2 the value is a function of eps and delta alone
        a = multi_pass_privacy(30, 900, 1e-5)
        b = multi_pass_privacy(100, 10000, 1e-5)
        np.testing.assert_allclose(a.epsilon, b.epsilon, rtol=1e-12)

    def test_domain_checks(self):
        with pytest.raises(InvalidParameterError):
            multi_pass_privacy(0, 10, 1e-5)
        with pytest.raises(InvalidParameterError):
            multi_pass_privacy(10, -1, 1e-5)
        with pytest.raises(InvalidParameterError):
            multi_pass_privacy(10, 10, 2.0)


@given(
    n=st.integers(min_value=2, max_value=10**5),
    T1=st.integers(min_value=0, max_value=10**6),
    T2=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200)
def test_multi_pass_privacy_monotone_in_t(n, T1, T2):
    lo, hi = sorted((T1, T2))
    assert multi_pass_privacy(n, lo, 1e-5).epsilon <= multi_pass_privacy(n, hi, 1e-5).epsilon


class TestFeldmanRdpBound:
    def test_single_step_hand_value(self):
        out = feldman_rdp_bound(2.0, 1.0, [0.1], [2.0], [1])
        np.testing.assert_allclose(out.epsilon, 1.0, rtol=1e-14)
        assert out.alpha == 2.0

    def test_two_step_hand_value(self):
        # tau = 1: 4 * 0.01 / (1 * 0.05) = 0.8; tau = 2: 4 * 0.04 / (4 * 0.04) = 1
        out = feldman_rdp_bound(2.0, 1.0, [0.1, 0.2], [1.0, 1.0], [1, 2])
        np.testing.assert_allclose(out.epsilon, 1.0, rtol=1e-14)

    def test_matches_direct_loop(self):
        gen = np.random.default_rng(42)
        for _ in range(20):
            T = int(gen.integers(1, 12))
            etas = gen.uniform(0.01, 1.0, size=T)
            sigmas = gen.uniform(0.1, 3.0, size=T)
            batches = gen.integers(1, 50, size=T)
            alpha = float(gen.uniform(1.1, 40.0))
            G = float(gen.uniform(0.1, 4.0))
            best = 0.0
            for tau in range(T):
                tail = sum(etas[t] ** 2 * sigmas[t] ** 2 for t in range(tau, T))
                best = max(best, 2 * alpha * G * G * etas[tau] ** 2 / (batches[tau] ** 2 * tail))
            got = feldman_rdp_bound(alpha, G, etas, sigmas, batches)
            np.testing.assert_allclose(got.epsilon, best, rtol=1e-12)

    def test_late_noise_protects_early_steps(self):
        early = feldman_rdp_bound(2.0, 1.0, [0.5, 0.5], [1.0, 1.0], [1, 1])
        padded = feldman_rdp_bound(2.0, 1.0, [0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [1, 1, 1])
        assert padded.epsilon <= early.epsilon + 1e-15

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            feldman_rdp_bound(2.0, 1.0, [], [], [])
        with pytest.raises(InvalidParameterError):
            feldman_rdp_bound(2.0, 1.0, [0.1], [0.0], [1])
        with pytest.raises(InvalidParameterError):
            feldman_rdp_bound(2.0, 1.0, [0.1, 0.2], [1.0], [1])
        with pytest.raises(InvalidParameterError):
            feldman_rdp_bound(1.0, 1.0, [0.1], [1.0], [1])
        with pytest.raises(InvalidParameterError):
            feldman_rdp_bound(2.0, 1.0, [0.1], [1.0], [0])


class TestSinglePassRdp:
    def test_closed_form(self):
        out = single_pass_rdp(2.0, 0.01, 1.0, 1e-3)
        np.testing.assert_allclose(out.epsilon, 0.4, rtol=1e-14)

    def test_zero_beta0_is_infinite(self):
        with pytest.raises(InfinitePrivacyLossError):
            single_pass_rdp(2.0, 0.01, 1.0, 0.0)

    def test_order_must_exceed_one(self):
        with pytest.raises(InvalidParameterError):
            single_pass_rdp(1.0, 0.01, 1.0, 1e-3)


class TestRdpToDp:
    def test_reference_value(self):
        out = rdp_to_dp(RdpBudget(10.0, 0.1), 1e-6)
        np.testing.assert_allclose(out.epsilon, 1.6350567286626971227, rtol=1e-14)
        assert out.delta == 1e-6

    def test_higher_order_converts_tighter(self):
        loose = rdp_to_dp(RdpBudget(2.0, 0.1), 1e-6)
        tight = rdp_to_dp(RdpBudget(50.0, 0.1), 1e-6)
        assert tight.epsilon < loose.epsilon

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            rdp_to_dp(RdpBudget(2.0, 0.1), 1.5)


class TestCertifyTheorem1:
    def test_calibrated_schedule_doubles_epsilon(self):
        sched = single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5)
        out = certify_theorem1(sched)
        np.testing.assert_allclose(out.epsilon, 1.0, rtol=1e-12)
        assert out.delta == 1e-5

    def test_rdp_leg_equals_target(self):
        sched = single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5)
        rdp = single_pass_rdp(sched.renyi_order, sched.eta, sched.G, sched.beta0)
        np.testing.assert_allclose(rdp.epsilon, 0.5, rtol=1e-12)
        np.testing.assert_allclose(rdp.alpha, 24.025850929940456840, rtol=1e-14)


@given(
    T=st.integers(min_value=1, max_value=10**6),
    G=st.floats(min_value=0.05, max_value=20.0),
    eta0=st.floats(min_value=0.05, max_value=20.0),
    epsilon=st.floats(min_value=1e-3, max_value=8.0),
    delta=st.floats(min_value=1e-12, max_value=0.2),
)
@settings(max_examples=300, deadline=None)
def test_certified_budget_is_twice_target(T, G, eta0, epsilon, delta):
    sched = single_pass_schedule(T, G, eta0, epsilon, delta)
    out = certify_theorem1(sched)
    assert abs(out.epsilon - 2.0 * epsilon) <= 1e-12 * 2.0 * epsilon
    assert out.delta == delta


class TestCertifyTheorem2:
    def test_reference_point(self):
        exact, claimed = certify_theorem2(multi_pass_schedule(10_000, 2.0, 0.1, 1e-5, 1.0, 1.0))
        np.testing.assert_allclose(exact.epsilon, 1.4169568700406899137, rtol=1e-13)
        np.testing.assert_allclose(claimed.epsilon, 1.0781157083536700986, rtol=1e-13)
        np.testing.assert_allclose(
            exact.epsilon / claimed.epsilon, 1.3142901629774461854, rtol=1e-12
        )

    def test_exact_leg_is_the_closed_form(self):
        for n, a, eps in ((1000, 2.0, 0.5), (5000, 1.5, 0.3)):
            sched = multi_pass_schedule(n, a, eps, 1e-5, 1.0, 1.0)
            exact, _ = certify_theorem2(sched)
            T = round(float(n) ** a * eps * eps)
            assert sched.T == T
            direct = multi_pass_privacy(n, T, 1e-5)
            assert abs(exact.epsilon - direct.epsilon) <= 1e-12 * max(direct.epsilon, 1.0)

    def test_zero_epsilon_costs_nothing(self):
        # multi_pass_schedule refuses eps = 0, so the T = 0 schedule is built by hand
        sched = MultiPassSchedule(
            n=1000, pass_exponent=2.0, epsilon=0.0, delta=1e-5, eta0=1.0, G=1.0, T=0, beta0=1.0
        )
        exact, claimed = certify_theorem2(sched)
        assert exact.epsilon == 0.0
        assert claimed.epsilon == 0.0

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_zero_step_schedule_reports_zero_cost(self, epsilon):
        # the report has no step size to print and no ratio against a zero claim
        sched = MultiPassSchedule(
            n=1000, pass_exponent=2.0, epsilon=epsilon, delta=1e-5, eta0=1.0, G=1.0, T=0, beta0=1.0
        )
        report = parse_report(account_report(sched))
        assert report["T"] == "0"
        assert "eta1" not in report and "etaT" not in report
        assert report["composed_epsilon"] == report["closed_form_epsilon"] == "0"
        assert report["composed_delta"] == "1e-05"
        assert ("closed_to_claimed_ratio" in report) == (epsilon > 0)

    def test_epsilon_too_small_for_n(self):
        with pytest.raises(InvalidParameterError, match="epsilon too small for n=10"):
            multi_pass_schedule(10, 1.0, 0.01, 1e-5, 1.0, 1.0)

    def test_claimed_formula(self):
        _, claimed = certify_theorem2(multi_pass_schedule(1000, 2.0, 0.5, 1e-5, 1.0, 1.0))
        expected = 3.0 * 0.5 * math.sqrt(math.log(2.0 / 1e-5)) + 3.0 * 0.25
        np.testing.assert_allclose(claimed.epsilon, expected, rtol=1e-14)


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        assert " = " in line, line
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


class TestAccountReport:
    def test_single_pass_block(self):
        sched = single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5)
        report = parse_report(account_report(sched))
        assert report["mode"] == "single-pass"
        assert int(report["T"]) == 10_000
        np.testing.assert_allclose(float(report["rdp_epsilon"]), 0.5, rtol=1e-8)
        np.testing.assert_allclose(float(report["dp_epsilon"]), 1.0, rtol=1e-8)
        np.testing.assert_allclose(float(report["theorem_epsilon"]), 1.0, rtol=1e-8)
        np.testing.assert_allclose(float(report["renyi_order"]), 24.0258509, rtol=1e-8)
        assert int(report["sample_budget"]) == sched.sample_budget

    def test_multi_pass_block(self):
        sched = multi_pass_schedule(200, 1.5, 0.9, 1e-5, 1.0, 1.0)
        report = parse_report(account_report(sched))
        assert report["mode"] == "multi-pass"
        np.testing.assert_allclose(float(report["eta1"]), sched.eta(1), rtol=1e-8)
        np.testing.assert_allclose(float(report["etaT"]), sched.eta(sched.T), rtol=1e-8)
        closed = multi_pass_privacy(sched.n, sched.T, sched.delta)
        np.testing.assert_allclose(float(report["closed_form_epsilon"]), closed.epsilon, rtol=1e-8)
        ratio = float(report["closed_form_epsilon"]) / float(report["claimed_epsilon"])
        np.testing.assert_allclose(float(report["closed_to_claimed_ratio"]), ratio, rtol=1e-6)
        assert float(report["composed_epsilon"]) > 0.0
        assert float(report["composed_delta"]) < sched.delta
        assert "exp(eps)" in report["note"]

    def test_chunked_enumeration_matches_one_pass(self, monkeypatch):
        # one chunk covering every step is the unchunked enumeration; chunking
        # only reorders the sums, so maxima agree exactly and sums to rounding
        sched = multi_pass_schedule(120, 1.7, 0.9, 1e-5, 1.0, 1.0)
        monkeypatch.setattr(privacy, "_REPORT_CHUNK", sched.T)
        whole = privacy._enumerated_multi_pass(sched)
        monkeypatch.setattr(privacy, "_REPORT_CHUNK", 97)
        chunked = privacy._enumerated_multi_pass(sched)
        assert sched.T > 10 * 97
        assert chunked[:2] == whole[:2]
        np.testing.assert_allclose(chunked[2].epsilon, whole[2].epsilon, rtol=1e-12)
        np.testing.assert_allclose(chunked[2].delta, whole[2].delta, rtol=1e-12)

    def test_multi_pass_single_step_is_free(self):
        sched = multi_pass_schedule(10, 1.0, 0.32, 1e-3, 1.0, 1.0)
        assert sched.T == 1
        report = parse_report(account_report(sched))
        assert report["step_epsilon_max"] == "0"
        assert report["composed_epsilon"] == "0"

    def test_unknown_schedule_rejected(self):
        with pytest.raises(InvalidParameterError):
            account_report(object())

    def test_schedule_outside_noise_domain_rejected(self):
        # n·δ >= 2.5 would make η_1 NaN and every enumerated step NaN
        with pytest.raises(InvalidParameterError, match="n·δ"):
            account_report(MultiPassSchedule(
                n=10, pass_exponent=1.0, epsilon=0.1, delta=0.5,
                eta0=1.0, G=1.0, T=5, beta0=0.25,
            ))


def scalar_composition(sched):
    """Steps 2..T of the multi-pass account, one scalar call per step.

    Each step is a Gaussian mechanism at n·δ_t that subsampling over n
    amplifies to (ε_t, δ_t); the steps are strongly composed with δ′ = δ/2.
    """
    n, delta = sched.n, sched.delta
    step_eps, pairs = [], []
    for t in range(2, sched.T + 1):
        ratio = sched.eta(t) / sched.eta(t - 1)
        sigma = math.sqrt((1.0 - ratio * ratio) * sched.beta0)
        delta_gauss = n * step_delta_allotment(t, delta)
        eps = gaussian_step_epsilon(sched.eta(t) * ratio, sched.G, sigma, delta_gauss)
        amplified = subsample_amplify(eps, n, delta_gauss)
        step_eps.append(eps)
        pairs.append((amplified.epsilon, amplified.delta))
    return max(step_eps), max(e for e, _ in pairs), strong_compose(pairs, delta / 2.0)


class TestReportCrossChecks:
    @pytest.mark.parametrize(
        "shape", [(200, 1.5, 0.9, 1e-5), (60, 2.0, 0.9, 1e-3), (1000, 1.0, 1.7, 1e-9)]
    )
    def test_enumeration_equals_scalar_composition(self, shape):
        sched = multi_pass_schedule(*shape, 1.0, 1.0)
        assert 2 <= sched.T <= 3000
        step_max, amplified_max, composed = scalar_composition(sched)
        got = privacy._enumerated_multi_pass(sched)
        np.testing.assert_allclose(got[0], step_max, rtol=1e-12)
        np.testing.assert_allclose(got[1], amplified_max, rtol=1e-12)
        np.testing.assert_allclose(got[2].epsilon, composed.epsilon, rtol=1e-12)
        np.testing.assert_allclose(got[2].delta, composed.delta, rtol=1e-12)
        report = parse_report(account_report(sched))
        for key, value in (
            ("step_epsilon_max", step_max),
            ("amplified_epsilon_max", amplified_max),
            ("composed_epsilon", composed.epsilon),
            ("composed_delta", composed.delta),
        ):
            np.testing.assert_allclose(float(report[key]), value, rtol=1e-8)

    def test_composed_account_is_within_the_closed_form(self):
        checked = 0
        for n in (50, 500, 10_000):
            for exponent in (1.0, 1.5, 2.0):
                for delta in (1e-9, 1e-5, 1e-2):
                    if n * delta >= 2.5:
                        continue
                    T = round(float(n) ** exponent * 0.5**2)
                    if not 2 <= T <= 500_000:
                        continue
                    sched = multi_pass_schedule(n, exponent, 0.5, delta, 1.0, 1.0)
                    report = parse_report(account_report(sched))
                    composed = float(report["composed_epsilon"])
                    closed = float(report["closed_form_epsilon"])
                    assert 0.0 < composed <= closed, (n, exponent, delta, composed, closed)
                    assert float(report["composed_delta"]) < delta
                    checked += 1
        assert checked >= 10


# sha256 of account_report text for (G, η₀) = (1, 1), recorded before the
# report called the per-step accountant functions; any byte that moves
# shows here.
SINGLE_PASS_REPORT_DIGESTS = {
    1: "18da6b9caf9120d7d2a7156b037f3d4036a45abaa5f5322d6f3748f7b2e1aba2",
    8: "59e14b108971fd4f9d59ce7204f90372474a638efdf8f00ec86679150ae473a3",
    10_000: "6fba4110f5197ff03ff3ed5de2e564fb9acdf2a60bc901a529a49221480e9370",
}
MULTI_PASS_REPORT_DIGESTS = {
    (200, 1.5, 0.9, 1e-5): "624b018e2d4b09f6ba43e74d92c3ab7576f88ee20eae2fc9aab9d3429da2bdda",
    (10, 1.0, 0.32, 1e-3): "1d05d3e6f117df0dc44bee59fb4f3b6e4cc8721ea39002abc38dc9ee2f70a1ff",
    (120, 1.7, 0.9, 1e-5): "149e06ab62215b5e3668cf4905974478affbc93fa6fa70b017f4cc5d72bb6917",
    (50, 1.0, 1.0, 1e-2): "ee36bf56e67d3bd3f994cd284d05ac76e749b7e99ed42591d4491f461bcdd2b3",
    (1000, 2.0, 0.5, 1e-5): "130d78184ca7f4317066139ce4439540deee50b414cb02000ccb4c3241478e5f",
    (10_000, 1.75, 0.316, 1e-5): "26ff59a9245f3b4df249b1274b85a2571175994c97c2b82ba464387715b0cc91",
}


@pytest.mark.parametrize("T", sorted(SINGLE_PASS_REPORT_DIGESTS))
def test_single_pass_report_matches_recorded_digest(T):
    text = account_report(single_pass_schedule(T, 1.0, 1.0, 0.5, 1e-5))
    assert hashlib.sha256(text.encode()).hexdigest() == SINGLE_PASS_REPORT_DIGESTS[T]


@pytest.mark.parametrize("shape", sorted(MULTI_PASS_REPORT_DIGESTS))
def test_multi_pass_report_matches_recorded_digest(shape):
    text = account_report(multi_pass_schedule(*shape, 1.0, 1.0))
    assert hashlib.sha256(text.encode()).hexdigest() == MULTI_PASS_REPORT_DIGESTS[shape]
