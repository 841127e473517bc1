import decimal
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsgld import privacy
from dpsgld.core import InfinitePrivacyLossError, InvalidParameterError, _fmt
from dpsgld.privacy import (
    DpBudget,
    RdpBudget,
    account_report,
    certify_theorem1,
    certify_theorem2,
    feldman_rdp_bound,
    multi_pass_privacy,
    rdp_to_dp,
    single_pass_rdp,
)
from dpsgld.schedules import (
    MultiPassSchedule,
    SinglePassSchedule,
    multi_pass_schedule,
    single_pass_schedule,
)

from helpers import (
    ZERO_NOISE, build_unchecked, gaussian_step_epsilon, refuses_zero_noise, step_delta_allotment, subsample_amplify,
)

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
    """privacy._composed: strong composition from Σε_t², Σε_t(e^{ε_t}−1) and Σδ_t."""

    # a thousand steps of ε_t = e/1000 and δ_t = 0
    EPS = math.e / 1000.0
    THOUSAND = (1000 * EPS * EPS, 1000 * EPS * math.expm1(EPS), 0.0)

    def test_reference_value_thousand_uniform_steps(self):
        out = privacy._composed(*self.THOUSAND, 1e-5)
        np.testing.assert_allclose(out.epsilon, 0.43211396649707017750, rtol=1e-13)
        np.testing.assert_allclose(out.delta, 1e-5, rtol=1e-15)

    def test_two_terms_add_up(self):
        first = math.sqrt(2.0 * math.log(2.0 / 1e-5) * self.THOUSAND[0])
        second = self.THOUSAND[1]
        np.testing.assert_allclose(first, 0.42471485852379901619, rtol=1e-13)
        np.testing.assert_allclose(second, 0.0073991079732711613114, rtol=1e-13)
        out = privacy._composed(*self.THOUSAND, 1e-5)
        np.testing.assert_allclose(out.epsilon, first + second, rtol=1e-14)

    def test_deltas_accumulate(self):
        out = privacy._composed(0.1**2 + 0.2**2, 0.1 * math.expm1(0.1) + 0.2 * math.expm1(0.2), 3e-7, 1e-5)
        np.testing.assert_allclose(out.delta, 1e-5 + 3e-7, rtol=1e-14)

    def test_empty_composition_costs_only_slack(self):
        out = privacy._composed(0.0, 0.0, 0.0, 1e-5)
        assert out.epsilon == 0.0
        assert out.delta == 1e-5

    def test_rejects_saturated_delta(self):
        with pytest.raises(InvalidParameterError, match="composed delta budget 1.1 >= 1"):
            privacy._composed(0.01, 0.0, 0.6, 0.5)
        for delta_prime in (0.0, 1.0):
            with pytest.raises(InvalidParameterError, match=r"delta' must be in \(0, 1\)"):
                privacy._composed(0.01, 0.0, 0.0, delta_prime)


class TestMultiPassPrivacy:
    def test_reference_value(self):
        out = multi_pass_privacy(1000, 1000, 1e-5)
        np.testing.assert_allclose(out.epsilon, 0.43210391462272966642, rtol=1e-13)
        assert out.delta == 1e-5

    def test_zero_steps_costs_nothing(self):
        assert multi_pass_privacy(100, 0, 1e-5).epsilon == 0.0
        assert multi_pass_privacy(1000, 0, 1e-5).epsilon == 0.0

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
        np.testing.assert_allclose(float(report["eta1"]), sched.etas[0], rtol=1e-8)
        np.testing.assert_allclose(float(report["etaT"]), sched.etas[-1], rtol=1e-8)
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

    def test_refuses_the_single_pass_schedules_with_a_noiseless_step(self):
        # σ_t falls with t, so the schedule checks σ_T alone: across the eta0 at
        # which σ_t² underflows to 0 at some step of T = 256 (eta0 < 6e-161,
        # from step 8 at 1e-161 to step 240 at 5.6e-161) it refuses to build
        # exactly where its full σ array has a zero, and every schedule it
        # builds has a finite account
        outcomes = set()
        for eta0 in np.geomspace(1e-161, 1e-160, 200):
            args = (256, 1.0, float(eta0), 0.5, 1e-5)
            if not build_unchecked(single_pass_schedule, *args).sigmas.all():
                with pytest.raises(InfinitePrivacyLossError, match=ZERO_NOISE):
                    account_report(single_pass_schedule(*args))
                outcomes.add("refused")
            else:
                assert float(parse_report(account_report(single_pass_schedule(*args)))["dp_epsilon"]) > 0.0
                outcomes.add("reported")
        assert outcomes == {"refused", "reported"}

    def test_multi_pass_single_step_is_free(self):
        sched = multi_pass_schedule(10, 1.0, 0.32, 1e-3, 1.0, 1.0)
        assert sched.T == 1
        report = parse_report(account_report(sched))
        assert report["step_epsilon_max"] == "0"
        assert report["composed_epsilon"] == "0"

    def test_single_step_report_lines(self):
        # T = 1: the one step is the data-independent initial draw, so the
        # enumerated account is zero and only δ is spent
        sched = multi_pass_schedule(10, 1.0, 0.32, 1e-3, 1.0, 1.0)
        assert sched.T == 1 and _fmt(sched.etas[0]) == _fmt(sched.etas[-1]) == "0.475803909"
        assert account_report(sched).splitlines() == [
            "mode = multi-pass",
            "T = 1",
            "G = 1",
            "eta0 = 1",
            "beta0 = 10",
            "epsilon_target = 0.32",
            "delta = 0.001",
            "sample_budget = 1",
            "eta1 = 0.475803909",
            "etaT = 0.475803909",
            "step_epsilon_max = 0",
            "amplified_epsilon_max = 0",
            "composed_epsilon = 0",
            "composed_delta = 0.001",
            "closed_form_epsilon = 1.13373484",
            "claimed_epsilon = 2.95389449",
            "closed_to_claimed_ratio = 0.383810202",
            "note = amplification uses ln(1 + exp(eps)/m) with the whole exp(eps) kept inside the log",
        ]

    def test_report_past_the_step_cap_skips_the_enumeration(self, monkeypatch):
        sched = multi_pass_schedule(10, 1.0, 0.9, 1e-3, 1.0, 1.0)
        assert sched.T == 8
        assert (_fmt(sched.etas[0]), _fmt(sched.etas[-1])) == ("0.168222085", "0.0449179186")
        monkeypatch.setattr(privacy, "_REPORT_STEP_CAP", 5)

        def refuse(schedule):
            raise AssertionError("enumerated the steps of a schedule past the cap")

        monkeypatch.setattr(privacy, "_enumerated_multi_pass", refuse)
        assert account_report(sched).splitlines() == [
            "mode = multi-pass",
            "T = 8",
            "G = 1",
            "eta0 = 1",
            "beta0 = 1.25",
            "epsilon_target = 0.9",
            "delta = 0.001",
            "sample_budget = 8",
            "eta1 = 0.168222085",
            "etaT = 0.0449179186",
            "note = per-step enumeration skipped for T > 5",
            "closed_form_epsilon = 3.58881679",
            "claimed_epsilon = 9.87382824",
            "closed_to_claimed_ratio = 0.363467614",
            "note = amplification uses ln(1 + exp(eps)/m) with the whole exp(eps) kept inside the log",
        ]

    def test_report_past_the_step_cap_refuses_zero_noise(self, monkeypatch):
        # β₀ = 9.9e-324: σ_t² underflows to 0 from step 5 of 8, so the
        # account is infinite whether or not the steps are enumerated
        args = (10, 1.0, 0.9, 1e-3, 3e-162, 1.0)
        sigmas = build_unchecked(multi_pass_schedule, *args).sigmas
        assert len(sigmas) == 8 and sigmas[:4].all() and not sigmas[4:].any()
        monkeypatch.setattr(privacy, "_REPORT_STEP_CAP", 5)
        with refuses_zero_noise(8, "9.88131e-324"):
            account_report(multi_pass_schedule(*args))

    @pytest.mark.parametrize("cap", [10**7, 5], ids=["below-cap", "past-cap"])
    def test_refuses_the_multi_pass_schedules_with_a_noiseless_step(self, monkeypatch, cap):
        # σ_t falls with t, so the schedule checks σ_T alone: across the eta0 at
        # which σ_t² underflows to 0 at some step of T = 2291 (from step 5 at
        # 1e-161 to step 2250 at 2.4e-160) it refuses to build exactly where
        # its full σ array has a zero, with or without the enumeration
        monkeypatch.setattr(privacy, "_REPORT_STEP_CAP", cap)
        outcomes = set()
        for eta0 in np.geomspace(1e-161, 3e-160, 200):
            args = (200, 1.5, 0.9, 1e-5, float(eta0), 1.0)
            sigmas = build_unchecked(multi_pass_schedule, *args).sigmas
            if not sigmas.all():
                with pytest.raises(InfinitePrivacyLossError, match=ZERO_NOISE):
                    account_report(multi_pass_schedule(*args))
                outcomes.add("refused")
            else:
                report = parse_report(account_report(multi_pass_schedule(*args)))
                assert float(report["closed_form_epsilon"]) > 0.0
                outcomes.add("reported")
        assert len(sigmas) == 2291 and outcomes == {"refused", "reported"}

    @pytest.mark.parametrize("cap", [10**7, 5], ids=["below-cap", "past-cap"])
    @pytest.mark.parametrize(
        "make, cls",
        [
            (lambda: single_pass_schedule(2000, 1.0, 1.0, 0.5, 1e-5), SinglePassSchedule),
            (lambda: multi_pass_schedule(200, 1.5, 0.9, 1e-5, 1.0, 1.0), MultiPassSchedule),
        ],
        ids=["single-pass", "multi-pass"],
    )
    def test_report_builds_no_per_step_array(self, monkeypatch, cap, make, cls):
        # a T-long array would bound T by memory; neither the schedule's build,
        # with its noise check, nor the report reads one
        monkeypatch.setattr(privacy, "_REPORT_STEP_CAP", cap)
        expected = account_report(make())
        for name in ("etas", "lambda_etas", "sigmas", "batch_sizes"):

            def refuse(schedule, name=name):
                raise AssertionError(f"read {cls.__name__}.{name}")

            monkeypatch.setattr(cls, name, property(refuse))
        assert account_report(make()) == expected

    def test_enumeration_memory_is_a_few_chunks(self):
        # T = 4·10⁶ is 61 chunks; the work buffers are sized from the chunk,
        # and one T-long float64 array alone would take 32 MB
        sched = multi_pass_schedule(4000, 2.0, 0.5, 1e-5, 1.0, 1.0)
        assert sched.T == 4_000_000
        tracemalloc.start()
        try:
            privacy._enumerated_multi_pass(sched)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * (privacy._REPORT_CHUNK + 1)

    def test_chunk_boundaries_leave_the_report_unchanged(self, monkeypatch):
        # each chunk re-evaluates η at its step lo − 1, which the step lo ratio reads
        sched = multi_pass_schedule(100, 1.5, 0.45, 1e-5, 1.0, 1.0)
        assert sched.T == 202
        whole = account_report(sched)
        monkeypatch.setattr(privacy, "_REPORT_CHUNK", 7)
        assert account_report(sched) == whole

    def test_unknown_schedule_rejected(self):
        with pytest.raises(InvalidParameterError):
            account_report(object())

    def test_schedule_outside_noise_domain_rejected(self):
        # n·δ >= 2.5 would make η_1 NaN and every enumerated step NaN
        with pytest.raises(InvalidParameterError, match="n·δ"):
            account_report(multi_pass_schedule(10, 1.0, 0.75, 0.5, 1.0, 1.0))


def scalar_composition(sched):
    """Steps 2..T of the multi-pass account, one scalar call per step.

    Each step is a Gaussian mechanism at n·δ_t that subsampling over n
    amplifies to (ε_t, δ_t); the steps are strongly composed with δ′ = δ/2.
    """
    n, delta = sched.n, sched.delta
    step_eps, pairs = [], []
    etas = sched.etas.tolist()
    for t in range(2, sched.T + 1):
        ratio = etas[t - 1] / etas[t - 2]
        sigma = math.sqrt((1.0 - ratio * ratio) * sched.beta0)
        delta_gauss = n * step_delta_allotment(t, delta)
        eps = gaussian_step_epsilon(etas[t - 1] * ratio, sched.G, sigma, delta_gauss)
        amplified = subsample_amplify(eps, n, delta_gauss)
        step_eps.append(eps)
        pairs.append((amplified.epsilon, amplified.delta))
    amplified_eps = np.array([e for e, _ in pairs])
    composed = privacy._composed(
        float(np.sum(amplified_eps**2)), float(np.sum(amplified_eps * np.expm1(amplified_eps))),
        float(np.sum([d for _, d in pairs])), delta / 2.0,
    )
    return max(step_eps), float(amplified_eps.max()), composed


def enumeration_matching_scalar_composition(sched):
    """scalar_composition(sched), after checking that the enumeration matches it."""
    step_max, amplified_max, composed = scalar_composition(sched)
    got = privacy._enumerated_multi_pass(sched)
    np.testing.assert_allclose(got[0], step_max, rtol=1e-12)
    np.testing.assert_allclose(got[1], amplified_max, rtol=1e-12)
    np.testing.assert_allclose(got[2].epsilon, composed.epsilon, rtol=1e-12)
    np.testing.assert_allclose(got[2].delta, composed.delta, rtol=1e-12)
    return step_max, amplified_max, composed


class TestReportCrossChecks:
    @pytest.mark.parametrize(
        "shape", [(200, 1.5, 0.9, 1e-5), (60, 2.0, 0.9, 1e-3), (1000, 1.0, 1.7, 1e-9)]
    )
    def test_enumeration_equals_scalar_composition(self, shape):
        sched = multi_pass_schedule(*shape, 1.0, 1.0)
        assert 2 <= sched.T <= 3000
        step_max, amplified_max, composed = enumeration_matching_scalar_composition(sched)
        report = parse_report(account_report(sched))
        for key, value in (
            ("step_epsilon_max", step_max),
            ("amplified_epsilon_max", amplified_max),
            ("composed_epsilon", composed.epsilon),
            ("composed_delta", composed.delta),
        ):
            np.testing.assert_allclose(float(report[key]), value, rtol=1e-8)

    def test_chunked_enumeration_equals_scalar_composition(self, monkeypatch):
        # 24 chunks of 97 steps, the last one short (T − 1 = 2290 = 23·97 + 59):
        # a work buffer that leaked a longer chunk's tail would move the sums
        sched = multi_pass_schedule(200, 1.5, 0.9, 1e-5, 1.0, 1.0)
        assert sched.T == 2291 and (sched.T - 1) % 97 == 59
        monkeypatch.setattr(privacy, "_REPORT_CHUNK", 97)
        enumeration_matching_scalar_composition(sched)

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


def decimal_step_epsilon(sched, t: int) -> float:
    """Gaussian ε of multi-pass step t along the textbook chain, in 50-digit
    decimal arithmetic: η_t, the ratio r = η_t/η_{t−1}, σ = √((1 − r²)β₀),
    the Gaussian δ = n·δ_t, then √(8·ln(1.25/δ))·η_t·r·G/σ."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        n, delta, G, beta0 = D(sched.n), D(sched.delta), D(sched.G), D(sched.beta0)

        def eta(s):
            return beta0.sqrt() / (G * (8 * (D("2.5") * s * s / (n * delta)).ln() * s).sqrt())

        ratio = eta(D(t)) / eta(D(t - 1))
        sigma = ((1 - ratio * ratio) * beta0).sqrt()
        delta_gauss = n * (D("0.5") * delta / (t * (t - 1)))
        return float((8 * (D("1.25") / delta_gauss).ln()).sqrt() * eta(D(t)) * ratio * G / sigma)


class TestStepEpsilonAccuracy:
    # (n, α, ε, δ) = (10000, 2, 0.316, 1e-5) has T = 9 985 600. Forming
    # 1 − r² from the step sizes cancels about log₁₀ t digits (1.85e-9 at
    # t = T); the report's m-form cancels none
    SHAPE = (10_000, 2.0, 0.316, 1e-5)

    def test_step_epsilons_match_a_decimal_reference(self):
        sched = multi_pass_schedule(*self.SHAPE, 1.0, 1.0)
        assert sched.T == 9_985_600
        ts = sorted({int(t) for t in np.geomspace(2, sched.T, 200)} | {2, 3, sched.T})
        work = privacy._step_work(10)
        got = np.array([privacy._step_epsilons(sched, t, t, work)[0] for t in ts])
        want = np.array([decimal_step_epsilon(sched, t) for t in ts])
        np.testing.assert_allclose(got, want, rtol=1e-13)
        # a range gives each step the bits it gets alone
        tail = privacy._step_epsilons(sched, sched.T - 9, sched.T, work)
        assert tail[-1] == got[-1]

    def test_report_prints_the_exact_step_epsilon_max(self):
        # ε_t rises with t, so the maximum is step T's: 0.972932924758. The
        # report is the largest that MULTI_PASS_REPORT_DIGESTS pins, so its
        # digest is checked here rather than built twice
        text = account_report(multi_pass_schedule(*self.SHAPE, 1.0, 1.0))
        assert parse_report(text)["step_epsilon_max"] == "0.972932925"
        assert hashlib.sha256(text.encode()).hexdigest() == MULTI_PASS_REPORT_DIGESTS[self.SHAPE]


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
    # the three multi-pass reports of the accountant-sweep benchmark,
    # T = 10⁶, 4·10⁶ and 9 985 600, recorded before the enumeration wrote
    # its chunks in place
    (1000, 2.0, 1.0, 1e-5): "e33a8f1c9808710a420ba75603821c1b429d234e50d8fae2130fca1a257f0959",
    (4000, 2.0, 0.5, 1e-5): "e5b7b1d65b3b38eb6ef719ebc2a342a00f7b5c0f9c2a195cd8a10d40b0424b46",
    TestStepEpsilonAccuracy.SHAPE: "770e9b7b351560e46d349ecbc6aadfb552ddb20f31f9b145183ef3d4bcbe8aa6",
}


@pytest.mark.parametrize("T", sorted(SINGLE_PASS_REPORT_DIGESTS))
def test_single_pass_report_matches_recorded_digest(T):
    text = account_report(single_pass_schedule(T, 1.0, 1.0, 0.5, 1e-5))
    assert hashlib.sha256(text.encode()).hexdigest() == SINGLE_PASS_REPORT_DIGESTS[T]


@pytest.mark.parametrize(
    "shape",
    sorted(set(MULTI_PASS_REPORT_DIGESTS) - {TestStepEpsilonAccuracy.SHAPE}),
    # named by (n, α, ε, δ), so a new digest renames no other case
    ids=lambda shape: "n={}-alpha={}-eps={}-delta={}".format(*shape),
)
def test_multi_pass_report_matches_recorded_digest(shape):
    text = account_report(multi_pass_schedule(*shape, 1.0, 1.0))
    assert hashlib.sha256(text.encode()).hexdigest() == MULTI_PASS_REPORT_DIGESTS[shape]
