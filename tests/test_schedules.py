import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsgld.core import InfinitePrivacyLossError, InvalidParameterError
from dpsgld.privacy import certify_theorem1, certify_theorem2, multi_pass_privacy
from dpsgld.schedules import (
    MULTI_PASS,
    MultiPassSchedule,
    SINGLE_PASS,
    SinglePassSchedule,
    _multi_pass_etas,
    minibatch_size,
    multi_pass_schedule,
    single_pass_schedule,
)

from helpers import ZERO_NOISE, build_unchecked

# Budgets Σ_t batchSize(t) enumerated once by hand with exact integer arithmetic.
KNOWN_BUDGETS = {1: 1, 8: 11, 100: 172, 1000: 1788, 4096: 7397}


def brute_force_batch(T, t):
    k = T - t + 1
    m = 1
    while m * m * 2 * k < T:
        m += 1
    return m


class TestMinibatchSize:
    def test_matches_integer_search(self):
        for T in (1, 2, 3, 7, 8, 64, 100, 333, 1000):
            for t in range(1, T + 1):
                assert minibatch_size(T, t) == brute_force_batch(T, t)
        # the schedule's array is built from run lengths of each size and
        # must agree with the integer search at every step
        for T in [*range(1, 1500), 10**4, 10**5]:
            sizes = single_pass_schedule(T, 1.0, 1.0, 0.5, 1e-5).batch_sizes
            assert sizes.dtype == np.int64
            assert sizes.tolist() == [minibatch_size(T, t) for t in range(1, T + 1)]

    def test_known_budgets(self):
        for T, budget in KNOWN_BUDGETS.items():
            assert sum(minibatch_size(T, t) for t in range(1, T + 1)) == budget

    def test_nondecreasing_in_t(self):
        for T in (8, 100, 517):
            sizes = [minibatch_size(T, t) for t in range(1, T + 1)]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_defining_inequality(self):
        for T in (5, 64, 999):
            for t in range(1, T + 1):
                m = minibatch_size(T, t)
                k = T - t + 1
                assert m * m * 2 * k >= T
                assert m == 1 or (m - 1) * (m - 1) * 2 * k < T

    def test_step_out_of_range(self):
        with pytest.raises(InvalidParameterError, match=r"^step t=0 outside 1\.\.10$"):
            minibatch_size(10, 0)
        with pytest.raises(InvalidParameterError, match=r"^step t=11 outside 1\.\.10$"):
            minibatch_size(10, 11)


@given(T=st.integers(min_value=1, max_value=20000))
@settings(max_examples=200, deadline=None)
def test_budget_within_sqrt2_t_plus_t(T):
    # batch(t) = ceil(sqrt(T/(2k))) <= sqrt(T/(2k)) + 1, and the k^(-1/2)
    # sum telescopes below 2*sqrt(T), so the budget sits below (sqrt(2)+1)T
    s = single_pass_schedule(T, 1.0, 1.0, 0.5, 1e-5)
    assert s.sample_budget <= (math.sqrt(2.0) + 1.0) * T
    # the budget sums the batch-size runs without building batch_sizes
    assert s.sample_budget == int(s.batch_sizes.sum())


def _changes_id(value):
    return ",".join(f"{k}={v}" for k, v in value.items()) if isinstance(value, dict) else "refused"


class TestSinglePassSchedule:
    def test_calibration_constants(self):
        s = single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5)
        np.testing.assert_allclose(s.eta, 0.005, rtol=1e-15)
        np.testing.assert_allclose(s.beta0, 0.0024025850929940456840, rtol=1e-14)
        np.testing.assert_allclose(s.renyi_order, 24.025850929940456840, rtol=1e-14)
        assert s.mode == SINGLE_PASS

    def test_beta0_t64(self):
        s = single_pass_schedule(64, 1.0, 1.0, 0.5, 1e-4)
        np.testing.assert_allclose(s.beta0, 0.30344813662425571050, rtol=1e-14)

    def test_lambda_eta_is_one_over_t(self):
        s = single_pass_schedule(100, 1.0, 2.0, 0.3, 1e-6)
        for t in (1, 2, 17, 100):
            assert s.lambda_etas[t - 1] == 1.0 / t
        np.testing.assert_array_equal(s.lambda_etas, 1.0 / np.arange(1, 101))

    def test_budget_accessor_agrees(self):
        s = single_pass_schedule(1000, 1.0, 1.0, 0.5, 1e-5)
        assert s.sample_budget == int(s.batch_sizes.sum()) == KNOWN_BUDGETS[1000]

    def test_eta_scales_with_eta0_and_g(self):
        base = single_pass_schedule(400, 1.0, 1.0, 0.5, 1e-5)
        doubled = single_pass_schedule(400, 1.0, 2.0, 0.5, 1e-5)
        np.testing.assert_allclose(doubled.eta, 2 * base.eta, rtol=1e-15)
        big_g = single_pass_schedule(400, 4.0, 1.0, 0.5, 1e-5)
        np.testing.assert_allclose(big_g.eta, base.eta / 4, rtol=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            single_pass_schedule(0, 1.0, 1.0, 0.5, 1e-5)
        with pytest.raises(InvalidParameterError):
            single_pass_schedule(10, 1.0, 1.0, 0.0, 1e-5)
        with pytest.raises(InvalidParameterError):
            single_pass_schedule(10, 1.0, 1.0, 0.5, 0.0)
        with pytest.raises(InvalidParameterError):
            single_pass_schedule(10, 1.0, 1.0, 0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            single_pass_schedule(10, -1.0, 1.0, 0.5, 1e-5)

    @pytest.mark.parametrize("epsilon", [1e-160, 1e-300, 5e-324])
    def test_an_epsilon_whose_square_underflows_is_refused(self, epsilon):
        # β₀ divides by ε²: near or at its underflow to 0, β₀ is infinite
        with pytest.raises(InvalidParameterError, match="^beta0 must be > 0 and finite, got inf$"):
            single_pass_schedule(256, 1.0, 1.0, epsilon, 1e-5)

    def test_step_bounds_enforced(self):
        # the per-step arrays hold steps 1..T only, and no caller can rewrite them
        s = single_pass_schedule(10, 1.0, 1.0, 0.5, 1e-5)
        for steps in (s.etas, s.lambda_etas, s.batch_sizes):
            assert steps.shape == (10,)
            with pytest.raises(ValueError, match="read-only"):
                steps[0] = 1

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"T": 0}, "T must be an integer >= 1"),
            ({"T": 2.5}, "T must be an integer >= 1"),
            ({"G": 0.0}, "G must be > 0"),
            ({"eta0": -1.0}, "eta0 must be > 0"),
            ({"epsilon": 0.0}, "epsilon must be > 0"),
            ({"delta": 0.0}, r"delta must be in \(0, 1\)"),
            ({"delta": 1.0}, r"delta must be in \(0, 1\)"),
            # the rules on derived values, reached from inputs: G² overflows, so η = 0
            ({"G": 1e200}, "^eta must be > 0 and finite, got 0.0$"),
            # ln(1/δ)/ε vanishes next to 1
            ({"epsilon": 1e150, "delta": 1.0 - 1e-16}, "^Renyi order must be > 1, got 1.0$"),
        ],
        ids=_changes_id,
    )
    def test_direct_construction_is_validated(self, changes, message):
        inputs = dict(T=8, G=1.0, eta0=1.0, epsilon=0.5, delta=1e-5)
        SinglePassSchedule(**inputs)
        with pytest.raises(InvalidParameterError, match=message):
            SinglePassSchedule(**{**inputs, **changes})


class TestMultiPassSchedule:
    def test_frozen_reference_point(self):
        s = multi_pass_schedule(1000, 2.0, 0.5, 1e-5, 1.0, 1.0)
        assert s.T == 250_000
        np.testing.assert_allclose(s.beta0, 0.004, rtol=1e-15)
        np.testing.assert_allclose(s.etas[0], 0.0095160781706201225794, rtol=1e-13)
        np.testing.assert_allclose(s.etas[1], 0.0060159128006704839237, rtol=1e-13)
        # λ_2 = 1/η_2 − 1/η_1
        np.testing.assert_allclose(1.0 / s.etas[1] - 1.0 / s.etas[0], 61.140506206108854631, rtol=1e-12)
        np.testing.assert_allclose(s.lambda_etas[1], 0.36781595392480342326, rtol=1e-13)
        assert s.mode == MULTI_PASS

    def test_first_step_is_pure_prior_draw(self):
        s = multi_pass_schedule(64, 1.5, 0.9, 1e-4, 1.0, 1.0)
        assert s.lambda_etas[0] == 1.0

    def test_etas_strictly_decreasing(self):
        s = multi_pass_schedule(100, 2.0, 0.8, 1e-5, 1.0, 1.0)
        assert np.all(np.diff(s.etas) < 0)

    def test_beta0_formula(self):
        s = multi_pass_schedule(500, 1.7, 0.6, 1e-6, 0.3, 2.0)
        np.testing.assert_allclose(s.beta0, 0.3**2 * 500 / s.T, rtol=1e-15)

    def test_unit_batches_with_budget_t(self):
        s = multi_pass_schedule(64, 1.5, 0.9, 1e-4, 1.0, 1.0)
        assert s.batch_sizes.shape == (s.T,) and np.all(s.batch_sizes == 1)
        assert s.sample_budget == s.T

    def test_t_rounding(self):
        s = multi_pass_schedule(30, 2.0, 1.0, 1e-4, 1.0, 1.0)
        assert s.T == 900
        s = multi_pass_schedule(10, 1.0, 0.75, 1e-3, 1.0, 1.0)
        assert s.T == round(10 * 0.75**2) == 6

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            multi_pass_schedule(1, 2.0, 0.5, 1e-5, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            multi_pass_schedule(100, 2.5, 0.5, 1e-5, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            multi_pass_schedule(100, 0.5, 0.5, 1e-5, 1.0, 1.0)
        # delta so large that ln(2.5/(n delta)) would go nonpositive at t=1
        with pytest.raises(InvalidParameterError):
            multi_pass_schedule(1000, 2.0, 0.5, 0.01, 1.0, 1.0)
        # epsilon so small that T rounds to zero
        with pytest.raises(InvalidParameterError):
            multi_pass_schedule(10, 1.0, 0.01, 1e-4, 1.0, 1.0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n": 1}, "n must be an integer >= 2"),
            ({"n": 10.0}, "n must be an integer >= 2"),
            ({"pass_exponent": 7.0}, r"^pass exponent must be in \[1, 2\], got 7.0$"),
            ({"pass_exponent": 0.5}, r"pass exponent must be in \[1, 2\]"),
            ({"epsilon": 0.0}, "epsilon must be > 0"),
            ({"eta0": -2.0}, "^eta0 must be > 0 and finite, got -2.0$"),
            ({"G": 0.0}, "G must be > 0"),
            ({"delta": 0.0}, r"delta must be in \(0, 1\)"),
            ({"delta": 1.0}, r"delta must be in \(0, 1\)"),
            ({"epsilon": 0.01}, r"T = round\(n\^α·ε²\) = 0 < 1: epsilon too small for n=10"),
            # η₀² underflows, so β₀ = 0
            ({"eta0": 1e-170}, "^beta0 must be > 0 and finite, got 0.0$"),
            ({"delta": 0.25}, r"n·δ = 2\.5"),
        ],
        ids=_changes_id,
    )
    def test_direct_construction_is_validated(self, changes, message):
        inputs = dict(n=10, pass_exponent=1.0, epsilon=0.75, delta=1e-4, eta0=1.0, G=1.0)
        assert MultiPassSchedule(**inputs).T == 6
        with pytest.raises(InvalidParameterError, match=message):
            MultiPassSchedule(**{**inputs, **changes})


class TestBuiltFromInputs:
    """A schedule holds its inputs, and the values derived from them cannot disagree."""

    SINGLE = dict(T=10_000, G=1.0, eta0=1.0, epsilon=0.5, delta=1e-5)
    MULTI = dict(n=256, pass_exponent=2.0, epsilon=0.3, delta=1e-5, eta0=1.0, G=1.0)

    def test_init_fields_are_the_inputs(self):
        def init_fields(cls):
            return tuple(f.name for f in dataclasses.fields(cls) if f.init)

        assert init_fields(SinglePassSchedule) == ("T", "G", "eta0", "epsilon", "delta")
        assert init_fields(MultiPassSchedule) == ("n", "pass_exponent", "epsilon", "delta", "eta0", "G")
        assert single_pass_schedule is SinglePassSchedule
        assert multi_pass_schedule is MultiPassSchedule

    @pytest.mark.parametrize(
        "cls, derived",
        [
            (SinglePassSchedule, {"eta": 0.005}),
            (SinglePassSchedule, {"beta0": 1.0}),
            (SinglePassSchedule, {"renyi_order": 24.0}),
            (MultiPassSchedule, {"T": 5898}),
            (MultiPassSchedule, {"beta0": 1.0}),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else _changes_id(value),
    )
    def test_derived_values_cannot_be_passed(self, cls, derived):
        inputs = self.SINGLE if cls is SinglePassSchedule else self.MULTI
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            cls(**inputs, **derived)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cls(**inputs), **derived)

    @given(epsilon=st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_replace_rebuilds_the_schedule(self, epsilon):
        for cls, inputs in ((SinglePassSchedule, self.SINGLE), (MultiPassSchedule, self.MULTI)):
            replaced = dataclasses.replace(cls(**inputs), epsilon=epsilon)
            fresh = cls(**{**inputs, "epsilon": epsilon})
            # == compares every field, the derived ones too
            assert replaced == fresh and hash(replaced) == hash(fresh)

    def test_replaced_epsilon_is_certified(self):
        # the (2ε, δ) of Theorem 1 and the closed form of Theorem 2 hold for the new ε
        single = dataclasses.replace(single_pass_schedule(10_000, 1.0, 1.0, 0.5, 1e-5), epsilon=0.1)
        np.testing.assert_allclose(certify_theorem1(single).epsilon, 0.2, rtol=1e-12)
        multi = dataclasses.replace(multi_pass_schedule(256, 2.0, 0.3, 1e-5, 1.0, 1.0), epsilon=1.0)
        assert multi.T == 65_536
        exact, _ = certify_theorem2(multi)
        assert exact == multi_pass_privacy(256, 65_536, 1e-5)

    def test_equal_inputs_hash_equal(self):
        # experiments group cells by schedule, so equal inputs must make one key
        keys = {
            single_pass_schedule(64, 1, 1, 0.5, 1e-5),
            single_pass_schedule(np.int64(64), 1.0, np.float64(1.0), 0.5, 1e-5),
            dataclasses.replace(single_pass_schedule(64, 1.0, 1.0, 0.9, 1e-5), epsilon=0.5),
            multi_pass_schedule(100, 2, 0.5, 1e-5, 1, 1),
            multi_pass_schedule(np.int64(100), 2.0, 0.5, 1e-5, 1.0, np.float64(1.0)),
            dataclasses.replace(multi_pass_schedule(100, 2.0, 0.9, 1e-5, 1.0, 1.0), epsilon=0.5),
        }
        assert len(keys) == 2

    def test_inputs_are_coerced(self):
        # _fmt prints an int and a float differently, so the report needs these types
        single = single_pass_schedule(np.int64(64), 1, np.float64(1.0), 0.5, 1e-5)
        assert [type(v) for v in dataclasses.astuple(single)] == [int] + [float] * 7
        multi = multi_pass_schedule(np.int64(100), 2, 0.5, 1e-5, 1, np.float64(1.0))
        assert [type(v) for v in dataclasses.astuple(multi)] == [int, *[float] * 5, int, float]


@given(
    n=st.integers(min_value=10, max_value=300),
    pass_exponent=st.floats(min_value=1.5, max_value=2.0),
    epsilon=st.floats(min_value=0.3, max_value=1.0),
    delta=st.floats(min_value=1e-7, max_value=1e-3),
    eta0=st.floats(min_value=0.1, max_value=3.0),
    G=st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=100, deadline=None)
def test_multi_pass_chain_invariants(n, pass_exponent, epsilon, delta, eta0, G):
    s = multi_pass_schedule(n, pass_exponent, epsilon, delta, eta0, G)
    le = s.lambda_etas
    assert le[0] == 1.0
    assert np.all(le > 0.0) and np.all(le <= 1.0)
    # shrink factor identity: lambda_t eta_t = 1 - eta_t / eta_{t-1} for t >= 2
    e = s.etas
    np.testing.assert_array_equal(le[1:], 1.0 - e[1:] / e[:-1])
    np.testing.assert_allclose(s.beta0, eta0 * eta0 * n / s.T, rtol=1e-15)
    assert s.sample_budget == s.T == round(n**pass_exponent * epsilon * epsilon)


@given(
    n=st.integers(min_value=10, max_value=300),
    pass_exponent=st.floats(min_value=1.0, max_value=2.0),
    epsilon=st.floats(min_value=0.3, max_value=1.0),
    delta=st.floats(min_value=1e-7, max_value=1e-3),
    G=st.floats(min_value=0.5, max_value=4.0),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_eta_formula_on_any_steps_equals_etas(n, pass_exponent, epsilon, delta, G, data):
    # the account report evaluates η_t on chunks of steps; they must be the engine's bits
    s = multi_pass_schedule(n, pass_exponent, epsilon, delta, 1.0, G)
    first = data.draw(st.integers(min_value=1, max_value=s.T), label="first")
    last = data.draw(st.integers(min_value=first, max_value=s.T), label="last")
    got = _multi_pass_etas(s, first, last)
    assert got.tobytes() == s.etas[first - 1 : last].tobytes()
    for t in (1, s.T):
        assert _multi_pass_etas(s, t, t).tobytes() == s.etas[t - 1 : t].tobytes()


@given(
    multi=st.booleans(),
    T=st.integers(min_value=1, max_value=100_000),
    n=st.integers(min_value=10, max_value=300),
    pass_exponent=st.floats(min_value=1.0, max_value=2.0),
    epsilon=st.floats(min_value=0.1, max_value=1.0),
    delta=st.floats(min_value=1e-9, max_value=1e-3),
    # η₀ near 1e-161, where σ_t² underflows at some steps, as often as in the usual range
    log_eta0=st.one_of(st.floats(min_value=-163.0, max_value=-159.0), st.floats(min_value=-1.0, max_value=0.5)),
    G=st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=300, deadline=None)
def test_a_schedule_builds_iff_every_step_is_noisy(multi, T, n, pass_exponent, epsilon, delta, log_eta0, G):
    # the constructor checks σ_T alone, in closed form; that is the whole σ
    # array's check because σ_t never rises with t
    eta0 = 10.0**log_eta0
    if multi:
        build, args = multi_pass_schedule, (n, pass_exponent, epsilon, delta, eta0, G)
    else:
        build, args = single_pass_schedule, (T, G, eta0, epsilon, delta)
    try:
        unchecked = build_unchecked(build, *args)
    except InvalidParameterError:
        # refused by another rule (β₀ = 0, T < 1)
        with pytest.raises(InvalidParameterError):
            build(*args)
        return
    sigmas, lambda_etas = unchecked.sigmas, unchecked.lambda_etas
    assert len(sigmas) == unchecked.T <= 100_000
    assert lambda_etas[0] == 1.0
    assert np.all(lambda_etas > 0.0) and np.all(lambda_etas <= 1.0)
    assert np.all(sigmas[1:] <= sigmas[:-1])
    if sigmas.all():
        assert build(*args).sigmas.tobytes() == sigmas.tobytes()
    else:
        with pytest.raises(InfinitePrivacyLossError, match=ZERO_NOISE):
            build(*args)
