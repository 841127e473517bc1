import math

import numpy as np
import pytest

from dpsgld.core import InvalidParameterError
from dpsgld.oracles import stability_bound, theorem1_excess_bound, theorem2_excess_bound
from dpsgld.schedules import MultiPassSchedule


class TestStabilityBound:
    def test_hand_value(self):
        # 4 * 1 * (3/100 + 1/10) * (0.01 + 0.04 + 0.09) = 4 * 0.13 * 0.14
        got = stability_bound(3, 10, 1.0, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(got, 4.0 * 0.13 * 0.14, rtol=1e-14)

    def test_prefix_sum_only(self):
        etas = [0.1, 0.2, 0.3, 100.0]
        got = stability_bound(3, 10, 1.0, etas)
        np.testing.assert_allclose(got, 4.0 * 0.13 * 0.14, rtol=1e-14)

    def test_monotone_in_t(self):
        etas = np.full(50, 0.05)
        values = [stability_bound(t, 20, 1.0, etas) for t in range(1, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            stability_bound(0, 10, 1.0, [0.1])
        with pytest.raises(InvalidParameterError):
            stability_bound(2, 10, 1.0, [0.1])
        with pytest.raises(InvalidParameterError):
            stability_bound(1, 0, 1.0, [0.1])

    def test_schedule_outside_noise_domain_rejected(self):
        # n·δ >= 2.5 would make η_1 NaN and so the bound at every t
        with pytest.raises(InvalidParameterError, match="n·δ"):
            sched = MultiPassSchedule(
                n=10, pass_exponent=1.0, epsilon=0.1, delta=0.5,
                eta0=1.0, G=1.0, T=5, beta0=0.25,
            )
            stability_bound(3, sched.n, sched.G, sched.etas)


class TestExcessRiskBounds:
    def test_single_pass_reference_value(self):
        got = theorem1_excess_bound(1.0, 10_000, 1.0, 1.0, 0.5, 1e-5, 0.25)
        np.testing.assert_allclose(got, 0.23140980184590159124, rtol=1e-13)

    def test_single_pass_terms(self):
        opt = theorem1_excess_bound(1.0, 10_000, 1.0, 1.0, 0.5, 1e-5, 0.0)
        np.testing.assert_allclose(opt, 0.23025850929940456840, rtol=1e-13)
        with_priv = theorem1_excess_bound(1.0, 10_000, 1.0, 1.0, 0.5, 1e-5, 0.25)
        np.testing.assert_allclose(with_priv - opt, 0.0011512925464970228420, rtol=1e-10)

    def test_single_pass_privacy_term_decays_in_epsilon(self):
        loose = theorem1_excess_bound(1.0, 1000, 1.0, 1.0, 0.1, 1e-5, 0.25)
        tight = theorem1_excess_bound(1.0, 1000, 1.0, 1.0, 1.0, 1e-5, 0.25)
        assert tight < loose

    def test_multi_pass_shape(self):
        base = theorem2_excess_bound(1.0, 1000, 2.0, 1.0, 1.0, 0.5, 1e-5, 0.25)
        assert base > 0
        bigger_n = theorem2_excess_bound(1.0, 4000, 2.0, 1.0, 1.0, 0.5, 1e-5, 0.25)
        assert bigger_n < base

    def test_multi_pass_manual_sum(self):
        n, a, eps, delta = 100, 2.0, 0.5, 1e-4
        T = round(n**a * eps**2)
        comp = 1.0 * 4.0 * math.sqrt(math.log(T / delta)) / (0.5 * math.sqrt(n))
        opt = 0.5 * 1.0 / math.sqrt(n * math.log(1.0 / delta))
        priv = 0.25 * 0.3 / (eps**2 * n ** (a - 1.0))
        got = theorem2_excess_bound(2.0, n, a, 1.0, 0.5, eps, delta, 0.3)
        np.testing.assert_allclose(got, comp + opt + priv, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            theorem1_excess_bound(1.0, 0, 1.0, 1.0, 0.5, 1e-5, 0.25)
        with pytest.raises(InvalidParameterError):
            theorem1_excess_bound(1.0, 100, 1.0, 1.0, 0.5, 2.0, 0.25)
        with pytest.raises(InvalidParameterError):
            theorem1_excess_bound(-1.0, 100, 1.0, 1.0, 0.5, 1e-5, 0.25)
        with pytest.raises(InvalidParameterError):
            theorem2_excess_bound(1.0, 100, 3.0, 1.0, 1.0, 0.5, 1e-5, 0.25)
