import math
import re

import numpy as np
import pytest

from tkmeans.errors import DomainError
from tkmeans.specialfn import digamma, log_gamma, log_sum_exp


class TestLogGamma:
    def test_gamma_one_and_two_are_zero(self):
        assert abs(log_gamma(1.0)) <= 1e-12
        assert abs(log_gamma(2.0)) <= 1e-12

    def test_half(self):
        # Gamma(0.5) = sqrt(pi), oracle computed independently
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_recurrence(self):
        rng = np.random.default_rng(1)
        for x in 10 ** rng.uniform(-3, 5, 500):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_against_scipy(self):
        from scipy.special import gammaln

        rng = np.random.default_rng(2)
        for x in np.concatenate([10 ** rng.uniform(-3, 6, 2000), rng.uniform(0.1, 30, 2000)]):
            ref = gammaln(x)
            assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), "x"])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestDigamma:
    def test_recurrence_identity(self):
        x = 3.7
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_known_values_against_finite_difference(self):
        # oracle: central finite difference of log_gamma
        h = 1e-6
        for x, frozen in [(1.0, -0.5772156649), (0.5, -1.9635100260)]:
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert digamma(x) == pytest.approx(fd, abs=1e-6)
            assert digamma(x) == pytest.approx(frozen, abs=1e-9)

    def test_finite_difference_property(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for x in rng.uniform(1e-2, 100.0, 1000):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert abs(digamma(x) - fd) < 1e-5

    def test_against_scipy(self):
        from scipy.special import digamma as ref

        rng = np.random.default_rng(4)
        for x in np.concatenate([10 ** rng.uniform(-3, 6, 2000), rng.uniform(0.1, 50, 2000)]):
            assert abs(digamma(x) - ref(x)) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -2.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)


@pytest.mark.parametrize("fn", [log_gamma, digamma])
def test_only_numbers_are_arguments(fn):
    # float() would turn "3" into 3.0; the shared "finite and > 0" check takes numbers only
    for bad in ("3", None, "x"):
        with pytest.raises(DomainError, match=f"^x must be finite and > 0, got {re.escape(repr(bad))}$"):
            fn(bad)
    assert fn(3) == fn(np.float64(3.0)) == fn(np.float32(3.0)) == fn(3.0)


class TestLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_singleton_exact(self):
        assert log_sum_exp([-3.2]) == -3.2

    def test_large_values_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(0, 10, rng.integers(1, 20))
            c = float(rng.normal(0, 100))
            assert log_sum_exp(v + c) == pytest.approx(log_sum_exp(v) + c, abs=1e-12)

    def test_neg_inf_entries_ok(self):
        assert log_sum_exp([-np.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_axis_reduction(self):
        m = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = log_sum_exp(m, axis=1)
        assert out == pytest.approx([math.log(2.0), 1.0 + math.log(2.0)])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_sum_exp([])
        with pytest.raises(DomainError):
            log_sum_exp([-np.inf, -np.inf])
        with pytest.raises(DomainError):
            log_sum_exp([np.nan, 0.0])
        with pytest.raises(DomainError):
            log_sum_exp([np.inf, 0.0])
        rows = np.zeros((3, 2))
        for bad_row, match in (([np.nan, 0.0], "NaN"), ([0.0, np.inf], "NaN"), ([-np.inf, -np.inf], "finite entry")):
            m = rows.copy()
            m[1] = bad_row
            with pytest.raises(DomainError, match=match):
                log_sum_exp(m, axis=1)
