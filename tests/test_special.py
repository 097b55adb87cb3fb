import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from yulesimon import (
    QuadratureControl,
    QuadratureError,
    SeriesControl,
    SeriesConvergenceError,
    digamma,
    hyp3f2_unit,
    hyp3f2_unit_excess,
    integrate_unit_interval,
    log_beta,
    log_gamma,
    log_gamma_ratio,
    trigamma,
)
from yulesimon import special
from yulesimon.special import _HEAD, _excess_estimate, log_gamma_ratio_rows

TIGHT = SeriesControl(rel_tol=1e-12)

# Extended-precision goldens (mpmath, 40 digits).
LOG_BETA_1000_3P5 = -22.980540505459587928  # ln B(1000, 3.5)
DIGAMMA_10P5 = 2.3030010342976863753  # psi(0.5) = -gamma - 2 ln 2, plus recurrence
# 1e7-term partial sum of 1/(7.3+k)^2 plus midpoint integral tail:
TRIGAMMA_7P3 = 0.14679576813142708
HYP3F2_A3_B4 = 1.3044066016340379283  # alpha = 0.5 family member
HYP3F2_A11_B12 = 1.0901755907769961929  # alpha = 0.9 family member
HYP3F2_A12_B13 = 1.0827662390753103159
# integral of sqrt((3-a)/(1-a))/(2-a) over (0,1):
BOUND_INTEGRAL = math.pi / 3.0 - math.log(2.0 - math.sqrt(3.0))


class TestLogGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 0.0), (5.0, math.log(24.0)), (0.5, math.log(math.sqrt(math.pi)))],
    )
    def test_exact_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)

    def test_wide_range_accuracy(self):
        # Stirling reference at huge argument; direct values elsewhere.
        for x in (1e-6, 1e-3, 0.5, 1.5, 20.0, 1e6):
            assert math.isfinite(log_gamma(x))
        x = 1e12
        stirling = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi) + 1 / (12 * x)
        assert log_gamma(x) == pytest.approx(stirling, rel=1e-13)


class TestLogBeta:
    def test_b_inverse(self):
        assert log_beta(1.0, 3.0) == pytest.approx(-math.log(3.0), abs=1e-13)

    def test_two_two(self):
        assert log_beta(2.0, 2.0) == pytest.approx(math.log(1.0 / 6.0), abs=1e-13)

    def test_large_arguments_golden(self):
        assert log_beta(1000.0, 3.5) == pytest.approx(LOG_BETA_1000_3P5, rel=1e-12)

    def test_surname_scale_finite(self):
        assert math.isfinite(log_beta(2.0, 1e7))

    def test_symmetry_exact(self):
        for a, b in [(1.5, 7.25), (0.3, 11.0), (2.0, 1e6)]:
            assert log_beta(a, b) == log_beta(b, a)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_beta(-1.0, 2.0)
        with pytest.raises(ValueError):
            log_beta(2.0, 0.0)


class TestPolygammas:
    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_digamma_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - 0.5772156649015329, abs=1e-12)

    def test_digamma_golden(self):
        assert digamma(10.5) == pytest.approx(DIGAMMA_10P5, rel=1e-12)

    def test_trigamma_basel(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_trigamma_at_two(self):
        assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)

    def test_trigamma_golden(self):
        assert trigamma(7.3) == pytest.approx(TRIGAMMA_7P3, rel=1e-11)

    @pytest.mark.parametrize("fn", [digamma, trigamma])
    def test_domain_error(self, fn):
        with pytest.raises(ValueError):
            fn(0.0)

    def test_recurrences(self):
        # psi(x+1) - psi(x) = 1/x and psi'(x+1) - psi'(x) = -1/x^2
        for x in np.geomspace(0.1, 100.0, 40):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-11)
            assert trigamma(x + 1.0) - trigamma(x) == pytest.approx(
                -1.0 / (x * x), abs=1e-11
            )

    def test_digamma_matches_log_gamma_derivative(self):
        h = 1e-5
        for x in (0.7, 3.0, 12.5, 80.0):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert digamma(x) == pytest.approx(fd, abs=1e-8)


class TestHyp3f2:
    def test_alpha_half_family_golden(self):
        assert hyp3f2_unit(3.0, 4.0, TIGHT) == pytest.approx(HYP3F2_A3_B4, rel=1e-11)

    def test_alpha_09_family_golden(self):
        assert hyp3f2_unit(11.0, 12.0, TIGHT) == pytest.approx(HYP3F2_A11_B12, rel=1e-11)
        assert hyp3f2_unit(12.0, 13.0, TIGHT) == pytest.approx(HYP3F2_A12_B13, rel=1e-11)

    def test_alpha_half_series_oracle(self):
        # Independent route: ((2-a)^2/(1-a)^2) sum_j B(j, c+1)/(c+j) at alpha=0.5,
        # summed brute force with a j^-4 integral tail bound.
        from scipy.special import gammaln

        c = 2.0
        j = np.arange(1, 2_000_001, dtype=np.float64)
        terms = np.exp(gammaln(j) + gammaln(c + 1.0) - gammaln(j + c + 1.0)) / (c + j)
        partial = float(terms[::-1].sum())
        tail_bound = 2.0 / (3.0 * (2e6) ** 3)  # terms ~ Gamma(3) j^-4
        oracle = 9.0 * (partial + 0.5 * tail_bound)
        assert hyp3f2_unit(3.0, 4.0, TIGHT) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_at_least_one(self, alpha):
        c = 1.0 / (1.0 - alpha)
        assert hyp3f2_unit(c + 1.0, c + 2.0, TIGHT) >= 1.0

    def test_partial_sums_nondecreasing(self):
        # positive terms: value grows with the term budget
        loose = hyp3f2_unit(3.0, 4.0, SeriesControl(rel_tol=1e-4))
        tight = hyp3f2_unit(3.0, 4.0, TIGHT)
        assert loose <= tight
        assert tight - loose < 1e-3

    def test_divergence_domain_error(self):
        with pytest.raises(ValueError):
            hyp3f2_unit(4.0, 3.0, TIGHT)
        with pytest.raises(ValueError):
            hyp3f2_unit(-1.0, 4.0, TIGHT)

    def test_non_convergence_error(self):
        with pytest.raises(SeriesConvergenceError) as err:
            hyp3f2_unit(2.05, 3.05, SeriesControl(rel_tol=1e-12, max_terms=100))
        assert err.value.estimate is not None
        assert err.value.error_bound > 0.0

    def test_cap_above_head_returns(self):
        # 35 terms suffice at alpha = 0.9; a cap above the first head must
        # not raise whatever its size
        value = hyp3f2_unit(11.0, 12.0, SeriesControl(max_terms=200))
        assert value == pytest.approx(HYP3F2_A11_B12, rel=1e-14, abs=0)

    def test_shallow_tail_domain_error(self):
        # 2b - a - 2 = 0.7: the Gauss-Laguerre closure needs a decay rate >= 2
        with pytest.raises(ValueError):
            hyp3f2_unit(2.5, 2.6, TIGHT)

    @pytest.mark.parametrize("rel_tol", [1e-20, 1e-30])
    def test_grown_head_matches_first_head(self, rel_tol):
        # alpha = 0.003: 1e-30 grows the head to 131,072 terms, whose last
        # tail nodes sit near t = 1e16
        first = hyp3f2_unit_excess(2.003, 3.003)
        grown = hyp3f2_unit_excess(2.003, 3.003, SeriesControl(rel_tol=rel_tol))
        assert grown == pytest.approx(first, rel=1e-14, abs=0)

    def test_unreachable_tolerance_raises_with_accurate_sum(self):
        # 1e-60 is out of reach of a 1e7-term head, and the error carries
        # the sum of the last head summed
        first = hyp3f2_unit_excess(2.003, 3.003)
        with pytest.raises(SeriesConvergenceError) as err:
            hyp3f2_unit_excess(2.003, 3.003, SeriesControl(rel_tol=1e-60))
        assert err.value.estimate == pytest.approx(1.0 + first, rel=1e-14, abs=0)

    def test_unreachable_tolerance_refused_from_first_head(self, monkeypatch):
        # the bound falls like A^-(r+4) at best, so no head up to the cap can
        # meet 1e-60: only the first head is summed, and the error carries
        # its estimate and bound
        first, bound = _excess_estimate(2.003, 3.003, _HEAD)
        calls = _spy_on_head_sums(monkeypatch)
        with pytest.raises(SeriesConvergenceError) as err:
            hyp3f2_unit_excess(2.003, 3.003, SeriesControl(rel_tol=1e-60))
        assert calls == [(0, _HEAD)]
        assert err.value.estimate == 1.0 + first
        assert err.value.error_bound == bound

    def test_grown_head_continues_the_last(self, monkeypatch):
        # each grown head sums only the terms past the last one
        calls = _spy_on_head_sums(monkeypatch)
        hyp3f2_unit_excess(2.003, 3.003, SeriesControl(rel_tol=1e-30))
        assert len(calls) > 2 and calls[0] == (0, _HEAD)
        for (_, last), (start, head) in zip(calls, calls[1:]):
            assert (start, head) == (last, 4 * last)

    def test_first_head_value_unchanged_on_dense_alpha_grid(self):
        # the default tolerance is met by the first head at every alpha, and
        # the result is that head's estimate bit for bit
        for alpha in np.linspace(1e-4, 1.0 - 1e-4, 2001):
            c = 1.0 / (1.0 - float(alpha))
            first_head, _ = _excess_estimate(c + 1.0, c + 2.0, _HEAD)
            assert hyp3f2_unit_excess(c + 1.0, c + 2.0) == first_head

    def test_grown_head_memory_is_bounded(self):
        # the head is summed block by block, so a 1e7-term head stays small;
        # whether the call raises is the test above's concern
        tracemalloc.start()
        try:
            hyp3f2_unit_excess(2.003, 3.003, SeriesControl(rel_tol=1e-60))
        except SeriesConvergenceError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 16e6

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=0.9999))
    def test_longer_head_agrees_within_bound(self, alpha):
        c = 1.0 / (1.0 - alpha)
        short, bound = _excess_estimate(c + 1.0, c + 2.0, _HEAD)
        longer, _ = _excess_estimate(c + 1.0, c + 2.0, 4 * _HEAD)
        # the remainder estimate plus a few ulps of rounding
        assert abs(short - longer) <= bound + 4.0 * np.finfo(float).eps * (1.0 + longer)


def _spy_on_head_sums(monkeypatch):
    """Record (start, head) of every 3F2 head-sum call."""
    calls = []
    head_sum = special._head_sum

    def spy(a, b, head, start=0, *carry):
        calls.append((start, head))
        return head_sum(a, b, head, start, *carry)

    monkeypatch.setattr(special, "_head_sum", spy)
    return calls


def _branchwise_log_gamma_ratio(t, s):
    """Reference: each branch evaluated only on the elements that take it."""
    t_b, s_b = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
    direct = t_b < np.maximum(1e4, 1000.0 * s_b)
    out = np.empty(t_b.shape)
    td, sd = t_b[direct], s_b[direct]
    out[direct] = scipy.special.gammaln(td) - scipy.special.gammaln(td + sd)
    tl, sl = t_b[~direct], s_b[~direct]
    out[~direct] = -(
        sl * np.log(tl)
        + sl * (sl - 1.0) / (2.0 * tl)
        + (sl * sl / 4.0 - sl**3 / 6.0 - sl / 12.0) / (tl * tl)
        + (sl**4 / 12.0 - sl**3 / 6.0 + sl * sl / 12.0) / (tl * tl * tl)
    )
    return out


class TestLogGammaRatio:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_branchwise_reference_exactly(self, seed):
        rng = np.random.default_rng(seed)
        t = np.exp(rng.uniform(0.0, 35.0, 40))
        for s in (float(rng.uniform(1.0, 30.0)), rng.uniform(1.0, 3000.0, 40)):
            np.testing.assert_array_equal(log_gamma_ratio(t, s), _branchwise_log_gamma_ratio(t, s))
        s_row = rng.uniform(1.0, 3000.0, 7)[None, :]
        np.testing.assert_array_equal(
            log_gamma_ratio(t[:, None], s_row), _branchwise_log_gamma_ratio(t[:, None], s_row)
        )

    def test_scalars_return_float(self):
        assert isinstance(log_gamma_ratio(3.0, 2.5), float)
        assert isinstance(log_gamma_ratio(1e9, 2.5), float)
        assert log_gamma_ratio(3.0, 1.0) == pytest.approx(-math.log(3.0), rel=1e-15)

    def test_empty_input(self):
        assert log_gamma_ratio(np.array([]), 2.0).shape == (0,)


class TestLogGammaRatioRows:
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_bitwise_equal_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        t = np.exp(rng.uniform(0.0, 30.0, 60))  # both branches
        s = rng.uniform(1.0, 3000.0, 50)
        rows = log_gamma_ratio_rows(t, s)
        assert rows.shape == (50, 60)
        for row, s_i in zip(rows, s.tolist()):
            np.testing.assert_array_equal(row, log_gamma_ratio(t, s_i))


class TestIntegrateUnitInterval:
    def test_constant(self):
        assert integrate_unit_interval(lambda a: 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_square(self):
        assert integrate_unit_interval(lambda a: a * a) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_endpoint_singularity_golden(self):
        f = lambda a: math.sqrt((3.0 - a) / (1.0 - a)) / (2.0 - a)
        assert integrate_unit_interval(f) == pytest.approx(BOUND_INTEGRAL, abs=1e-9)

    def test_tolerance_failure_reports_estimate(self):
        # An oscillatory integrand defeats a tiny subdivision budget.
        f = lambda a: math.sin(500.0 * a)
        ctrl = QuadratureControl(abs_tol=1e-12, max_subdivisions=2)
        with pytest.raises(QuadratureError) as err:
            integrate_unit_interval(f, ctrl)
        assert err.value.estimate is not None
