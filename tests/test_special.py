import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from yulesimon import (
    SeriesControl,
    SeriesConvergenceError,
    hyp3f2_unit_excess,
    log_gamma_ratio,
)
from yulesimon import special
from yulesimon.special import _HEAD, _excess_estimate

TIGHT = SeriesControl(rel_tol=1e-12)

# Extended-precision goldens (mpmath, 40 digits).
LOG_BETA_1000_3P5 = -22.980540505459587928  # ln B(1000, 3.5)
DIGAMMA_10P5 = 2.3030010342976863753  # psi(0.5) = -gamma - 2 ln 2, plus recurrence
# 1e7-term partial sum of 1/(7.3+k)^2 plus midpoint integral tail:
TRIGAMMA_7P3 = 0.14679576813142708
HYP3F2_A3_B4 = 1.3044066016340379283  # alpha = 0.5 family member
HYP3F2_A11_B12 = 1.0901755907769961929  # alpha = 0.9 family member
HYP3F2_A12_B13 = 1.0827662390753103159


class TestLogGamma:
    """scipy's gammaln, which log_gamma_ratio's direct branch and the 3F2
    closure's tail nodes take."""

    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 0.0), (5.0, math.log(24.0)), (0.5, math.log(math.sqrt(math.pi)))],
    )
    def test_exact_values(self, x, expected):
        assert scipy.special.gammaln(x) == pytest.approx(expected, abs=1e-13)

    def test_wide_range_accuracy(self):
        # Stirling reference at huge argument; direct values elsewhere.
        for x in (1e-6, 1e-3, 0.5, 1.5, 20.0, 1e6):
            assert math.isfinite(scipy.special.gammaln(x))
        x = 1e12
        stirling = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi) + 1 / (12 * x)
        assert scipy.special.gammaln(x) == pytest.approx(stirling, rel=1e-13)


class TestLogBeta:
    """ln B(a, b) = ln G(b) + log_gamma_ratio(a, b)."""

    @staticmethod
    def log_beta(a, b):
        return float(scipy.special.gammaln(b)) + log_gamma_ratio(a, b)

    def test_b_inverse(self):
        assert self.log_beta(1.0, 3.0) == pytest.approx(-math.log(3.0), abs=1e-13)

    def test_two_two(self):
        assert self.log_beta(2.0, 2.0) == pytest.approx(math.log(1.0 / 6.0), abs=1e-13)

    def test_large_arguments_golden(self):
        # t = 1000 takes the direct branch
        assert self.log_beta(1000.0, 3.5) == pytest.approx(LOG_BETA_1000_3P5, rel=1e-12)

    def test_surname_scale_finite(self):
        # t = 1e7 takes the Stirling branch; B(1e7, 2) = 1/(1e7 (1e7 + 1))
        value = self.log_beta(1e7, 2.0)
        assert value == pytest.approx(-math.log(1e7 * (1e7 + 1.0)), rel=1e-15)


class TestPolygammas:
    """scipy's psi and psi' = zeta(2, .) = polygamma(1, .), from which the
    3F2 and KL closures take their Euler-Maclaurin derivatives."""

    def test_digamma_at_one(self):
        assert scipy.special.psi(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_digamma_at_two(self):
        assert scipy.special.psi(2.0) == pytest.approx(1.0 - 0.5772156649015329, abs=1e-12)

    def test_digamma_golden(self):
        assert scipy.special.psi(10.5) == pytest.approx(DIGAMMA_10P5, rel=1e-12)

    def test_trigamma_basel(self):
        assert scipy.special.zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_trigamma_at_two(self):
        assert scipy.special.zeta(2.0, 2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)

    def test_trigamma_golden(self):
        assert scipy.special.zeta(2.0, 7.3) == pytest.approx(TRIGAMMA_7P3, rel=1e-11)
        assert scipy.special.polygamma(1, 7.3) == pytest.approx(TRIGAMMA_7P3, rel=1e-11)

    def test_recurrences(self):
        # psi(x+1) - psi(x) = 1/x and psi'(x+1) - psi'(x) = -1/x^2
        psi, zeta = scipy.special.psi, scipy.special.zeta
        for x in np.geomspace(0.1, 100.0, 40):
            assert psi(x + 1.0) - psi(x) == pytest.approx(1.0 / x, abs=1e-11)
            assert zeta(2.0, x + 1.0) - zeta(2.0, x) == pytest.approx(-1.0 / (x * x), abs=1e-11)

    def test_digamma_matches_log_gamma_derivative(self):
        h = 1e-5
        gammaln = scipy.special.gammaln
        for x in (0.7, 3.0, 12.5, 80.0):
            fd = (gammaln(x + h) - gammaln(x - h)) / (2.0 * h)
            assert scipy.special.psi(x) == pytest.approx(fd, abs=1e-8)


def _hyp3f2(a, b, ctrl=SeriesControl()):
    """3F2(1, a, 1; b, b; 1), the leading 1 plus the package's excess."""
    return 1.0 + hyp3f2_unit_excess(a, b, ctrl)


class TestHyp3f2:
    def test_alpha_half_family_golden(self):
        assert _hyp3f2(3.0, 4.0, TIGHT) == pytest.approx(HYP3F2_A3_B4, rel=1e-11)

    def test_alpha_09_family_golden(self):
        assert _hyp3f2(11.0, 12.0, TIGHT) == pytest.approx(HYP3F2_A11_B12, rel=1e-11)
        assert _hyp3f2(12.0, 13.0, TIGHT) == pytest.approx(HYP3F2_A12_B13, rel=1e-11)

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
        assert _hyp3f2(3.0, 4.0, TIGHT) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_at_least_one(self, alpha):
        c = 1.0 / (1.0 - alpha)
        assert _hyp3f2(c + 1.0, c + 2.0, TIGHT) >= 1.0

    def test_partial_sums_nondecreasing(self):
        # positive terms: value grows with the term budget
        loose = _hyp3f2(3.0, 4.0, SeriesControl(rel_tol=1e-4))
        tight = _hyp3f2(3.0, 4.0, TIGHT)
        assert loose <= tight
        assert tight - loose < 1e-3

    def test_divergence_domain_error(self):
        with pytest.raises(ValueError):
            _hyp3f2(4.0, 3.0, TIGHT)
        with pytest.raises(ValueError):
            _hyp3f2(-1.0, 4.0, TIGHT)

    def test_non_convergence_error(self):
        with pytest.raises(SeriesConvergenceError) as err:
            _hyp3f2(2.05, 3.05, SeriesControl(rel_tol=1e-12, max_terms=100))
        assert err.value.estimate is not None
        assert err.value.error_bound > 0.0

    def test_cap_above_head_returns(self):
        # 35 terms suffice at alpha = 0.9; a cap above the first head must
        # not raise whatever its size
        value = _hyp3f2(11.0, 12.0, SeriesControl(max_terms=200))
        assert value == pytest.approx(HYP3F2_A11_B12, rel=1e-14, abs=0)

    def test_shallow_tail_domain_error(self):
        # 2b - a - 2 = 0.7: the Gauss-Laguerre closure needs a decay rate >= 2
        with pytest.raises(ValueError):
            _hyp3f2(2.5, 2.6, TIGHT)

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
        first, bound = _closure_at(2.003, 3.003, _HEAD)
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
            first_head, _ = _closure_at(c + 1.0, c + 2.0, _HEAD)
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
        short, bound = _closure_at(c + 1.0, c + 2.0, _HEAD)
        longer, _ = _closure_at(c + 1.0, c + 2.0, 4 * _HEAD)
        # the remainder estimate plus a few ulps of rounding
        assert abs(short - longer) <= bound + 4.0 * np.finfo(float).eps * (1.0 + longer)


def _closure_at(a, b, head):
    """The series closure's excess and remainder estimate at one (a, b)."""
    (excess,), (bound,) = _excess_estimate(np.array([a]), np.array([b]), head)
    return excess, bound


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


def _jeffreys_family(alphas):
    c = 1.0 / (1.0 - np.asarray(alphas, dtype=np.float64))
    return c + 1.0, c + 2.0


class TestHyp3f2Array:
    """The series closure over arrays of (a, b) against one call per element."""

    def test_dense_alpha_grid_matches_scalar(self):
        a, b = _jeffreys_family(np.linspace(1e-4, 1.0 - 1e-4, 20_001))
        array, bounds = _excess_estimate(a, b, _HEAD)
        pairs = zip(a.tolist(), b.tolist())
        scalar = np.array([hyp3f2_unit_excess(x, y) for x, y in pairs])
        assert np.max(np.abs(array - scalar) / scalar) <= 4e-16
        # the array pass repeats the scalar call's operations in their order
        np.testing.assert_array_equal(array, scalar)
        first_heads = [_closure_at(x, y, _HEAD) for x, y in zip(a.tolist(), b.tolist())]
        assert bounds == [bound for _, bound in first_heads]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-9, max_value=1.0 - 1e-12), min_size=1, max_size=40))
    def test_elements_match_scalar_calls(self, alphas):
        a, b = _jeffreys_family(alphas)
        array, _ = _excess_estimate(a, b, _HEAD)
        for x, y, value in zip(a.tolist(), b.tolist(), array):
            scalar = hyp3f2_unit_excess(x, y)
            assert abs(value - scalar) <= 4e-16 * scalar
            assert value == scalar

    def test_value_does_not_depend_on_the_other_elements(self):
        a, b = _jeffreys_family(np.random.default_rng(4).uniform(1e-3, 0.999, 60))
        whole, _ = _excess_estimate(a, b, _HEAD)
        for i in (0, 17, 59):
            assert _excess_estimate(a[i : i + 1], b[i : i + 1], _HEAD)[0][0] == whole[i]

    def test_grown_head_elements_match_one_element_calls(self):
        # past the first head ln h comes from log_gamma_ratio, with each
        # element's b - 1 and b - a
        a, b = _jeffreys_family(np.random.default_rng(5).uniform(1e-3, 0.999, 30))
        excesses, bounds = _excess_estimate(a, b, 16 * _HEAD)
        for x, y, excess, bound in zip(a.tolist(), b.tolist(), excesses, bounds):
            assert _closure_at(x, y, 16 * _HEAD) == (excess, bound)


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
        assert log_gamma_ratio(np.array([1e9]), np.array([])).shape == (0,)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_bitwise_equal_scalar_calls(self, seed):
        # s as a column against t: row i is the call at s[i]
        rng = np.random.default_rng(seed)
        t = np.exp(rng.uniform(0.0, 30.0, 60))  # both branches
        s = rng.uniform(1.0, 3000.0, 50)
        rows = log_gamma_ratio(t, s[:, None])
        assert rows.shape == (50, 60)
        for row, s_i in zip(rows, s.tolist()):
            np.testing.assert_array_equal(row, log_gamma_ratio(t, s_i))
            assert row.tolist() == [log_gamma_ratio(t_j, s_i) for t_j in t.tolist()]

    def test_grid_with_one_value_past_the_switch(self):
        # The M = 1,000 grid likelihood's shape: s a column over the grid, t
        # a sample's values with one past 1e4, where the Stirling branch
        # holds for some s and not for others.
        t = np.concatenate([np.arange(1.0, 232.0), [15_493.0]])
        s = (1.0 / (1.0 - np.arange(1, 1000) / 1000) + 1.0)[:, None]
        grid = log_gamma_ratio(t, s)
        assert grid.shape == (999, 232)
        np.testing.assert_array_equal(grid, _branchwise_log_gamma_ratio(t, s))
        for row, s_i in zip(grid, s[:, 0].tolist()):
            np.testing.assert_array_equal(row, log_gamma_ratio(t, s_i))
        assert grid[:, -1].tolist() == [log_gamma_ratio(15_493.0, s_i) for s_i in s[:, 0].tolist()]

    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_bitwise_equal_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        t = np.exp(rng.uniform(0.0, 30.0, 200))  # both branches
        s = rng.uniform(1.0, 3000.0, 200)
        pairs = log_gamma_ratio(t, s)
        assert pairs.tolist() == [
            log_gamma_ratio(t_j, s_j) for t_j, s_j in zip(t.tolist(), s.tolist())
        ]

