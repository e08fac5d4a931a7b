"""NHPP likelihood, thinning simulation, survival, and mixture quantiles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadence.intensity import (
    ClampedPolynomials,
    PolynomialIntensity,
    clamped_maximum,
    intensity_on_grid,
)
from cadence.point_process import (
    MixtureSurvival,
    ObservationWindow,
    mixture_next_arrival,
    run_starts,
    simulate_thinning,
    thinning_rate_bound,
)
from support import likelihood_term


class TestLogLikelihood:
    # The likelihood term of ``inference.make_log_posterior`` on [0, t_c].
    def test_homogeneous(self):
        value = likelihood_term((1.0,), [0.5], 1.0)
        assert value == pytest.approx(-1.0, abs=1e-6)

    def test_void_probability(self):
        value = likelihood_term((1.0,), [], 2.0)
        assert value == pytest.approx(-2.0, abs=1e-6)

    def test_linear_intensity(self):
        value = likelihood_term((0.0, 2.0), [1.0], 2.0)
        assert value == pytest.approx(math.log(2.0) - 4.0, abs=1e-6)

    def test_always_finite_for_negative_polynomial(self):
        value = likelihood_term((-5.0,), [0.5], 1.0)
        assert np.isfinite(value)


class TestSimulateThinning:
    def test_clamped_negative_rate_nearly_empty(self):
        model = PolynomialIntensity((-5.0,))
        counts = [len(simulate_thinning(model, ObservationWindow(0.0, 1.0), seed))
                  for seed in range(200)]
        assert sum(counts) == 0  # expected count is the 1e-6 floor

    def test_homogeneous_mean_and_variance(self):
        model = PolynomialIntensity((2.0,))
        window = ObservationWindow(0.0, 5.0)
        counts = np.array([len(simulate_thinning(model, window, seed))
                           for seed in range(10_000)])
        assert counts.mean() == pytest.approx(10.0, abs=0.1)
        assert counts.var(ddof=1) == pytest.approx(10.0, abs=0.6)

    def test_deterministic_and_sorted(self):
        model = PolynomialIntensity((1.0, 0.5, -0.05))
        window = ObservationWindow(0.0, 7.0)
        first = simulate_thinning(model, window, 123)
        second = simulate_thinning(model, window, 123)
        assert first == second
        assert all(a < b for a, b in zip(first, first[1:]))
        assert all(window.start <= t <= window.end for t in first)

    def test_mean_count_matches_cumulative_intensity(self):
        model = PolynomialIntensity((1.0, 0.4, -0.03))
        window = ObservationWindow(0.0, 6.0)
        rate = ClampedPolynomials(model.coefficients, window.start, window.end)
        expected = rate.integral(window.end)[0]
        counts = np.array([len(simulate_thinning(model, window, seed))
                           for seed in range(10_000)])
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) <= 3 * stderr

    def test_arrival_times_follow_cumulative_intensity(self):
        # Given their count, NHPP arrivals are iid with CDF Lambda(t) / Lambda(end),
        # so the pooled transformed times are Uniform(0, 1).  This rate dips
        # below the floor mid-window.
        model = PolynomialIntensity((2.0, -1.2, 0.0, 0.04))
        window = ObservationWindow(0.0, 7.0)
        rate = ClampedPolynomials(model.coefficients, window.start, window.end)
        total = rate.integral(window.end)[0]
        transformed = []
        for seed in range(1000):
            arrivals = simulate_thinning(model, window, seed)
            assert all(a < b for a, b in zip(arrivals, arrivals[1:]))
            assert all(window.start <= t <= window.end for t in arrivals)
            transformed += [rate.integral(t)[0] / total for t in arrivals]
        assert len(transformed) > 5000
        assert scipy.stats.kstest(transformed, "uniform").pvalue > 1e-4


class TestThinningRateBound:
    @given(
        st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        st.floats(0, 7),
        st.floats(0.01, 7),
    )
    @settings(max_examples=100, deadline=None)
    @example(coeffs=[2.0, -1.2, 0.0, 0.04], start=0.0, length=7.0)
    @example(coeffs=[1.0, 3.0, -1.0], start=0.0, length=4.0)  # interior peak at t = 1.5
    def test_exact_maximum(self, coeffs, start, length):
        model = PolynomialIntensity(tuple(coeffs))
        window = ObservationWindow(start, start + length)
        bound = thinning_rate_bound(model, window)
        grid = np.linspace(window.start, window.end, 10_001)
        rate = intensity_on_grid(model, grid)
        assert np.all(rate <= bound * (1 + 1e-12))
        # Refine the grid maximum within its neighbouring cells.
        i = int(np.argmax(rate))
        refined = scipy.optimize.minimize_scalar(
            lambda t: -float(intensity_on_grid(model, np.asarray(t))),
            bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
            method="bounded", options={"xatol": 1e-12},
        )
        assert bound == pytest.approx(max(rate[i], -refined.fun), rel=1e-9)

    def test_cache_hits_match_misses(self):
        # The bound is cached for the last (model, window); a model built from
        # a list of ints is the same key as one built from a tuple of floats.
        window = ObservationWindow(0.0, 7.0)
        dipping = PolynomialIntensity((2.0, -1.2, 0.0, 0.04))
        peaked = PolynomialIntensity([1, 3, -1])
        assert peaked.coefficients == (1.0, 3.0, -1.0)
        expected = {model: clamped_maximum(model.coefficients, 0.0, 7.0)
                    for model in (dipping, peaked)}
        thinning_rate_bound.cache_clear()
        for model in (dipping, dipping, peaked, PolynomialIntensity((1.0, 3.0, -1.0)), dipping):
            assert thinning_rate_bound(model, window) == expected[model]
        info = thinning_rate_bound.cache_info()
        assert (info.hits, info.misses) == (2, 3)


class TestNextArrivalSurvival:
    # The survival of one rate: a mixture of a single draw.
    def test_exponential_half_life(self):
        survival = MixtureSurvival([[1.0]], 0.0, 1.0)
        assert survival(math.log(2.0)) == pytest.approx(0.5, abs=1e-6)

    def test_zero_lookahead(self):
        assert MixtureSurvival([[3.0, -1.0, 0.2]], 1.0, 1.0)(0.0) == 1.0

    def test_linear_rate_against_quadrature_oracle(self):
        oracle, _ = scipy.integrate.quad(lambda t: 2.0 * t, 1.0, 2.0)
        expected = math.exp(-oracle)
        assert expected == pytest.approx(0.049787, abs=1e-5)
        assert MixtureSurvival([[0.0, 2.0]], 1.0, 1.0)(1.0) == pytest.approx(expected, abs=1e-6)

    def test_negative_lookahead_errors(self):
        with pytest.raises(ValueError):
            MixtureSurvival([[1.0]], 0.0, 1.0)(-0.5)

    def test_monotone_and_bounded(self):
        survival = MixtureSurvival([[2.0, -0.5, 0.1]], 0.5, 4.0)
        values = [survival(u) for u in np.linspace(0, 4, 25)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)


class CountingSurvival(MixtureSurvival):
    calls = 0

    def __call__(self, u):
        self.calls += 1
        return super().__call__(u)


class EveryDrawSurvival(MixtureSurvival):
    """Oracle: the mixture with every draw integrated, repeated or not."""

    def __init__(self, draws, t_c, horizon):
        super().__init__(draws, t_c, horizon)
        self._index = np.arange(len(draws))
        self._rates = ClampedPolynomials(draws, self.t_c, self.t_c + self.horizon)
        self._per_run = np.ones(len(draws))


class TestRepeatedDraws:
    def test_run_starts_compare_bits(self):
        nan = math.nan
        rows = np.array([[[1.0, 2.0], [1.0, 2.0], [0.0, 2.0], [-0.0, 2.0]],
                         [[-0.0, 2.0], [nan, 1.0], [nan, 1.0], [nan, 1.5]]])
        assert run_starts(rows).tolist() == [[True, False, True, True], [True, True, False, True]]
        assert run_starts(rows.reshape(-1, 2)).tolist() == [True, False, True, True,
                                                            False, True, False, True]

    @pytest.mark.parametrize("repeats", ["runs", "none", "all-equal"])
    def test_mixture_equals_every_draw_mean_to_the_bit(self, repeats):
        rng = np.random.default_rng(11)
        distinct = rng.normal([1.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.1, 0.01], size=(500, 4))
        draws = {"runs": np.repeat(distinct, rng.integers(1, 4, 500), axis=0),
                 "none": distinct,
                 "all-equal": np.repeat(distinct[:1], 400, axis=0)}[repeats]
        t_c, horizon = 2.5, 4.5
        merged, every = MixtureSurvival(draws, t_c, horizon), EveryDrawSurvival(draws, t_c, horizon)
        assert len(merged._rates.coeffs) == {"runs": 500, "none": 500, "all-equal": 1}[repeats]
        for u in (0.0, 0.3, 1.7, horizon, 9.0):
            assert repr(merged(u)) == repr(every(u))
        for level in (0.975, 0.5, 0.025):
            assert repr(merged.quantile(level)) == repr(every.quantile(level))
        assert merged.quantile(0.5) is not None


class TestMixtureNextArrival:
    def test_degenerate_exponential_quantiles(self):
        draws = np.tile([1.0, 0.0, 0.0, 0.0], (200, 1))
        prediction = mixture_next_arrival(draws, 0.0, 100.0)
        assert not prediction.censored
        assert prediction.point_estimate == pytest.approx(math.log(2.0), abs=1e-5)
        assert prediction.lower_95 == pytest.approx(math.log(1 / 0.975), abs=1e-5)
        assert prediction.upper_95 == pytest.approx(math.log(1 / 0.025), abs=1e-4)

    def test_flat_rate_censored(self):
        draws = np.tile([1e-6], (50, 1))
        prediction = mixture_next_arrival(draws, 0.0, 2.5)
        assert prediction.censored
        assert prediction.point_estimate is None

    def test_two_component_mixture_against_root_oracle(self):
        draws = np.array([[1.0], [3.0]])
        oracle = scipy.optimize.brentq(
            lambda u: 0.5 * (math.exp(-u) + math.exp(-3 * u)) - 0.5, 0.0, 10.0
        )
        assert oracle == pytest.approx(0.38225, abs=1e-4)
        prediction = mixture_next_arrival(draws, 0.0, 10.0)
        assert prediction.point_estimate == pytest.approx(oracle, abs=1e-5)

    def test_quantile_levels_hit(self):
        rng = np.random.default_rng(3)
        draws = np.column_stack([
            rng.normal(2.0, 0.3, 300),
            rng.normal(0.1, 0.05, 300),
        ])
        t_c, horizon = 1.0, 8.0
        prediction = mixture_next_arrival(draws, t_c, horizon)

        def exact_survival(u):
            # Independent evaluation: adaptive quadrature per draw.
            total = 0.0
            for beta in draws:
                integral, _ = scipy.integrate.quad(
                    lambda t: max(beta[0] + beta[1] * t, 1e-6), t_c, t_c + u)
                total += math.exp(-integral)
            return total / len(draws)

        assert exact_survival(prediction.point_estimate - t_c) == pytest.approx(0.5, abs=1e-5)
        assert exact_survival(prediction.lower_95 - t_c) == pytest.approx(0.975, abs=1e-5)
        assert exact_survival(prediction.upper_95 - t_c) == pytest.approx(0.025, abs=1e-5)

    @pytest.mark.parametrize("mean, spread, t_c, horizon", [
        ((6.0, 0.5, -0.05, 0.002), (1.0, 0.3, 0.1, 0.01), 4.5, 2.5),  # dense arrivals
        ((1.0, 0.1, 0.0, 0.0), (0.5, 0.1, 0.05, 0.01), 2.0, 5.0),  # sparse arrivals
        ((2.0, -1.2, 0.0, 0.04), (0.1, 0.05, 0.01, 0.002), 1.0, 6.0),  # floor plateau
        ((0.2, 0.0), (0.19, 1e-9), 0.0, 40.0),  # some draws at the floor: survival stays high
    ])
    def test_newton_quantile_matches_bisection(self, mean, spread, t_c, horizon):
        rng = np.random.default_rng(12)
        draws = rng.normal(mean, spread, size=(2000, len(mean)))
        survival = CountingSurvival(draws, t_c, horizon)
        evaluations = 0
        for level in (0.975, 0.5, 0.025):
            lo, hi = 0.0, horizon
            if survival(hi) > level:
                assert survival.quantile(level) is None
                continue
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if survival(mid) > level else (lo, mid)
            before = survival.calls
            assert survival.quantile(level) == pytest.approx(0.5 * (lo + hi), abs=1e-6)
            evaluations += survival.calls - before
        # Bisection to 1e-6 days took about 23 evaluations per level.
        assert evaluations <= 30

    def test_interval_ordering_invariant(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            draws = rng.normal([1.5, 0.2], [0.5, 0.1], size=(100, 2))
            t_c = float(rng.uniform(0, 3))
            horizon = float(rng.uniform(0.5, 6))
            p = mixture_next_arrival(draws, t_c, horizon)
            if p.censored:
                assert p.point_estimate is None
                continue
            assert p.lower_95 is None or t_c < p.lower_95 <= p.point_estimate
            assert p.upper_95 is None or p.point_estimate <= p.upper_95 <= t_c + horizon

    def test_empty_draws_error(self):
        with pytest.raises(ValueError):
            mixture_next_arrival(np.empty((0, 2)), 0.0, 1.0)

    def test_survival_dominated_by_max_rate(self):
        draws = np.array([[1.0, 0.2], [2.0, -0.1]])
        survival = MixtureSurvival(draws, 0.5, 4.0)
        grid = np.linspace(0.0, 4.0, 33)
        lam_max = max(
            float(np.polynomial.polynomial.polyval(0.5 + grid, beta).max())
            for beta in draws
        )
        for u in grid:
            assert survival(float(u)) >= math.exp(-lam_max * u) - 1e-12

    def test_mixture_memory_does_not_grow_with_a_table(self):
        rng = np.random.default_rng(4)
        draws = rng.normal([6.0, 0.5, -0.05, 0.002], [1.0, 0.3, 0.1, 0.01], size=(4000, 4))
        tracemalloc.start()
        try:
            survival = MixtureSurvival(draws, 4.5, 2.5)
            survival.quantile(0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
