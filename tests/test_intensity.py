"""Intensity evaluation, the exact clamped integral, binning, ridge fits, and prior pooling."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadence.ingest import ConjunctionEvent
from cadence.point_process import ObservationWindow, simulate_thinning
from cadence.intensity import (
    CLAMP_FLOOR,
    SIGMA_FLOOR,
    BinnedCounts,
    ClampedPolynomials,
    PolynomialIntensity,
    RidgeConfig,
    _sign_cuts,
    bin_events,
    clamped_maximum,
    fit_ridge,
    intensity_on_grid,
    prior_from_fit,
)
from cadence.priors import GaussianPrior
from support import quad_clamped_integral

HISTORICAL_MEANS = (8.58, -0.54, -0.60, -0.01)
TCA = datetime(2023, 1, 10, tzinfo=timezone.utc)


def event(arrivals, window=1.0):
    return ConjunctionEvent("E", TCA, window, tuple(arrivals))


def eval_intensity(model, t):
    return float(intensity_on_grid(model, np.asarray(float(t))))


class TestEvalIntensity:
    def test_constant(self):
        model = PolynomialIntensity((1.0, 0.0, 0.0, 0.0))
        for t in (-3.0, 0.0, 2.5):
            assert eval_intensity(model, t) == 1.0

    def test_identity_term(self):
        assert eval_intensity(PolynomialIntensity((0.0, 1.0, 0.0, 0.0)), 2.0) == 2.0

    def test_historical_means_at_origin(self):
        assert eval_intensity(PolynomialIntensity(HISTORICAL_MEANS), 0.0) == 8.58

    def test_clamp(self):
        model = PolynomialIntensity((-1.0, 0.0, 0.0, 0.0))
        assert eval_intensity(model, 5.0) == CLAMP_FLOOR

    @pytest.mark.parametrize("size", [0, 1, 1000])
    @pytest.mark.parametrize("degree", range(6))
    def test_bits_of_clamped_polyval(self, degree, size):
        rng = np.random.default_rng(10 * degree + size)
        # Mixed signs and magnitudes, on both sides of t = 0 (t * 0 is -0.0 below it).
        coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-3, 3, degree + 1)
        coeffs[1::2] = -np.abs(coeffs[1::2])
        t = rng.uniform(-2.0, 9.0, size)
        expected = np.maximum(np.polynomial.polynomial.polyval(t, coeffs), CLAMP_FLOOR)
        got = intensity_on_grid(PolynomialIntensity(tuple(coeffs)), t)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=5),
        st.floats(-10, 10),
    )
    def test_positivity(self, coeffs, t):
        model = PolynomialIntensity(tuple(coeffs))
        assert eval_intensity(model, t) >= CLAMP_FLOOR


def span_integral(coeffs, a, b):
    """Integral of one clamped rate over the whole span [a, b] of its ``ClampedPolynomials``."""
    return ClampedPolynomials(coeffs, a, b).integral(b)[0]


class TestCumulativeIntensity:
    def test_constant_rectangle(self):
        assert span_integral([1.0], 0.0, 3.0) == pytest.approx(3.0, abs=1e-9)

    def test_linear_analytic(self):
        assert span_integral([0.0, 2.0, 0.0, 0.0], 0.0, 2.0) == pytest.approx(4.0, abs=1e-6)

    def test_historical_means_against_quadrature_oracle(self):
        oracle, _ = scipy.integrate.quad(
            lambda t: max(np.polynomial.polynomial.polyval(t, HISTORICAL_MEANS),
                          CLAMP_FLOOR),
            0.0, 1.0,
        )
        assert oracle == pytest.approx(8.1075, abs=1e-6)
        assert span_integral(HISTORICAL_MEANS, 0.0, 1.0) == pytest.approx(8.1075, abs=1e-4)

    def test_floor_lower_bound(self):
        value = span_integral([-10.0], 0.0, 4.0)
        assert value >= CLAMP_FLOOR * 4.0 * (1 - 1e-12)

    def test_reversed_interval_errors(self):
        with pytest.raises(ValueError):
            span_integral([1.0], 2.0, 1.0)

    @given(
        st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        st.floats(0, 5),
        st.floats(0, 5),
        st.floats(0, 5),
    )
    @settings(max_examples=50)
    @example(coeffs=[0.5, -3.0], x=0.0, y=1.0, z=2.0)  # crosses the floor at t = 1/6
    def test_additivity(self, coeffs, x, y, z):
        a, b, c = sorted((x, y, z))
        whole = span_integral(coeffs, a, c)
        parts = span_integral(coeffs, a, b) + span_integral(coeffs, b, c)
        assert whole == pytest.approx(parts, rel=1e-6, abs=1e-9)


def clipped_piece_sum(rates, a, b):
    """Oracle: each row's integral over [a, b] from its knots clipped to [a, b], piece by piece.

    The antiderivative is evaluated at every knot, and the pieces are
    summed with ``sum``, on each call.
    """
    points = np.minimum(np.maximum(rates._knots, a), b)
    scaled = rates.coeffs / np.arange(1, rates.coeffs.shape[1] + 1)
    anti = points * np.polynomial.polynomial.polyval(points, scaled.T[:, :, None], tensor=False)
    return np.maximum(np.diff(anti), CLAMP_FLOOR * np.diff(points)).sum(axis=1)


def crossing_rows(rng, n, degree, lo, hi):
    """n rows of floor + s (t - r_1) ... (t - r_degree), roots in [lo, hi], then n random rows."""
    roots = rng.uniform(lo, hi, (n, degree))
    products = np.array([np.polynomial.polynomial.polyfromroots(r) for r in roots])
    products *= rng.choice([-1.0, 1.0], (n, 1)) * rng.uniform(0.1, 3.0, (n, 1))
    products[:, 0] += CLAMP_FLOOR
    return np.vstack([products, rng.uniform(-3.0, 3.0, (n, degree + 1))])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestClampedPolynomials:
    @given(
        st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        st.floats(0, 7),
        st.floats(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    @example(coeffs=[0.5, -3.0, 0.0, 0.0], x=0.0, y=2.0)
    @example(coeffs=[2.0, -1.2, 0.0, 0.04], x=0.0, y=7.0)  # dips below the floor
    @example(coeffs=[0.0, 1.0, -2.0, 2.6e-183], x=0.0, y=1.0)  # negligible leading term
    def test_matches_adaptive_quadrature(self, coeffs, x, y):
        a, b = sorted((x, y))
        value = ClampedPolynomials(coeffs, a, b).integral(b)[0]
        assert value == pytest.approx(quad_clamped_integral(coeffs, a, b), rel=1e-9, abs=1e-12)

    @given(
        st.lists(st.floats(-3, 3), min_size=1, max_size=6),
        st.sampled_from([1.0, 1e-4, 1e-9, 1e-15]),
        st.floats(0, 7),
        st.floats(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    @example(coeffs=[-1.0 + 1e-6, 3.0, -3.0, 1.0], lead=1.0, x=0.0, y=2.0)  # root where p' = 0
    @example(coeffs=[0.5, -1.0, 1.0], lead=1e-15, x=0.0, y=1.0)  # leading term at rounding level
    @example(coeffs=[0.0, 0.0, 1.0], lead=1.0, x=0.0, y=1.0)  # crosses at t = 0.001, a grid point
    def test_single_row_matches_adaptive_quadrature(self, coeffs, lead, x, y):
        # Any degree, with a leading term down to rounding next to the rest.
        coeffs = [*coeffs[:-1], coeffs[-1] * lead]
        a, b = sorted((x, y))
        value = ClampedPolynomials(coeffs, a, b).integral(b)[0]
        assert value == pytest.approx(quad_clamped_integral(coeffs, a, b), rel=1e-9, abs=1e-12)

    def test_rows_are_independent(self):
        coeffs = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.5, -3.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [3.0, -1.0, 0.0, 0.0],  # mixed signs, but 3 - t stays above the floor: no cuts
            [0.96, -2.0, 1.0, 0.0],  # (t - 1)^2 - 0.04 crosses the floor near 0.8 and 1.2
            [-1.0, 0.2, 0.0, 0.0],  # below the floor throughout
        ])
        batch = ClampedPolynomials(coeffs, 0.5, 2.5).integral(2.0)
        single = [ClampedPolynomials(row, 0.5, 2.5).integral(2.0)[0] for row in coeffs]
        assert batch == pytest.approx(single, rel=1e-15)
        assert batch[:3] == pytest.approx([1.5, 1.5e-6, (2.0**4 - 0.5**4) / 4], rel=1e-12)
        for value, row in zip(batch, coeffs):
            assert value == pytest.approx(span_integral(row, 0.5, 2.0), rel=1e-12)

    def test_interval_outside_span_rejected(self):
        rates = ClampedPolynomials([[1.0, -1.0], [0.5, 0.0]], 1.0, 3.0)
        assert rates.integral(3.0) == pytest.approx([1e-6 * 2.0, 1.0], rel=1e-12)
        assert rates.integral(1.0).tolist() == [0.0, 0.0]
        for b in (0.5, 1.0 - 1e-12, 3.0 + 1e-12, 3.5, math.nan):
            with pytest.raises(ValueError):
                rates.integral(b)

    def test_integral_is_the_clipped_piece_sum_to_the_bit(self):
        # Up to seven pieces add left to right both ways, so a cubic's
        # integral from the knot table equals the per-call clipped sum.
        rng = np.random.default_rng(3)
        lo, hi = 0.5, 4.5
        rows = np.vstack([[-6.0 + CLAMP_FLOOR, 11.0, -6.0, 1.0],  # roots 1, 2, 3; turns at 2 -+ 3^-0.5
                          crossing_rows(rng, 300, 3, lo, hi)])
        rates = ClampedPolynomials(rows, lo, hi)
        assert len(set(rates._knots[0])) == rates._knots.shape[1] == 7  # five cuts
        knots = rates._knots[:4].ravel()
        for b in (lo, hi, *rng.uniform(lo, hi, 20), *knots, *np.nextafter(knots, hi)):
            assert bits(rates.integral(b)) == bits(clipped_piece_sum(rates, lo, b))
        assert bits(rates.integral(lo)) == bits(np.zeros(len(rows)))

    def test_quintic_integral_is_the_clipped_piece_sum_to_rounding(self):
        # Eight or more pieces: ``sum`` adds them pairwise, the table in order.
        rng = np.random.default_rng(4)
        lo, hi = 0.0, 3.0
        rates = ClampedPolynomials(crossing_rows(rng, 200, 5, lo, hi), lo, hi)
        assert rates._knots.shape[1] >= 9
        for b in (lo, hi, *rng.uniform(lo, hi, 20), *rates._knots[:3].ravel()):
            np.testing.assert_allclose(rates.integral(b), clipped_piece_sum(rates, lo, b),
                                       rtol=1e-13, atol=0.0)

    def test_root_where_newton_lands_on_it(self):
        # From the secant point Newton's steps reach the root from one side; the
        # last one makes it the bracket's end, and rounding points the next step
        # outward.  The search stops there instead of bisecting from the far end.
        coeffs = [2.883086020103878, 2.030637093154307, 0.09964276285215716, -0.09448867360295944]
        root = scipy.optimize.brentq(lambda t: np.polynomial.polynomial.polyval(t, coeffs),
                                     4.5, 7.0, xtol=1e-15)
        assert _sign_cuts([coeffs], 4.5, 7.0).tolist() == [[pytest.approx(root, abs=1e-13)]]

    def test_batch_cuts_match_one_row_at_a_time(self):
        # Each row keeps its own degree: trailing zeros are dropped, a leading
        # term at 1e-183 keeps a cubic, and a double root at t = 1 touches zero
        # without changing sign, so it stays a cut only as a root of p'.
        rows = np.array([
            [0.96, -2.0, 1.0, 0.0],  # (t - 1)^2 - 0.04: roots 0.8 and 1.2
            [0.5, -3.0, 0.0, 0.0],  # linear: root 1/6
            [0.0, 1.0, -2.0, 2.6e-183],  # t - 2 t^2: root 0.5 in range
            [2.0 - 1e-6, -1.2, 0.0, 0.04],  # dips below the floor twice on (1, 7)
            [1.0, -1.0, -1.0, 1.0],  # (t - 1)^2 (t + 1)
            [-1.0, 0.0, 0.0, 0.0],  # constant: no cuts
            [0.0, 0.0, 0.0, 0.0],
        ])
        batch = _sign_cuts(rows, 0.1, 7.0)
        assert batch.shape[0] == len(rows)
        for row, cuts in zip(rows, batch):
            single = _sign_cuts(row[None], 0.1, 7.0)[0]
            assert cuts[: len(single)].tolist() == single.tolist()
            assert np.all(cuts[len(single) :] == 7.0)
        assert batch[0, :2] == pytest.approx([0.8, 1.2], rel=1e-12)
        assert batch[1, 0] == pytest.approx(1 / 6, rel=1e-12)
        assert batch[2, :2] == pytest.approx([0.25, 0.5], rel=1e-12)  # p' = 0 at 0.25
        assert batch[4, 0] == 1.0 and np.all(batch[4, 1:] == 7.0)
        assert np.all(batch[5:] == 7.0)

    def test_maximum_at_root_of_derivative(self):
        # p(t) = 1 + 3t - t^2 peaks at t = 1.5 with p = 3.25.
        assert clamped_maximum([1.0, 3.0, -1.0], 0.0, 4.0) == pytest.approx(3.25, rel=1e-15)
        assert clamped_maximum([1.0, 3.0, -1.0], 0.0, 1.0) == pytest.approx(3.0, rel=1e-15)
        assert clamped_maximum([-1.0, 0.0], 0.0, 4.0) == 1e-6


class TestBinEvents:
    def test_direct_counting(self):
        binned = bin_events([event([0.2, 0.7])], 0.5)
        assert binned.counts.tolist() == [[1, 1]]

    def test_one_row_per_event(self):
        binned = bin_events([event([0.2, 0.7]), event([0.2, 0.7])], 0.5)
        assert binned.counts.tolist() == [[1, 1], [1, 1]]

    def test_window_end_in_last_bin(self):
        binned = bin_events([event([1.0])], 0.5)
        assert binned.counts.tolist() == [[0, 1]]

    def test_partial_final_bin_true_width(self):
        binned = bin_events([event([0.1], window=0.8)], 0.5)
        assert binned.bin_edges == pytest.approx((0.0, 0.5, 0.8))
        assert binned.widths == pytest.approx([0.5, 0.3])

    def test_mass_conserved(self):
        events = [event([0.05, 0.31, 0.62, 0.99]), event([0.5])]
        binned = bin_events(events, 0.25)
        assert binned.counts.sum() == 5

    def test_empty_list_errors(self):
        with pytest.raises(ValueError):
            bin_events([], 0.5)


def oracle_ridge(binned: BinnedCounts, alpha, degree):
    """Independent normal-equations solve via numpy's generic solver, for one event."""
    mids = binned.midpoints
    design = np.vander(mids, degree + 1, increasing=True) * binned.widths[:, None]
    y = np.ravel(binned.counts).astype(float)
    gram = design.T @ design + alpha * np.eye(degree + 1)
    return np.linalg.solve(gram, design.T @ y)


class TestFitRidge:
    def test_exact_recovery_noiseless(self):
        # Build the unique cubic whose exact bin integrals hit the integer
        # counts, so the data are noiseless for that cubic by construction.
        binned = BinnedCounts(bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0), counts=(3, 1, 4, 1))
        design = np.vander(binned.midpoints, 4, increasing=True) * binned.widths[:, None]
        beta_star = np.linalg.solve(design, np.asarray(binned.counts, dtype=float))
        fitted = fit_ridge(binned, RidgeConfig(alpha=0.0, degree=3, bin_width=1.0))
        assert np.asarray(fitted) == pytest.approx(beta_star, rel=1e-6)

    def test_huge_alpha_shrinks_to_zero(self):
        binned = bin_events([event([0.1, 0.4, 0.9])], 0.25)
        (fitted,) = fit_ridge(binned, RidgeConfig(alpha=1e12, degree=3, bin_width=0.25))
        (counts,) = binned.counts
        max_y = max(counts)
        assert all(abs(b) < 1e-6 * max_y for b in fitted)

    def test_against_independent_oracle(self):
        binned = BinnedCounts(
            bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
            counts=(3, 1, 4, 1, 5),
        )
        config = RidgeConfig(alpha=1.0, degree=3, bin_width=1.0)
        fitted = fit_ridge(binned, config)
        oracle = oracle_ridge(binned, 1.0, 3)
        assert np.asarray(fitted) == pytest.approx(oracle, abs=1e-10)

    def test_norm_monotone_in_alpha(self):
        binned = BinnedCounts(
            bin_edges=tuple(np.arange(0.0, 7.5, 0.5)),
            counts=tuple(np.random.default_rng(5).poisson(3.0, 14).tolist()),
        )
        norms = []
        for alpha in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0):
            beta = fit_ridge(binned, RidgeConfig(alpha=alpha, degree=3, bin_width=0.5))
            norms.append(np.linalg.norm(beta))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_perturbation_never_improves_objective(self):
        binned = bin_events([event([0.5, 1.1, 2.4, 3.3, 5.9], window=7.0)], 0.5)
        config = RidgeConfig(alpha=0.5, degree=3, bin_width=0.5)
        (beta,) = fit_ridge(binned, config)
        (counts,) = binned.counts

        def objective(b):
            lam = np.polynomial.polynomial.polyval(binned.midpoints, b)
            resid = np.asarray(counts, dtype=float) - lam * binned.widths
            return float(resid @ resid + config.alpha * b @ b)

        base = objective(beta)
        rng = np.random.default_rng(11)
        for _ in range(50):
            delta = rng.standard_normal(4)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(beta + delta) >= base - 1e-12

    def test_each_row_matches_single_event_oracle(self):
        model = PolynomialIntensity((2.0, -1.2, 0.0, 0.04))
        events = [ConjunctionEvent("E", TCA, 7.0, tuple(arrivals))
                  for seed in range(300)
                  if (arrivals := simulate_thinning(model, ObservationWindow(0.0, 7.0), seed))]
        # At the window start, on an interior bin edge and at the window end.
        events.append(ConjunctionEvent("EDGES", TCA, 7.0, (0.0, 3.5, 7.0)))
        binned = bin_events(events, 0.5)
        assert binned.counts[-1].nonzero()[0].tolist() == [0, 7, 13]
        config = RidgeConfig(alpha=1.0, degree=3, bin_width=0.5)
        fitted = fit_ridge(binned, config)
        assert fitted.shape == (len(events), 4)
        for row, e in zip(fitted, events):
            oracle = oracle_ridge(bin_events([e], 0.5), config.alpha, config.degree)
            assert row == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("alpha, degree, rejected", [
        (0.0, 7, False), (0.0, 8, True), (0.0, 9, True), (0.0, 13, True),
        (1.0, 3, False), (1.0, 9, False), (1.0, 10, True),
    ])
    def test_ill_conditioned_gram_rejected(self, alpha, degree, rejected):
        # The default 14 bins of a 7-day window; the Gram matrix ignores the
        # counts, so a rejection does not depend on them.
        binned = BinnedCounts(bin_edges=tuple(np.arange(0.0, 7.5, 0.5)),
                              counts=np.random.default_rng(degree).poisson(3.0, (5, 14)))
        config = RidgeConfig(alpha=alpha, degree=degree, bin_width=0.5)
        if rejected:
            with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
                fit_ridge(binned, config)
        else:
            assert np.isfinite(fit_ridge(binned, config)).all()

    def test_rank_deficient_unpenalized_errors(self):
        binned = BinnedCounts(bin_edges=(0.0, 1.0, 2.0), counts=(1, 2))
        with pytest.raises(ValueError):
            fit_ridge(binned, RidgeConfig(alpha=0.0, degree=3, bin_width=1.0))


class TestPriorFromFit:
    def test_two_point_sample(self):
        prior = prior_from_fit([(0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0)])
        assert prior.mu[0] == pytest.approx(1.0)
        assert prior.sigma[0] == pytest.approx(math.sqrt(2.0))
        assert prior.sigma[1] == 1e-3
        assert prior_from_fit(np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])) == prior

    def test_identical_vectors_floored(self):
        v = (1.5, -0.2, 0.3, 0.0)
        prior = prior_from_fit([v, v, v])
        assert prior.mu == pytest.approx(v)
        assert all(s == 1e-3 for s in prior.sigma)

    def test_single_event_floored(self):
        prior = prior_from_fit([(4.0, 1.0)])
        assert prior.mu == pytest.approx((4.0, 1.0))
        assert prior.sigma == (SIGMA_FLOOR, SIGMA_FLOOR)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            prior_from_fit([])


class TestPriorSerialization:
    def test_json_round_trip(self):
        prior = GaussianPrior(mu=HISTORICAL_MEANS, sigma=(3.42, 0.41, 0.37, 0.19))
        text = prior.to_json()
        assert GaussianPrior.from_json(text) == prior
        assert '"degree": 3' in text

    def test_non_finite_values_rejected(self):
        text = '{"degree": 1, "mu": [NaN, 0.0], "sigma": [1.0, Infinity]}'
        with pytest.raises(ValueError, match="finite"):
            GaussianPrior.from_json(text)
