"""Tests of the benchmark's reference numerics against closed forms and quad.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from refmath import (
    ClampedPolynomials,
    bin_counts,
    bin_edges,
    cubic_derivative_bounds,
    ridge_prior,
    simulate_events,
)


def clamped_quad(coeffs, floor, a, b):
    def rate(t):
        return max(np.polynomial.polynomial.polyval(t, coeffs), floor)

    # Tell quad where the kinks are: the real roots of p - floor.
    shifted = np.array(coeffs, dtype=float)
    shifted[0] -= floor
    roots = np.roots(shifted[::-1])
    kinks = sorted(r.real for r in roots if abs(r.imag) < 1e-9 and a < r.real < b)
    value, _ = quad(rate, a, b, points=kinks or None, limit=500, epsabs=1e-13, epsrel=1e-12)
    return value


def test_unclamped_cubic_matches_antiderivative():
    rate = ClampedPolynomials([1.0, 2.0, 3.0, 4.0], floor=1e-6)
    # t + t^2 + t^3 + t^4 on [0, 2]
    assert rate.integral(0.0, 2.0)[0] == pytest.approx(30.0, rel=1e-14)
    assert rate.integral(0.5, 0.5)[0] == 0.0


def test_rate_below_floor_everywhere_integrates_the_floor():
    rate = ClampedPolynomials([-1.0, 0.0, -2.0, 0.0], floor=0.25)
    assert rate.integral(1.0, 5.0)[0] == pytest.approx(1.0, rel=1e-14)


def test_linear_crossing_splits_at_the_root():
    # max(t - 1, 0.5) on [0, 3]: floor up to 1.5, then t - 1.
    rate = ClampedPolynomials([-1.0, 1.0], floor=0.5)
    assert rate.integral(0.0, 3.0)[0] == pytest.approx(0.75 + 1.5 + 0.375, rel=1e-14)


def test_leading_zero_coefficients_use_the_lower_degree():
    rate = ClampedPolynomials([1.0, 0.1, 0.0, 0.0], floor=1e-6)
    assert rate.integral(0.0, 7.0)[0] == pytest.approx(7.0 + 0.05 * 49.0, rel=1e-14)


def test_random_clamped_cubics_match_quad():
    rng = np.random.default_rng(11)
    coeffs = rng.normal([2.0, -1.0, 0.0, 0.04], [2.0, 1.0, 0.3, 0.05], size=(40, 4))
    rates = ClampedPolynomials(coeffs, floor=1e-3)
    batched = rates.integral(0.3, 6.5)
    clamped_rows = 0
    for k, c in enumerate(coeffs):
        grid = np.linspace(0.3, 6.5, 2001)
        clamped_rows += np.polynomial.polynomial.polyval(grid, c).min() < 1e-3
        expected = clamped_quad(c, 1e-3, 0.3, 6.5)
        assert batched[k] == pytest.approx(expected, rel=1e-10, abs=1e-12)
        single = ClampedPolynomials(c, floor=1e-3).integral(0.3, 6.5)[0]
        assert single == pytest.approx(batched[k], rel=1e-13, abs=1e-15)
    assert clamped_rows >= 10  # the clamp is exercised, not a corner case


def test_one_rate_broadcasts_over_many_bounds():
    rate = ClampedPolynomials([2.0, -1.2, 0.0, 0.04], floor=1e-6)
    ends = np.linspace(0.0, 7.0, 15)
    values = rate.integral(0.0, ends)
    for end, value in zip(ends, values):
        assert value == pytest.approx(clamped_quad([2.0, -1.2, 0.0, 0.04], 1e-6, 0.0, end),
                                      rel=1e-10, abs=1e-12)


def test_reversed_bounds_are_rejected():
    with pytest.raises(ValueError):
        ClampedPolynomials([1.0], floor=1e-6).integral(2.0, 1.0)


def test_inverse_cumulative_round_trips():
    rate = ClampedPolynomials([2.0, -1.2, 0.0, 0.04], floor=1e-6)
    total = rate.integral(0.0, 7.0)[0]
    y = np.linspace(0.0, total, 101)
    t = rate.inverse_cumulative(y, 0.0, 7.0)
    assert np.all(np.diff(t) >= 0)
    # Bisection stops at a 1e-10-day bracket; the rate is below 8 on [0, 7].
    np.testing.assert_allclose(rate.integral(0.0, t), y, rtol=0, atol=8 * 1e-10)


def test_derivative_bounds_match_a_dense_grid():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(25, 4))
    first, second = cubic_derivative_bounds(coeffs, 1.0, 4.0)
    grid = np.linspace(1.0, 4.0, 20001)
    for k, c in enumerate(coeffs):
        d1 = np.polynomial.polynomial.polyder(c)
        d2 = np.polynomial.polynomial.polyder(d1)
        dense1 = np.abs(np.polynomial.polynomial.polyval(grid, d1)).max()
        dense2 = np.abs(np.polynomial.polynomial.polyval(grid, d2)).max()
        assert dense1 <= first[k] * (1 + 1e-12) and first[k] <= dense1 * (1 + 1e-6)
        assert second[k] == pytest.approx(dense2, rel=1e-12)


def test_generator_counts_follow_the_poisson_law():
    beta, window = [2.0, -1.2, 0.0, 0.04], 7.0
    total = ClampedPolynomials(beta, 1e-6).integral(0.0, window)[0]
    events = simulate_events(beta, 1e-6, window, 4000, np.random.default_rng(5))
    counts = np.array([len(e) for e in events])
    n = len(counts)
    assert abs(counts.mean() - total) <= 4.5 * math.sqrt(total / n)
    dispersion = counts.var(ddof=1) / total
    assert abs(dispersion - 1.0) <= 4.5 * math.sqrt(2.0 / (n - 1) + 1.0 / (n * total))
    for times in events:
        assert np.all(np.diff(times) > 0)
        assert times.size == 0 or (times[0] >= 0.0 and times[-1] <= window)


def test_generator_places_arrivals_by_the_rate():
    # Share of arrivals before t is Lambda(t) / Lambda(window).
    beta, window = [1.0, 0.1, 0.0, 0.0], 7.0
    events = simulate_events(beta, 1e-6, window, 3000, np.random.default_rng(8), count=9)
    assert all(len(e) == 9 for e in events)
    times = np.concatenate(events)
    share = (times <= 3.5).mean()
    expected = (3.5 + 0.05 * 3.5**2) / (7.0 + 0.05 * 49.0)
    assert abs(share - expected) <= 4.5 * math.sqrt(expected * (1 - expected) / times.size)


def test_binning_edges_and_boundaries():
    edges = bin_edges(7.0, 0.5)
    assert len(edges) == 15 and edges[-1] == 7.0
    assert np.allclose(bin_edges(7.0, 3.0), [0.0, 3.0, 6.0, 7.0])
    counts = bin_counts([np.array([0.0, 0.5, 0.49, 7.0, 6.99])], edges)
    assert counts[0, 0] == 2 and counts[0, 1] == 1 and counts[0, -1] == 2
    assert counts.sum() == 5


def test_ridge_matches_the_normal_equations_and_recovers_exact_rates():
    rng = np.random.default_rng(2)
    events = simulate_events([3.0, 0.5, 0.0, 0.0], 1e-6, 7.0, 50, rng)
    edges = bin_edges(7.0, 0.5)
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    design = np.vander(mids, 4, increasing=True) * widths[:, None]
    counts = bin_counts(events, edges)
    alpha = 1.0
    normal = np.linalg.solve(design.T @ design + alpha * np.eye(4), design.T @ counts.T).T
    mu, sigma = ridge_prior(events, 7.0, 0.5, 3, alpha, 1e-3)
    np.testing.assert_allclose(mu, normal.mean(axis=0), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(sigma, np.maximum(normal.std(axis=0, ddof=1), 1e-3), rtol=1e-9)

    # One arrival per half-day bin is the exact count of a constant rate 2;
    # without the penalty the fit recovers it, and one event gives the floor.
    mu0, sigma0 = ridge_prior([mids], 7.0, 0.5, 3, 0.0, 1e-3)
    np.testing.assert_allclose(mu0, [2.0, 0.0, 0.0, 0.0], atol=1e-10)
    assert np.all(sigma0 == 1e-3)
