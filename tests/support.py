"""Shared test helpers: quadrature oracles for the clamped rate, the likelihood term, fixed-cutoff runs.

The oracles use scipy only, never the integral they check.
"""

import numpy as np
import scipy.integrate
import scipy.optimize

from cadence.inference import make_log_posterior
from cadence.ingest import cutoff_time
from cadence.intensity import CLAMP_FLOOR
from cadence.prediction import runs_at_cutoff
from cadence.priors import GaussianPrior


def floor_crossings(coeffs, floor, a, b):
    """Where p - floor changes sign on [a, b]: a 10^4-point scan refined by brentq."""
    def excess(t):
        return np.polynomial.polynomial.polyval(t, coeffs) - floor

    grid = np.linspace(a, b, 10_001)
    values = excess(grid)
    cells = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    roots = [scipy.optimize.brentq(excess, grid[i], grid[i + 1], xtol=1e-15) for i in cells]
    on_grid = np.flatnonzero(values[1:-1] == 0.0) + 1  # a root can fall on a grid point
    return sorted(roots + [grid[i] for i in on_grid if values[i - 1] * values[i + 1] < 0])


def quad_clamped_integral(coeffs, a, b):
    """Oracle: adaptive quadrature of max(p, CLAMP_FLOOR) over [a, b], split at the floor crossings."""
    def rate(t):
        return max(np.polynomial.polynomial.polyval(t, coeffs), CLAMP_FLOOR)

    value, _ = scipy.integrate.quad(rate, a, b, points=floor_crossings(coeffs, CLAMP_FLOOR, a, b)
                                    or None, epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def likelihood_term(coefficients, arrivals, t_c):
    """The NHPP log-likelihood of ``arrivals`` on [0, t_c] inside ``make_log_posterior``.

    The log-posterior of one state less its prior-only value (a window of
    zero width), under a standard Normal prior.
    """
    dim = len(coefficients)
    prior = GaussianPrior((0.0,) * dim, (1.0,) * dim)
    state = np.array([coefficients], dtype=float)
    return float(make_log_posterior(prior, arrivals, t_c)(state)[0]
                 - make_log_posterior(prior, [], 0.0)(state)[0])


def fixed_cutoff_runs(events, prior, cutoff_days_before_tca, sampler):
    """The runs of every event at one cutoff, as ``cadence predict`` makes them."""
    return [run for event in events
            for run in runs_at_cutoff(event, prior, cutoff_time(event, cutoff_days_before_tca),
                                      sampler)[0]]
