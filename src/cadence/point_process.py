"""NHPP core: thinning simulation, posterior-mixture survival and its quantiles.

Counts over an interval are Poisson with mean equal to the integrated
(clamped) intensity; the next-arrival survival from a cutoff is the void
probability of the interval beyond it.  Integrals and the thinning bound
are exact (``intensity.ClampedPolynomials`` over posterior draws,
``clamped_maximum`` for the bound): their pieces come from the one
array root finder of ``intensity``, skipped where the Bernstein
coefficients share a sign.  Thinning draws an event's candidates as a
Poisson count of sorted uniform times at the bound, computed once per
model, and accepts them with one rate evaluation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .intensity import (
    CLAMP_FLOOR,
    ClampedPolynomials,
    PolynomialIntensity,
    clamped_maximum,
    intensity_on_grid,
)

QUANTILE_TOL_DAYS = 1e-6  # a Newton step this short leaves an error far below it
QUANTILE_MAX_ITER = 60


@dataclass(frozen=True)
class ObservationWindow:
    """Half-open stretch of time [start, end] over which arrivals are observed."""

    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError("window start must precede its end")


@dataclass(frozen=True)
class ArrivalPrediction:
    """Next-arrival forecast: median, 95% interval, censoring flag.

    Times are window coordinates (days).  ``censored`` means the model
    expects no arrival within the horizon, i.e. survival at the horizon
    still exceeds one half; the point estimate is then absent.  Interval
    bounds whose quantile falls beyond the horizon are absent too.
    """

    cutoff: float
    horizon: float
    censored: bool
    point_estimate: float | None = None
    lower_95: float | None = None
    upper_95: float | None = None


@functools.lru_cache(maxsize=1)
def thinning_rate_bound(model: PolynomialIntensity, window: ObservationWindow) -> float:
    """Thinning bound: exact maximum of the clamped rate, cached for the last (model, window)."""
    return clamped_maximum(model.coefficients, window.start, window.end)


def simulate_thinning(
    model: PolynomialIntensity, window: ObservationWindow, rng_seed: int
) -> list[float]:
    """Simulate one NHPP realization on the window by thinning (Lewis & Shedler).

    The candidates form a homogeneous Poisson process at the dominating
    rate lambda_max: a Poisson(lambda_max * width) count of uniform times
    on the window, drawn and sorted at once.  A candidate t is kept when
    its acceptance uniform u has u * lambda_max < lambda(t), one rate
    evaluation for all of them.  Output is sorted and strictly increasing
    (two equal uniform draws have probability zero); deterministic given
    the seed.
    """
    lam_max = thinning_rate_bound(model, window)
    rng = np.random.default_rng(rng_seed)
    n = rng.poisson(lam_max * (window.end - window.start))
    times = np.sort(rng.uniform(window.start, window.end, size=n))
    accept = rng.uniform(size=n) * lam_max < intensity_on_grid(model, times)
    return times[accept].tolist()


def run_starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal consecutive rows starts: rows (..., n, k) -> bool (..., n).

    Rows compare by their bits, so 0.0 and -0.0 differ and a nan matches
    itself: a repeated row gives the same results as its run's first row.
    """
    bits = np.ascontiguousarray(rows, dtype=float).view(np.int64)
    starts = np.ones(bits.shape[:-1], dtype=bool)
    starts[..., 1:] = (bits[..., 1:, :] != bits[..., :-1, :]).any(axis=-1)
    return starts


class MixtureSurvival:
    """Posterior-mixture survival of the next arrival beyond a cutoff.

    One ``ClampedPolynomials`` over the distinct draws on [t_c, t_c + horizon]:
    survival(u) is the mean over draws of exp(-integral of the rate over
    [t_c, t_c + u]), exact for every u with no grid.  A rejected
    Metropolis proposal repeats the draw before it, so each run of equal
    consecutive draws is integrated once; its value is repeated before the
    mean, which adds the same numbers in the same order as a mean over
    every draw.  Each evaluation keeps the per-run survivals, so the
    mixture density at the same u costs one polynomial evaluation more.
    """

    def __init__(self, draws: np.ndarray, t_c: float, horizon: float):
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or draws.shape[0] == 0:
            raise ValueError("draws must be a non-empty 2-D array of coefficients")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.t_c = float(t_c)
        self.horizon = float(horizon)
        starts = run_starts(draws)
        self._index = np.cumsum(starts) - 1  # each draw's run
        self._rates = ClampedPolynomials(draws[starts], self.t_c, self.t_c + self.horizon)
        self._per_run = np.ones(len(self._rates.coeffs))  # each run's survival at the last u

    def __call__(self, u: float) -> float:
        if u < 0:
            raise ValueError("look-ahead u must be non-negative")
        u = min(u, self.horizon)
        self._per_run = np.exp(-self._rates.integral(self.t_c + u))
        return float(self._per_run.take(self._index).mean())

    def _density(self, u: float, per_run) -> float:
        """Mixture density of the waiting time: mean over draws of rate(t_c + u) * survival(u)."""
        rate = np.polynomial.polynomial.polyval(self.t_c + u, self._rates.coeffs.T)
        return float((np.maximum(rate, CLAMP_FLOOR) * per_run).take(self._index).mean())

    def quantile(self, level: float, at_horizon: float | None = None) -> float | None:
        """Waiting time u with survival(u) == level, or None beyond the horizon.

        ``at_horizon`` is survival(horizon) when the caller has it already.
        Newton's method on log survival, starting with the step off u = 0
        (where survival is 1 and the density is the mean rate), kept inside
        the bracket that each evaluation narrows; a step that would leave
        it bisects instead.
        """
        if at_horizon is None:
            at_horizon = self(self.horizon)
        if at_horizon > level:
            return None
        lo, hi = 0.0, self.horizon  # survival(lo) > level >= survival(hi)
        u = _newton_step(0.0, 1.0, self._density(0.0, 1.0), level, lo, hi)
        for _ in range(QUANTILE_MAX_ITER):
            value = self(u)
            if value > level:
                lo = u
            else:
                hi = u
            step = _newton_step(u, value, self._density(u, self._per_run), level, lo, hi)
            if abs(step - u) <= QUANTILE_TOL_DAYS or hi - lo <= QUANTILE_TOL_DAYS:
                return step
            u = step
        return u


def _newton_step(u: float, value: float, density: float, level: float, lo: float, hi: float) -> float:
    """Newton step for log survival(u) = log level, or the midpoint of (lo, hi) if it leaves it."""
    step = u + value * math.log(value / level) / density if value > 0 and density > 0 else math.nan
    return step if lo < step < hi else 0.5 * (lo + hi)


def mixture_next_arrival(draws: np.ndarray, t_c: float, horizon: float) -> ArrivalPrediction:
    """Predict the next arrival from posterior coefficient draws.

    The mixture survival averages each draw's void probability.  The point
    estimate is the survival median; the 95% interval spans the 0.975 and
    0.025 survival levels.  Censored when the survival at the horizon
    still exceeds one half ("no arrival expected before the horizon").
    """
    survival = MixtureSurvival(draws, t_c, horizon)
    at_horizon = survival(horizon)
    censored = at_horizon > 0.5

    median_u = None if censored else survival.quantile(0.5, at_horizon)
    lower_u = survival.quantile(0.975, at_horizon)
    upper_u = survival.quantile(0.025, at_horizon)
    return ArrivalPrediction(
        cutoff=t_c,
        horizon=horizon,
        censored=censored,
        point_estimate=None if median_u is None else t_c + median_u,
        lower_95=None if lower_u is None else t_c + lower_u,
        upper_95=None if upper_u is None else t_c + upper_u,
    )
