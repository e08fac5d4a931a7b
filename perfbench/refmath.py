"""Reference numerics for the benchmark, kept apart from the cadence package.

Nothing here imports cadence.  The checks in ``checks.py`` compare the
program's outputs against these computations:

* ``ClampedPolynomials``: the exact integral of max(p(t), floor) for
  polynomials p, split at the real roots of p - floor;
* ``simulate_events``: an NHPP generator by time rescaling of that exact
  integral;
* ``ridge_prior``: independent binning, a ridge solve by ``lstsq`` on the
  augmented system [X; sqrt(alpha) I], and the pooled mean and std.
"""
from __future__ import annotations

import numpy as np

# Roots whose imaginary part is below this (relative) are treated as real.
# A complex pair this close to the real axis marks a near-tangency where the
# integrand differs from either branch by O(imag^2), so either choice is exact
# to rounding; the midpoint test below picks the right branch regardless.
_REAL_ROOT_TOL = 1e-7


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of each row's polynomial (ascending powers), NaN-padded.

    Rows with a non-zero leading coefficient share one batched
    companion-matrix eigenvalue call; the rare others go through np.roots.
    """
    n, d1 = coeffs.shape
    degree = d1 - 1
    out = np.full((n, max(degree, 1)), np.nan)
    if degree == 0:
        return out
    lead = coeffs[:, -1]
    full = lead != 0
    if full.any():
        monic = coeffs[full, :-1] / lead[full, None]
        companion = np.zeros((int(full.sum()), degree, degree))
        companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
        companion[:, :, -1] = -monic
        roots = np.linalg.eigvals(companion)
        real = np.abs(roots.imag) <= _REAL_ROOT_TOL * (1.0 + np.abs(roots.real))
        out[full] = np.where(real, roots.real, np.nan)
    for i in np.flatnonzero(~full):
        roots = np.roots(coeffs[i, ::-1])  # np.roots trims leading zeros
        real = roots[np.abs(roots.imag) <= _REAL_ROOT_TOL * (1.0 + np.abs(roots.real))].real
        out[i, : len(real)] = real
    return out


def _polyval_rows(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate row i's polynomial at t[i, ...] (rows broadcast when n == 1)."""
    extra = (1,) * (t.ndim - 1)
    value = np.zeros(np.broadcast_shapes(t.shape, (coeffs.shape[0],) + extra))
    for j in range(coeffs.shape[1] - 1, -1, -1):
        value = value * t + coeffs[:, j].reshape((-1,) + extra)
    return value


class ClampedPolynomials:
    """Rates r_k(t) = max(p_k(t), floor) with exact integrals.

    ``coeffs`` is (n, d+1) in ascending powers, or (d+1,) for one rate.
    Bounds passed to the methods are scalars or 1-D arrays of length n
    (any length when n == 1).
    """

    def __init__(self, coeffs, floor: float):
        if not floor > 0:
            raise ValueError("floor must be positive")
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.floor = float(floor)
        shifted = self.coeffs.copy()
        shifted[:, 0] -= self.floor
        self._roots = np.sort(_real_roots(shifted), axis=1)  # NaN padding sorts last
        powers = np.arange(1, self.coeffs.shape[1] + 1)
        self._anti = np.hstack([np.zeros((len(self.coeffs), 1)), self.coeffs / powers])

    def rate(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.maximum(_polyval_rows(self.coeffs, t), self.floor)

    def integral(self, a, b) -> np.ndarray:
        """Exact integral of each clamped rate over [a, b], a <= b."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        rows = np.broadcast_shapes(a.shape, b.shape, (len(self.coeffs),))[0]
        lo = np.broadcast_to(a, (rows,))[:, None]
        hi = np.broadcast_to(b, (rows,))[:, None]
        if np.any(lo > hi):
            raise ValueError("interval start must not exceed its end")
        # Clipping keeps the sorted roots in order and NaN maps to hi, so the
        # breakpoints lo <= r_1 <= ... <= hi need no sort.
        inner = np.where(np.isnan(self._roots), hi, np.clip(self._roots, lo, hi))
        points = np.concatenate([lo, inner, hi], axis=1)
        left, right = points[:, :-1], points[:, 1:]
        above = _polyval_rows(self.coeffs, 0.5 * (left + right)) > self.floor
        anti = _polyval_rows(self._anti, points)
        pieces = np.where(above, anti[:, 1:] - anti[:, :-1], self.floor * (right - left))
        return pieces.sum(axis=1)

    def inverse_cumulative(self, y, start: float, end: float, tol: float = 1e-10) -> np.ndarray:
        """Times t in [start, end] with integral(start, t) == y (single rate).

        The integrand is at least ``floor`` > 0, so the cumulative integral
        is strictly increasing: a table of it on a 4096-interval grid
        brackets each t, and bisection narrows the bracket below ``tol``.
        """
        if len(self.coeffs) != 1:
            raise ValueError("inverse_cumulative needs a single rate")
        y = np.asarray(y, dtype=float).ravel()
        grid = np.linspace(start, end, 4097)
        cell = np.clip(np.searchsorted(self.integral(start, grid), y, side="right") - 1, 0, len(grid) - 2)
        lo, hi = grid[cell], grid[cell + 1]
        while y.size and np.max(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            below = self.integral(start, mid) < y
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def cubic_derivative_bounds(coeffs: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row max |p'| and max |p''| over [lo, hi] for cubics (ascending powers)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape[1] != 4:
        raise ValueError("cubic coefficients expected")
    c1, c2, c3 = c[:, 1], c[:, 2], c[:, 3]

    def d1(t):
        return c1 + 2 * c2 * t + 3 * c3 * t * t

    def d2(t):
        return 2 * c2 + 6 * c3 * t

    first = np.maximum(np.abs(d1(lo)), np.abs(d1(hi)))
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(c3 != 0, -c2 / (3 * c3), lo)
    inside = (vertex > lo) & (vertex < hi)
    first = np.where(inside, np.maximum(first, np.abs(d1(vertex))), first)
    second = np.maximum(np.abs(d2(lo)), np.abs(d2(hi)))
    return first, second


def simulate_events(
    beta, floor: float, window: float, n_events: int, rng: np.random.Generator,
    count: int | None = None,
) -> list[np.ndarray]:
    """Arrival times on [0, window] for n_events NHPP realizations.

    Time rescaling: the unit-rate Poisson process on [0, L], L the exact
    integral of the clamped rate over the window, is, given its count,
    that many sorted uniforms on [0, L]; mapping them through the inverse
    cumulative integral gives the NHPP.  The count is Poisson(L), or
    ``count`` to condition every event on a fixed number of arrivals.
    """
    rate = ClampedPolynomials(beta, floor)
    total = float(rate.integral(0.0, window)[0])
    counts = rng.poisson(total, n_events) if count is None else np.full(n_events, count)
    rescaled = rng.uniform(0.0, total, int(counts.sum()))
    times = rate.inverse_cumulative(rescaled, 0.0, window)
    return [np.sort(chunk) for chunk in np.split(times, np.cumsum(counts)[:-1])]


def bin_edges(window: float, bin_width: float) -> np.ndarray:
    """Uniform edges from 0; a final partial bin keeps its true width."""
    n_full = int(np.floor(window / bin_width + 1e-12))
    edges = bin_width * np.arange(n_full + 1)
    if window - edges[-1] > 1e-12 * max(1.0, window):
        edges = np.append(edges, window)
    edges[-1] = window
    return edges


def bin_counts(arrival_lists: list[np.ndarray], edges: np.ndarray) -> np.ndarray:
    """(events, bins) counts: bins are [left, right), the last one closed."""
    n_bins = len(edges) - 1
    counts = np.zeros((len(arrival_lists), n_bins))
    for i, times in enumerate(arrival_lists):
        idx = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, n_bins - 1)
        counts[i] = np.bincount(idx, minlength=n_bins)
    return counts


def ridge_prior(
    arrival_lists: list[np.ndarray], window: float, bin_width: float, degree: int,
    alpha: float, sigma_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-event ridge fits of binned counts, pooled into (mu, sigma).

    Each event minimizes ||X beta - y||^2 + alpha ||beta||^2 with X the
    bin-width-scaled Vandermonde matrix of bin midpoints; all events share
    X, so one lstsq call on [X; sqrt(alpha) I] solves them together.
    """
    edges = bin_edges(window, bin_width)
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    design = np.vander(mids, degree + 1, increasing=True) * widths[:, None]
    augmented = np.vstack([design, np.sqrt(alpha) * np.eye(degree + 1)])
    counts = bin_counts(arrival_lists, edges)
    rhs = np.vstack([counts.T, np.zeros((degree + 1, len(arrival_lists)))])
    fits = np.linalg.lstsq(augmented, rhs, rcond=None)[0].T
    mu = fits.mean(axis=0)
    if len(fits) > 1:
        sigma = np.maximum(fits.std(axis=0, ddof=1), sigma_floor)
    else:
        sigma = np.full(degree + 1, sigma_floor)
    return mu, sigma
