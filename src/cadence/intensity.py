"""Polynomial intensity family, its exact integral, event binning, and ridge fits.

The intensity lambda(t) = beta_0 + beta_1 t + ... + beta_m t^m is clamped
below at the fixed floor ``CLAMP_FLOOR`` so that rates and log-likelihoods
stay finite.  Integrals of the clamped rate are exact: the sign changes of
p - floor split an interval into pieces on which the rate is either the
polynomial or the floor.  One array root finder (``_sign_cuts``) cuts
every row of a batch at once, skipped where the Bernstein coefficients
share a sign; there is no per-row path.  ``ClampedPolynomials`` integrates
a batch (posterior draws, the sampler's proposals), and
``clamped_maximum`` takes one polynomial.

Training events share one bin grid, so ``bin_events`` counts them as rows
of one array and ``fit_ridge`` fits every row with one ``np.linalg.solve``
of their shared Gram matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import ConjunctionEvent
from .priors import GaussianPrior

CLAMP_FLOOR = 1e-6  # the rate's lower clamp: keeps log-rates finite
SIGMA_FLOOR = 1e-3  # least prior scale pooled from per-event fits
ROOT_MAX_ITER = 100  # bisection alone would narrow a 7-day bracket past 1e-28 days
# A root found to this (relative) step moves an integral by about
# |p'| (1e-9 |r|)^2 / 2: below rounding.
ROOT_XTOL = 1e-9


@dataclass(frozen=True)
class PolynomialIntensity:
    """Clamped polynomial rate, coefficients in ascending power order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        # Plain floats in a tuple: the model is hashable and compares by value.
        object.__setattr__(self, "coefficients", tuple(map(float, self.coefficients)))
        if len(self.coefficients) == 0:
            raise ValueError("at least one coefficient required")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class BinnedCounts:
    """Arrival counts per time bin, one row per event (..., n_bins), with regression abscissae."""

    bin_edges: tuple[float, ...]
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges)
        if len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing, >= 2 entries")
        counts = np.asarray(self.counts)
        if counts.ndim == 0 or counts.shape[-1] != len(edges) - 1:
            raise ValueError("need exactly one count per bin")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def widths(self) -> np.ndarray:
        return np.diff(np.asarray(self.bin_edges))

    @property
    def midpoints(self) -> np.ndarray:
        edges = np.asarray(self.bin_edges)
        return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class RidgeConfig:
    """Ridge fit settings: L2 strength, polynomial degree, bin width (days)."""

    alpha: float = 1.0
    degree: int = 3
    bin_width: float = 0.5

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")


def intensity_on_grid(model: PolynomialIntensity, t: np.ndarray) -> np.ndarray:
    """Clamped intensity evaluated on an array of times.

    Horner's rule in ``np.polynomial.polynomial.polyval``'s own order, so
    the values are its bits without its fixed cost per call.
    """
    c = model.coefficients
    raw = c[-1] + t * 0
    for coefficient in c[-2::-1]:
        raw = coefficient + raw * t
    return np.maximum(raw, CLAMP_FLOOR)


def bernstein_matrix(n_coeffs: int, lo: float, hi: float) -> np.ndarray:
    """Matrix taking ascending power coefficients to Bernstein coefficients on [lo, hi].

    Coefficient k is sum_{i<=k} C(k,i)/C(d,i) a_i, where a_i are the power
    coefficients in s = (t - lo) / (hi - lo): a_i = sum_{j>=i} C(j,i) lo^(j-i)
    (hi - lo)^i beta_j.  The polynomial on [lo, hi] lies between its
    smallest and largest Bernstein coefficient.
    """
    powers = range(n_coeffs)
    to_bernstein = np.array([[math.comb(k, i) / math.comb(n_coeffs - 1, i) for i in powers]
                             for k in powers])
    shift = np.array([[math.comb(j, i) * lo ** (j - i) if j >= i else 0.0 for j in powers]
                      for i in powers])
    return to_bernstein @ (shift * (hi - lo) ** np.arange(n_coeffs)[:, None])


def _bracketed_roots(coeffs: np.ndarray, lo, hi, v_lo, v_hi) -> np.ndarray:
    """Roots of the rows of ``coeffs``, each monotone on its [lo, hi] and changing sign there.

    Newton's method from the secant point, kept inside the shrinking bracket:
    a step that leaves it, or that does not halve the step before, bisects.
    A Newton step within the tolerance ends the search even when it leaves
    the bracket: x has just become one of its ends, so only rounding in p
    can point the step outward.  Every row steps at once and leaves the
    batch when its search ends.
    """
    x, step = lo - v_lo * (hi - lo) / (v_hi - v_lo), hi - lo
    lo_negative = v_lo < 0.0
    roots, pending = np.empty_like(x), np.arange(len(x))
    with np.errstate(all="ignore"):  # a zero slope gives an infinite step
        for _ in range(ROOT_MAX_ITER):
            slope = coeffs[:, -1]
            v = slope * x + coeffs[:, -2]
            for c in coeffs.T[-3::-1]:  # Horner for p and p' together
                slope = slope * x + v
                v = v * x + c
            moves_lo = (v < 0.0) == lo_negative
            lo, hi = np.where(moves_lo, x, lo), np.where(moves_lo, hi, x)
            newton = np.where(v == 0.0, x, x - v / slope)
            delta = np.abs(newton - x)
            close = delta <= ROOT_XTOL * (1.0 + np.abs(x))
            take = (lo < newton) & (newton < hi) & (delta < 0.5 * np.abs(step))
            step = np.where(take, newton - x, 0.5 * (hi - lo))
            x = np.where(take, newton, 0.5 * (lo + hi))
            finished = close | (np.abs(step) <= ROOT_XTOL * (1.0 + np.abs(x)))
            if finished.any():
                roots[pending[finished]] = np.where(close, newton, x)[finished]
                pending, coeffs, lo, hi, x, step, lo_negative = (
                    array[~finished] for array in (pending, coeffs, lo, hi, x, step, lo_negative))
                if not len(pending):
                    break
    roots[pending] = x
    return roots


def _sign_cuts(coeffs, a: float, b: float) -> np.ndarray:
    """Sorted points of (a, b) cutting it into pieces on which each row's polynomial keeps one sign.

    ``coeffs`` is (n, k), ascending; the result is (n, m), each row's cuts
    padded with b.  A row's trailing zero coefficients are dropped; degree 1
    and 2 are solved in closed form.  Above that, the cuts of the derivative
    split (a, b) into monotone pieces, and every piece whose ends differ in
    sign holds one root, all found by one ``_bracketed_roots``; the
    derivative's cuts are kept too, so a root that falls on one is not lost.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n, k = coeffs.shape
    degrees = ((coeffs != 0.0) * np.arange(k)).max(axis=1, initial=0)  # trailing zeros dropped
    candidates = []  # (rows, their candidate cuts, nan where none)
    with np.errstate(all="ignore"):  # no real root gives nan, one far away inf: both dropped
        for degree in np.bincount(degrees, minlength=k)[1:].nonzero()[0] + 1:
            rows = degrees == degree
            c = coeffs[:, : degree + 1] if rows.all() else coeffs[rows, : degree + 1]
            if degree == 1:
                found = -c[:, :1] / c[:, 1:]
            elif degree == 2:
                c0, c1, c2 = c.T
                disc = c1 * c1 - 4.0 * c2 * c0
                half = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))  # no cancellation
                found = np.stack([np.where(half == 0.0, 0.0, half / c2),
                                  np.where(half == 0.0, math.nan, c0 / half)], axis=1)
            else:
                inner = _sign_cuts(c[:, 1:] * np.arange(1, degree + 1), a, b)
                knots = np.hstack([np.full((len(c), 1), a), inner, np.full((len(c), 1), b)])
                values = np.polynomial.polynomial.polyval(knots, c.T[:, :, None], tensor=False)
                row, piece = (values[:, :-1] * values[:, 1:] < 0.0).nonzero()
                found = np.full((len(c), inner.shape[1] + 1), math.nan)
                found[row, piece] = _bracketed_roots(c[row], knots[row, piece], knots[row, piece + 1],
                                                     values[row, piece], values[row, piece + 1])
                found = np.hstack([inner, found])
            candidates.append((rows, found))
    roots = np.full((n, max((found.shape[1] for _, found in candidates), default=0)), math.nan)
    for rows, found in candidates:
        roots[rows, : found.shape[1]] = found
    inside = (a < roots) & (roots < b)
    cuts = np.sort(np.where(inside, roots, b), axis=1)
    return cuts[:, : inside.sum(axis=1).max(initial=0)]


def clamped_maximum(coeffs, a: float, b: float) -> float:
    """Maximum of max(p, CLAMP_FLOOR) over [a, b], a <= b: at an end or where p' changes sign."""
    coeffs = np.asarray(coeffs, dtype=float)
    points = np.concatenate([[a, b], _sign_cuts(coeffs[1:] * np.arange(1, len(coeffs)), a, b)[0]])
    return max(CLAMP_FLOOR, float(np.polynomial.polynomial.polyval(points, coeffs).max()))


class ClampedPolynomials:
    """Rates max(p_k(t), CLAMP_FLOOR) on [lo, hi], p_k's coefficients (n, d+1) ascending.

    Each row's knots are found once: a row whose Bernstein coefficients of
    p_k - floor on [lo, hi] share a sign keeps that sign there and has
    none; the others take theirs from one ``_sign_cuts`` call.  The
    antiderivative is evaluated at every knot once too, and each row keeps
    its integral from lo up to each knot, so an integral over [lo, b] costs
    one polynomial evaluation per row at b.
    """

    def __init__(self, coeffs, lo: float, hi: float):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.lo, self.hi = float(lo), float(hi)
        shifted = self.coeffs - CLAMP_FLOOR * (np.arange(self.coeffs.shape[1]) == 0)
        bernstein = shifted @ bernstein_matrix(shifted.shape[1], self.lo, self.hi).T
        mixed = (bernstein.min(axis=1) < 0.0) & (bernstein.max(axis=1) > 0.0)
        cuts = _sign_cuts(shifted[mixed], self.lo, self.hi)
        # lo, the sorted sign cuts of p - floor (hi where absent), hi.
        self._knots = np.full((len(shifted), cuts.shape[1] + 2), self.hi)
        self._knots[:, 0] = self.lo
        self._knots[mixed, 1:-1] = cuts
        self._scaled = self.coeffs / np.arange(1, self.coeffs.shape[1] + 1)  # antiderivative / t
        self._anti = self._knots * np.polynomial.polynomial.polyval(
            self._knots, self._scaled.T[:, :, None], tensor=False)
        # Between knots p - floor keeps one sign, so each piece takes the larger
        # of the antiderivative's increment and the floor times its length.
        pieces = np.maximum(np.diff(self._anti), CLAMP_FLOOR * np.diff(self._knots))
        self._cumulative = np.zeros_like(self._anti)  # integral from lo to each knot
        np.cumsum(pieces, axis=1, out=self._cumulative[:, 1:])
        self._row_starts = np.arange(0, self._knots.size, self._knots.shape[1])

    def integral(self, b: float) -> np.ndarray:
        """Integral of each clamped rate over [lo, b], lo <= b <= hi, shape (n,).

        The kept integral up to the last knot below b, plus the piece from
        that knot to b.  The pieces add left to right, as numpy's row sum of
        up to seven values does: for a cubic (at most six pieces) the result
        is, to the bit, the sum of the pieces with the knots clipped to b.
        """
        if not self.lo <= b <= self.hi:
            raise ValueError(f"end {b} is not within [{self.lo}, {self.hi}]")
        # Flat index of the knot that starts each row's piece holding b.
        start = self._row_starts + np.count_nonzero(self._knots[:, 1:-1] < b, axis=1)
        knot = self._knots.take(start)
        anti = b * np.polynomial.polynomial.polyval(b, self._scaled.T)
        return self._cumulative.take(start) + np.maximum(anti - self._anti.take(start),
                                                         CLAMP_FLOOR * (b - knot))


def bin_events(events: list[ConjunctionEvent], bin_width: float) -> BinnedCounts:
    """Count each event's arrivals in uniform bins over the shared window, one row per event.

    A final partial bin is kept with its true width.  The last bin is
    right-inclusive so an arrival exactly at the window end is counted.
    """
    if not events:
        raise ValueError("at least one event required")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    window = events[0].window_days
    if any(abs(e.window_days - window) > 1e-9 for e in events):
        raise ValueError("all events must share the same window_days")

    edges = list(np.arange(0.0, window, bin_width))
    if window - edges[-1] > 1e-12 * max(1.0, window):
        edges.append(window)
    else:
        edges[-1] = window
    n_bins = len(edges) - 1

    arrivals = np.fromiter((t for e in events for t in e.arrivals), dtype=float)
    rows = np.repeat(np.arange(len(events)), [len(e.arrivals) for e in events])
    bins = np.clip(np.searchsorted(edges, arrivals, side="right") - 1, 0, n_bins - 1)
    counts = np.bincount(rows * n_bins + bins, minlength=len(events) * n_bins)
    return BinnedCounts(bin_edges=tuple(edges), counts=counts.reshape(len(events), n_bins))


def fit_ridge(binned: BinnedCounts, config: RidgeConfig) -> np.ndarray:
    """Ridge-fit polynomial coefficients to each row of counts: (..., n_bins) -> (..., degree + 1).

    Row y minimizes sum_i [y_i - lambda(t_i) dt_i]^2 + alpha * sum_j beta_j^2.
    Every row shares the bins, so all rows share one Gram matrix: one
    solve answers the normal equations of every training event at once,
    and a Gram matrix whose condition number exceeds 1/eps is rejected:
    its solution would be set by rounding, though a backward-stable solve
    still leaves a small residual.  The matrix depends only on the bins,
    the degree and alpha, never on the counts.  A residual check rejects
    a solve that failed anyway.
    """
    mids = binned.midpoints
    widths = binned.widths
    n_bins = len(mids)
    if config.alpha == 0 and n_bins < config.degree + 1:
        raise ValueError("need at least degree+1 bins when alpha is 0")

    y = np.asarray(binned.counts, dtype=float)
    powers = np.vander(mids, config.degree + 1, increasing=True)
    design = powers * widths[:, None]

    gram = design.T @ design + config.alpha * np.eye(config.degree + 1)
    condition = np.linalg.cond(gram)
    if condition > 1.0 / np.finfo(float).eps:
        raise np.linalg.LinAlgError(f"ill-conditioned ridge system: condition number "
                                    f"{condition:.1e} (degree {config.degree}, alpha {config.alpha})")
    rhs = y.reshape(-1, n_bins) @ design
    try:
        beta = np.linalg.solve(gram, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular ridge system: {exc}") from exc

    residual = np.linalg.norm(beta @ gram - rhs, axis=1)
    if np.any(residual > 1e-8 * np.maximum(1.0, np.linalg.norm(rhs, axis=1))):
        raise np.linalg.LinAlgError("normal-equation solve failed to converge")
    return beta.reshape(y.shape[:-1] + (config.degree + 1,))


def prior_from_fit(per_event_coefficients) -> GaussianPrior:
    """Pool per-event coefficient fits, shape (n_events, n_coeffs), into Normal priors.

    mu is the sample mean; sigma the unbiased sample standard deviation,
    floored at SIGMA_FLOOR (a single event gives the floor everywhere).
    """
    mat = np.asarray(per_event_coefficients, dtype=float)
    if mat.ndim != 2 or len(mat) == 0:
        raise ValueError("need one or more coefficient vectors of the same length")
    mu = mat.mean(axis=0)
    if mat.shape[0] > 1:
        sigma = np.maximum(mat.std(axis=0, ddof=1), SIGMA_FLOOR)
    else:
        sigma = np.full(mat.shape[1], SIGMA_FLOOR)
    return GaussianPrior(mu=tuple(map(float, mu)), sigma=tuple(map(float, sigma)))
