"""Polynomial intensity family, its exact integral, event binning, and ridge fits.

The intensity lambda(t) = beta_0 + beta_1 t + ... + beta_m t^m is clamped
below at a small positive floor so that rates and log-likelihoods stay
finite.  Integrals of the clamped rate are exact: the sign changes of
p - floor split an interval into pieces on which the rate is either the
polynomial or the floor.  They come from one bracketed root finding
(``_sign_cuts``), skipped where the Bernstein coefficients share a sign.
``ClampedPolynomials`` integrates many polynomials at once (posterior
draws); ``clamped_integral`` and ``clamped_maximum`` take one polynomial
in plain floats.

Training events share one bin grid, so ``bin_events`` counts them as rows
of one array and ``fit_ridge`` fits every row with one Cholesky
factorization of their shared Gram matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ingest import ConjunctionEvent
from .priors import GaussianPrior

DEFAULT_CLAMP_FLOOR = 1e-6
ROOT_MAX_ITER = 100  # bisection alone would narrow a 7-day bracket past 1e-28 days
# A root found to this (relative) step moves an integral by about
# |p'| (1e-9 |r|)^2 / 2: below rounding.
ROOT_XTOL = 1e-9


@dataclass(frozen=True)
class PolynomialIntensity:
    """Clamped polynomial rate, coefficients in ascending power order."""

    coefficients: tuple[float, ...]
    clamp_floor: float = DEFAULT_CLAMP_FLOOR

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("at least one coefficient required")
        if self.clamp_floor <= 0:
            raise ValueError("clamp_floor must be positive")

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
    """Clamped intensity evaluated on an array of times (Horner ordering)."""
    raw = np.polynomial.polynomial.polyval(t, model.coefficients)
    return np.maximum(raw, model.clamp_floor)


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


def _horner(coeffs: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _bracketed_root(coeffs, lo: float, hi: float, v_lo: float, v_hi: float) -> float:
    """The root of a polynomial that is monotone on [lo, hi] and changes sign there.

    Newton's method from the secant point, kept inside the shrinking bracket:
    a step that leaves it, or that does not halve the step before, bisects.
    A Newton step within the tolerance ends the search even when it leaves
    the bracket: x has just become one of its ends, so only rounding in p
    can point the step outward.
    """
    x, step = lo - v_lo * (hi - lo) / (v_hi - v_lo), hi - lo
    for _ in range(ROOT_MAX_ITER):
        v = slope = 0.0
        for c in reversed(coeffs):  # Horner for p and p' together
            slope = slope * x + v
            v = v * x + c
        if v == 0.0:
            return x
        if (v < 0.0) == (v_lo < 0.0):
            lo = x
        else:
            hi = x
        newton = x - v / slope if slope else math.inf
        if abs(newton - x) <= ROOT_XTOL * (1.0 + abs(x)):
            return newton
        if lo < newton < hi and abs(newton - x) < 0.5 * abs(step):
            step, x = newton - x, newton
        else:
            step, x = 0.5 * (hi - lo), 0.5 * (lo + hi)
        if abs(step) <= ROOT_XTOL * (1.0 + abs(x)):
            return x
    return x


def _sign_cuts(coeffs: list[float], a: float, b: float) -> list[float]:
    """Sorted points of (a, b) cutting it into pieces on which the polynomial keeps one sign.

    Degree 1 and 2 in closed form.  Above that, the cuts of the derivative
    split (a, b) into monotone pieces, and each piece whose ends differ in
    sign holds one root, found by ``_bracketed_root``; the derivative's cuts
    are kept too, so a root that falls on one is not lost.
    """
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    if len(coeffs) == 2:
        roots = [-coeffs[0] / coeffs[1]]
    elif len(coeffs) == 3:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            return []
        half = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))  # no cancellation
        roots = [half / c2, c0 / half] if half else [0.0]
    elif len(coeffs) > 3:
        slopes = [j * c for j, c in enumerate(coeffs)][1:]
        knots = [a, *_sign_cuts(slopes, a, b), b]
        values = [_horner(coeffs, t) for t in knots]
        roots = knots[1:-1]
        for i in range(len(knots) - 1):
            if values[i] * values[i + 1] < 0.0:
                roots.append(_bracketed_root(coeffs, knots[i], knots[i + 1], values[i], values[i + 1]))
    else:
        return []
    return sorted(r for r in roots if a < r < b)


def clamped_integral(coeffs, floor: float, a: float, b: float) -> float:
    """Integral of max(p, floor) over [a, b] for one polynomial, ascending coefficients.

    ``ClampedPolynomials.integral`` for a single row, in plain floats with
    the same ``_sign_cuts``: for callers that integrate one polynomial at
    a time (the sampler's log-density), where array overhead would cost
    several times the rest of the call.
    """
    if a > b:
        raise ValueError("interval start must not exceed its end")
    coeffs = np.asarray(coeffs, dtype=float).tolist()
    knots = [a, *_sign_cuts([coeffs[0] - floor, *coeffs[1:]], a, b), b]
    scaled = [c / (j + 1) for j, c in enumerate(coeffs)]  # antiderivative / t
    anti = [t * _horner(scaled, t) for t in knots]
    return sum(max(anti[i + 1] - anti[i], floor * (knots[i + 1] - knots[i]))
               for i in range(len(knots) - 1))


def clamped_maximum(coeffs, floor: float, a: float, b: float) -> float:
    """Maximum of max(p, floor) over [a, b], a <= b: at an end or where p' changes sign."""
    coeffs = np.asarray(coeffs, dtype=float).tolist()
    slopes = [j * c for j, c in enumerate(coeffs)][1:]
    return max(floor, *(_horner(coeffs, t) for t in (a, b, *_sign_cuts(slopes, a, b))))


class ClampedPolynomials:
    """Rates max(p_k(t), floor) on [lo, hi] for polynomials p_k, coefficients (n, d+1) ascending.

    Each row's knots are found once: a row whose Bernstein coefficients of
    p_k - floor on [lo, hi] share a sign keeps that sign there and has
    none; the others take theirs from ``_sign_cuts``.  Integrals over any
    [a, b] inside the span are then exact and batched over rows.
    """

    def __init__(self, coeffs, floor: float, lo: float, hi: float):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.floor = float(floor)
        self.lo, self.hi = float(lo), float(hi)
        shifted = self.coeffs - self.floor * (np.arange(self.coeffs.shape[1]) == 0)
        bernstein = shifted @ bernstein_matrix(shifted.shape[1], self.lo, self.hi).T
        mixed = ((bernstein.min(axis=1) < 0.0) & (bernstein.max(axis=1) > 0.0)).nonzero()[0]
        cuts = [_sign_cuts(row, self.lo, self.hi) for row in shifted[mixed].tolist()]
        # lo, the sorted sign cuts of p - floor (hi where absent), hi.
        self._knots = np.full((len(shifted), max(map(len, cuts), default=0) + 2), self.hi)
        self._knots[:, 0] = self.lo
        for row, row_cuts in zip(mixed, cuts):
            self._knots[row, 1 : len(row_cuts) + 1] = row_cuts
        self._scaled = self.coeffs / np.arange(1, self.coeffs.shape[1] + 1)  # antiderivative / t

    def integral(self, a: float, b: float) -> np.ndarray:
        """Integral of each clamped rate over [a, b], lo <= a <= b <= hi, shape (n,).

        Between knots p - floor keeps one sign, so each piece takes the larger
        of the antiderivative's increment and the floor times its length.
        """
        if not self.lo <= a <= b <= self.hi:
            raise ValueError(f"interval [{a}, {b}] is not ordered within [{self.lo}, {self.hi}]")
        points = np.minimum(np.maximum(self._knots, a), b)  # a <= k_1 <= ... <= b
        anti = points * np.polynomial.polynomial.polyval(points, self._scaled.T[:, :, None],
                                                         tensor=False)
        return np.maximum(np.diff(anti), self.floor * np.diff(points)).sum(axis=1)


def cumulative_intensity(model: PolynomialIntensity, a: float, b: float) -> float:
    """Expected arrival count on [a, b]: exact integral of the clamped rate."""
    return clamped_integral(model.coefficients, model.clamp_floor, a, b)


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
    Cholesky factorization solves the normal equations of every training
    event at once.
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
    rhs = y.reshape(-1, n_bins) @ design
    try:
        cho = scipy.linalg.cho_factor(gram)
        beta = scipy.linalg.cho_solve(cho, rhs.T).T
    except scipy.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular ridge system: {exc}") from exc

    residual = np.linalg.norm(beta @ gram - rhs, axis=1)
    if np.any(residual > 1e-8 * np.maximum(1.0, np.linalg.norm(rhs, axis=1))):
        raise np.linalg.LinAlgError("normal-equation solve failed to converge")
    return beta.reshape(y.shape[:-1] + (config.degree + 1,))


def prior_from_fit(per_event_coefficients, sigma_floor: float = 1e-3) -> GaussianPrior:
    """Pool per-event coefficient fits, shape (n_events, n_coeffs), into Normal priors.

    mu is the sample mean; sigma the unbiased sample standard deviation,
    floored at sigma_floor (a single event gives the floor everywhere).
    """
    if sigma_floor <= 0:
        raise ValueError("sigma_floor must be positive")
    mat = np.asarray(per_event_coefficients, dtype=float)
    if mat.ndim != 2 or len(mat) == 0:
        raise ValueError("need one or more coefficient vectors of the same length")
    mu = mat.mean(axis=0)
    if mat.shape[0] > 1:
        sigma = np.maximum(mat.std(axis=0, ddof=1), sigma_floor)
    else:
        sigma = np.full(mat.shape[1], sigma_floor)
    return GaussianPrior(mu=tuple(map(float, mu)), sigma=tuple(map(float, sigma)))
