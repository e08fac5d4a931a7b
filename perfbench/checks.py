"""Correctness checks on the program's outputs, computed apart from it.

Every check compares an output file of ``cadence`` with the benchmark's own
inputs and the reference numerics in ``refmath.py``.  A check returns a list
of problems (empty when it passes); ``run.py`` fails the run on any problem.
Times in the JSONL records are days to TCA; the window coordinate of a
value d is ``window - d``.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom, norm

from refmath import ClampedPolynomials, cubic_derivative_bounds, ridge_prior

# The program's bisection stops once its bracket is at most this wide and
# returns the midpoint, so a reported quantile time lies within half of it
# of the crossing of the program's survival curve.
BISECTION_BRACKET_DAYS = 1e-6
# The program integrates each draw's rate by a trapezoid rule on this many
# intervals over the horizon and interpolates linearly between grid nodes.
# The allowance below bounds that error; an exact integral only makes the
# allowance larger than needed.
GRID_INTERVALS = 4096
# One-sided tail probability of each statistical check on correct code.
ALPHA = 1e-4
Z_ALPHA = float(norm.isf(ALPHA))
RIDGE_RTOL = 1e-8
NHPP, NAIVE, MEAN = "nhpp", "naive", "mean"
MODELS = (NHPP, NAIVE, MEAN)


def window_time(window: float, days_to_tca):
    return None if days_to_tca is None else window - days_to_tca


def close(a, b, tol=1e-9) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def same(a, b) -> bool:
    """Both absent, or equal to within rounding."""
    return (a is None and b is None) or close(a, b)


def baseline_values(history: np.ndarray) -> dict[str, float | None]:
    """Naive (last gap repeated) and mean-gap predictions, window coordinates."""
    if len(history) < 2:
        return {NAIVE: None, MEAN: None}
    last = history[-1]
    return {
        NAIVE: last + (last - history[-2]),
        MEAN: last + (last - history[0]) / (len(history) - 1),
    }


# -- survival levels (cutoff-dense) -----------------------------------------

def survival_level_problems(record: dict, draws: np.ndarray, t_c: float, window: float,
                            floor: float) -> list[str]:
    """The dumped draws give survival 0.975 / 0.5 / 0.025 at the reported times.

    S(u) = mean_k exp(-L_k(t_c, u)) with L_k the exact clamped integral.
    A reported time t is accepted when |S(t) - level| <= tol(t) with
      tol(t) = BISECTION_BRACKET_DAYS * f(t) + E,
    f = -dS/du the mixture density (the bisection error in days times the
    slope, with a factor 2 margin over the half-bracket) and E the bound
    on the program's quadrature error, max_k h^2 (H max|p_k''| / 12 +
    max|p_k'| / 2), h = H / GRID_INTERVALS: Euler-Maclaurin for the smooth
    parts, h^2 |p'| / 8 per clamp kink (at most three) and h^2 |p'| / 8 for
    linear interpolation between nodes.
    """
    eid = record["event_id"]
    rates = ClampedPolynomials(draws, floor)
    horizon = window - t_c
    d1, d2 = cubic_derivative_bounds(draws, t_c, window)
    h = horizon / GRID_INTERVALS
    quad_err = float(np.max(h * h * (horizon * d2 / 12.0 + d1 / 2.0)))

    def survival(t):
        return float(np.exp(-rates.integral(t_c, t)).mean())

    def density(t):
        return float((rates.rate(t) * np.exp(-rates.integral(t_c, t))).mean())

    problems = []
    s_end = survival(window)
    lower, median, upper = (window_time(window, record[k]) for k in
                            ("upper95", "predicted_days_to_tca", "lower95"))
    for label, level, t in (("lower95", 0.975, lower), ("median", 0.5, median),
                            ("upper95", 0.025, upper)):
        if t is None:
            if label == "median" and not record["censored"]:
                problems.append(f"{eid}: median missing on an uncensored record")
            elif s_end < level - quad_err:
                problems.append(f"{eid}: {label} open but survival at TCA {s_end:.6g} < {level}")
            continue
        if not t_c < t <= window:
            problems.append(f"{eid}: {label} {t} outside (cutoff, TCA]")
            continue
        tol = BISECTION_BRACKET_DAYS * density(t) + quad_err + 1e-12
        got = survival(t)
        if abs(got - level) > tol:
            problems.append(f"{eid}: survival {got:.9f} at {label}, expected {level} +- {tol:.2g}")
    if abs(s_end - 0.5) > quad_err and record["censored"] != (s_end > 0.5):
        problems.append(f"{eid}: censored={record['censored']} but survival at TCA is {s_end:.6f}")
    return problems


# -- scoring ----------------------------------------------------------------

def own_scores(errors: dict[str, list[float]]) -> dict[str, dict]:
    """MAE, RMSE and N per model from prediction errors (days)."""
    out = {}
    for model, values in errors.items():
        n = len(values)
        out[model] = {
            "n": n,
            "mae": math.fsum(abs(e) for e in values) / n if n else float("nan"),
            "rmse": math.sqrt(math.fsum(e * e for e in values) / n) if n else float("nan"),
        }
    return out


def report_problems(scores: dict[str, dict], report: list[dict]) -> list[str]:
    """Our MAE, RMSE and N per model equal those of ``cadence evaluate``."""
    problems = []
    by_model = {row["model"]: row for row in report}
    for model, mine in scores.items():
        theirs = by_model.get(model)
        if theirs is None:
            problems.append(f"evaluate report lacks model {model}")
            continue
        if theirs["n"] != mine["n"]:
            problems.append(f"{model}: evaluate N {theirs['n']} != {mine['n']}")
        for key in ("mae", "rmse"):
            if not close(theirs[key], mine[key], 1e-12):
                problems.append(f"{model}: evaluate {key} {theirs[key]!r} != {mine[key]!r}")
    return problems


def coverage_band(n: int, level: float = 0.95) -> tuple[int, int]:
    """Covered counts outside [lo, hi] have probability < ALPHA on each side."""
    lo = int(binom.ppf(ALPHA, n, level))
    hi = int(binom.isf(ALPHA, n, level))
    return lo, min(max(hi, lo), n)


def mae_not_worse(nhpp_errors: list[float], naive_errors: list[float]) -> tuple[bool, str]:
    """Paired one-sided test that the NHPP MAE does not exceed the naive MAE.

    Fails when the mean of |e_nhpp| - |e_naive| exceeds Z_ALPHA standard
    errors, which correct code does with probability below ALPHA.
    """
    d = np.abs(nhpp_errors) - np.abs(naive_errors)
    n = len(d)
    if n < 2:
        return False, f"only {n} paired predictions"
    se = float(d.std(ddof=1)) / math.sqrt(n)
    margin = float(d.mean())
    return margin <= Z_ALPHA * se, f"mean |e_nhpp|-|e_naive| {margin:.4f} d, limit {Z_ALPHA * se:.4f} d, n={n}"


# -- sequence records ---------------------------------------------------------

def sequence_problems(eid: str, arrivals: np.ndarray, records: list[dict], window: float
                      ) -> tuple[list[str], list[dict]]:
    """One NHPP record per cutoff, ordered bounds, exact baselines and actuals.

    Returns the problems and, per cutoff, the values scoring needs.
    """
    problems, scored = [], []
    by_model = {m: [r for r in records if r["model"] == m] for m in MODELS}
    cutoffs = arrivals[:-1]
    if len(by_model[NHPP]) != len(cutoffs):
        return [f"{eid}: {len(by_model[NHPP])} NHPP records for {len(cutoffs)} cutoffs"], []
    for model in (NAIVE, MEAN):
        if len(by_model[model]) != len(cutoffs):
            problems.append(f"{eid}: {len(by_model[model])} {model} records for {len(cutoffs)} cutoffs")
    for i, t_c in enumerate(cutoffs):
        nhpp = by_model[NHPP][i]
        actual = arrivals[i + 1]
        if not close(window_time(window, nhpp["cutoff_days_to_tca"]), t_c):
            problems.append(f"{eid}: record {i} cutoff {nhpp['cutoff_days_to_tca']} is not arrival {i}")
            continue
        if not close(window_time(window, nhpp["actual_days_to_tca"]), actual):
            problems.append(f"{eid}: record {i} actual is not the next input arrival")
        expected = baseline_values(arrivals[: i + 1])
        for model in (NAIVE, MEAN):
            if i >= len(by_model[model]):
                continue
            row = by_model[model][i]
            got = window_time(window, row["predicted_days_to_tca"])
            if expected[model] is None:
                if got is not None:
                    problems.append(f"{eid}: {model} value with one arrival of history")
            elif not close(got, expected[model]):
                problems.append(f"{eid}: {model} {got} != gap formula {expected[model]}")
        if "error" in nhpp:
            continue
        lower, median, upper = (window_time(window, nhpp[k]) for k in
                                ("upper95", "predicted_days_to_tca", "lower95"))
        problems += order_problems(f"{eid} cutoff {i}", t_c, lower, median, upper, nhpp["censored"], window)
        scored.append({"actual": actual, "lower": lower, "median": median, "upper": upper,
                       "censored": nhpp["censored"], "naive": expected[NAIVE], "mean": expected[MEAN]})
    return problems, scored


def order_problems(where: str, t_c: float, lower, median, upper, censored: bool, window: float
                   ) -> list[str]:
    """cutoff < lower <= median <= upper <= TCA, with open bounds as documented.

    An open (None) bound lies past the TCA: an open lower bound forces the
    median and upper bound open, and an open median means censored.
    """
    problems = []
    if (median is None) != bool(censored):
        problems.append(f"{where}: censored={censored} with median {median}")
    if lower is None and (median is not None or upper is not None):
        problems.append(f"{where}: open lower bound with a closed median or upper bound")
    if median is None and upper is not None:
        problems.append(f"{where}: open median with a closed upper bound")
    closed = [v for v in (lower, median, upper) if v is not None]
    if closed and not (t_c < closed[0] and closed[-1] <= window
                       and all(a <= b for a, b in zip(closed, closed[1:]))):
        problems.append(f"{where}: not cutoff < lower <= median <= upper <= TCA: {t_c}, {closed}")
    return problems


def covered(actual: float, lower, upper) -> bool:
    """Inside the 95% interval; an open upper bound lies past the TCA."""
    return lower is not None and actual >= lower and (upper is None or actual <= upper)


# -- train-bulk ---------------------------------------------------------------

def count_law_problems(counts: np.ndarray, expected: float) -> tuple[list[str], str]:
    """Counts per event are Poisson(expected): mean and dispersion z-tests."""
    n = len(counts)
    z_mean = (counts.mean() - expected) / math.sqrt(expected / n)
    dispersion = counts.var(ddof=1) / expected
    z_disp = (dispersion - 1.0) / math.sqrt(2.0 / (n - 1) + 1.0 / (n * expected))
    problems = []
    limit = 4.5  # two-sided tail below 1e-5 per statistic
    if abs(z_mean) > limit:
        problems.append(f"simulated mean count {counts.mean():.4f} vs exact {expected:.4f} (z={z_mean:.2f})")
    if abs(z_disp) > limit:
        problems.append(f"simulated dispersion {dispersion:.4f} (z={z_disp:.2f})")
    return problems, (f"count law: mean {counts.mean():.4f} vs exact integral {expected:.4f} "
                      f"(z={z_mean:+.2f}), dispersion {dispersion:.4f} (z={z_disp:+.2f}), n={n}")


def prior_problems(prior: dict, arrival_lists: list[np.ndarray], window: float, bin_width: float,
                   alpha: float, sigma_floor: float) -> tuple[list[str], str]:
    """fit-prior's mu and sigma equal the independent binning + lstsq ridge.

    Each coefficient must agree within RIDGE_RTOL of its own prior scale
    (|mu| + sigma): the program solves normal equations by Cholesky and
    the reference solves the augmented least-squares problem.
    """
    degree = int(prior["degree"])
    mu, sigma = ridge_prior(arrival_lists, window, bin_width, degree, alpha, sigma_floor)
    got_mu, got_sigma = np.asarray(prior["mu"]), np.asarray(prior["sigma"])
    scale = np.abs(mu) + sigma
    err = max(float(np.max(np.abs(got_mu - mu) / scale)), float(np.max(np.abs(got_sigma - sigma) / scale)))
    problems = [] if err <= RIDGE_RTOL else [f"prior differs from the reference by {err:.3g} (> {RIDGE_RTOL})"]
    return problems, f"prior vs reference ridge: max relative difference {err:.2e} over {len(arrival_lists)} events"
