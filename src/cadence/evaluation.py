"""MAE/RMSE metrics, interval coverage, and the paired scorer of prediction runs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prediction import MEAN, MODEL_ORDER, NAIVE, NHPP, PredictionRun


@dataclass(frozen=True)
class MetricsReport:
    """Per-model accuracy summary over the scored prediction set."""

    model: str
    n: int
    mae: float
    rmse: float
    coverage95: float | None = None
    censored_count: int = 0
    skipped_count: int = 0


def mae(actuals: list[float], predictions: list[float]) -> float:
    """Mean absolute error, in the units of the inputs."""
    y, y_hat = _paired(actuals, predictions)
    return float(np.mean(np.abs(y - y_hat)))


def rmse(actuals: list[float], predictions: list[float]) -> float:
    """Root mean squared error, in the units of the inputs."""
    y, y_hat = _paired(actuals, predictions)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def _paired(actuals, predictions) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(actuals, dtype=float)
    y_hat = np.asarray(predictions, dtype=float)
    if y.shape != y_hat.shape or y.size == 0:
        raise ValueError("actuals and predictions must be equal-length and non-empty")
    return y, y_hat


def interval_coverage(runs: list[PredictionRun]) -> float:
    """Fraction of scorable runs whose actual falls inside the 95% interval.

    An absent upper bound means the 0.025 survival quantile lies beyond
    the horizon; any realized arrival is necessarily before the horizon,
    so the upper check passes.  An absent lower bound means the 0.975
    quantile is beyond the horizon, so the actual precedes the interval
    and the run is not covered.
    """
    scorable = [
        r for r in runs
        if r.prediction is not None
        and not r.prediction.censored
        and r.actual_next is not None
    ]
    if not scorable:
        raise ValueError("no scorable (non-censored, with actual) runs")
    hits = 0
    for r in scorable:
        p = r.prediction
        if p.lower_95 is None or r.actual_next < p.lower_95:
            continue
        if p.upper_95 is None or r.actual_next <= p.upper_95:
            hits += 1
    return hits / len(scorable)


def score_runs(runs: list[PredictionRun]) -> list[MetricsReport]:
    """Score all three models on one paired set of (event, cutoff) groups.

    A group is scored when all three models have a point estimate, the
    actual next arrival is known and the NHPP prediction is not censored.
    A group with an errored or missing run is skipped; otherwise a
    censored NHPP prediction or an unknown actual counts as censored.
    Every model reports the same counts.  Reports come back in
    nhpp/naive/mean order.
    """
    groups: dict[tuple[str, float], dict[str, PredictionRun]] = {}
    for run in runs:
        groups.setdefault((run.event_id, run.cutoff), {})[run.model] = run
    scored: list[dict[str, PredictionRun]] = []
    censored = skipped = 0
    for group in groups.values():
        if any(m not in group or group[m].note is not None for m in MODEL_ORDER) \
                or None in (group[NAIVE].point_estimate, group[MEAN].point_estimate):
            skipped += 1
        elif group[NHPP].point_estimate is None or group[NHPP].actual_next is None:
            censored += 1
        else:
            scored.append(group)
    if not scored:
        raise ValueError("zero scorable (event, cutoff) groups")

    actuals = [g[NHPP].actual_next for g in scored]
    coverage = interval_coverage([g[NHPP] for g in scored])
    reports = []
    for model in MODEL_ORDER:
        points = [g[model].point_estimate for g in scored]
        reports.append(
            MetricsReport(
                model=model,
                n=len(scored),
                mae=mae(actuals, points),
                rmse=rmse(actuals, points),
                coverage95=coverage if model == NHPP else None,
                censored_count=censored,
                skipped_count=skipped,
            )
        )
    return reports
