"""End-to-end next-CDM prediction and the two gap-based baselines."""
from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace

from .errors import CadenceError, InsufficientHistoryError
from .inference import PosteriorSamples, SamplerConfig, make_log_posterior, sample_posterior
from .ingest import ConjunctionEvent, split_at_time
from .point_process import ArrivalPrediction, mixture_next_arrival
from .priors import GaussianPrior

logger = logging.getLogger(__name__)

RHAT_THRESHOLD = 1.05

NHPP = "nhpp"
NAIVE = "naive"
MEAN = "mean"
MODEL_ORDER = (NHPP, NAIVE, MEAN)


@dataclass(frozen=True)
class PredictionRun:
    """One model's prediction for one event at one cutoff.

    ``point_estimate`` is in window coordinates; for the NHPP model the
    full ArrivalPrediction (interval, censoring) rides along.
    """

    event_id: str
    model: str
    cutoff: float
    window_days: float
    point_estimate: float | None = None
    prediction: ArrivalPrediction | None = None
    actual_next: float | None = None
    note: str | None = None


def posterior_for_event(
    event_id: str,
    prior: GaussianPrior,
    history: list[float],
    t_c: float,
    sampler: SamplerConfig,
) -> PosteriorSamples:
    """Sample the coefficient posterior given the history observed on [0, t_c].

    The sampler seed is drawn from the configured seed, the event id and the
    cutoff, so a posterior depends on neither the order of the events nor
    which others share the input, and no two posteriors share their noise.
    Samples whose split R-hat exceeds the gate threshold trigger a warning.
    """
    key = json.dumps([sampler.seed, event_id, t_c]).encode()
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
    density = make_log_posterior(prior, history, t_c)
    samples = sample_posterior(density, prior.mu, prior.sigma, replace(sampler, seed=seed))
    worst = max(samples.r_hat)
    if worst > RHAT_THRESHOLD:
        logger.warning("event %s: split R-hat %.3f exceeds %s; using samples anyway",
                       event_id, worst, RHAT_THRESHOLD)
    return samples


def runs_at_cutoff(
    event: ConjunctionEvent,
    prior: GaussianPrior,
    t_c: float,
    sampler: SamplerConfig,
) -> tuple[list[PredictionRun], PosteriorSamples | None]:
    """The NHPP, naive and mean runs for one event at window time ``t_c``.

    Arrivals at or before ``t_c`` form the history; the first one after it
    is the actual.  The NHPP model predicts over the horizon to the TCA.
    Returns the runs in MODEL_ORDER and the posterior samples behind the
    NHPP prediction.  When that prediction fails, all three runs carry the
    error and the samples are None; a baseline short of history carries
    its own error.
    """
    def run(model, **values):
        return PredictionRun(event_id=event.event_id, model=model, cutoff=t_c,
                             window_days=event.window_days, **values)

    try:
        history, future = split_at_time(event, t_c)
        samples = posterior_for_event(event.event_id, prior, history, t_c, sampler)
        prediction = mixture_next_arrival(samples.flat_draws(), t_c, event.window_days - t_c)
    except (CadenceError, ValueError) as exc:
        return [run(m, note=str(exc)) for m in MODEL_ORDER], None
    actual = future[0] if future else None
    runs = [run(NHPP, point_estimate=prediction.point_estimate, prediction=prediction,
                actual_next=actual)]
    for name, baseline in ((NAIVE, naive_baseline), (MEAN, mean_baseline)):
        try:
            runs.append(run(name, point_estimate=baseline(history), actual_next=actual))
        except InsufficientHistoryError as exc:
            runs.append(run(name, actual_next=actual, note=str(exc)))
    return runs, samples


def naive_baseline(history: list[float]) -> float:
    """Repeat the previous inter-arrival gap: last arrival plus last gap."""
    if len(history) < 2:
        raise InsufficientHistoryError("naive baseline needs at least 2 arrivals")
    return history[-1] + (history[-1] - history[-2])


def mean_baseline(history: list[float]) -> float:
    """Extrapolate by the mean of all previous inter-arrival gaps."""
    if len(history) < 2:
        raise InsufficientHistoryError("mean baseline needs at least 2 arrivals")
    mean_gap = (history[-1] - history[0]) / (len(history) - 1)
    return history[-1] + mean_gap


def predict_event_sequence(
    event: ConjunctionEvent,
    prior: GaussianPrior,
    sampler: SamplerConfig,
) -> list[PredictionRun]:
    """Sequentially predict each arrival from the ones before it.

    After the i-th arrival (i >= 1) the cutoff is that arrival's time and
    the first i arrivals form the history; baselines join once two
    arrivals are in hand.  The realized next arrival is attached for
    evaluation.
    """
    arrivals = event.arrivals
    if len(arrivals) < 2:
        raise InsufficientHistoryError("sequence prediction needs at least 2 arrivals")
    runs: list[PredictionRun] = []
    for t_c in arrivals[:-1]:
        runs += runs_at_cutoff(event, prior, t_c, sampler)[0]
    return runs
