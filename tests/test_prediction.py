"""Baselines and the end-to-end NHPP prediction pipeline."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest

from cadence.errors import InsufficientHistoryError
from cadence.inference import SamplerConfig
from cadence.ingest import ConjunctionEvent
from cadence.intensity import PolynomialIntensity
from cadence.point_process import ObservationWindow, simulate_thinning
from cadence.prediction import (
    mean_baseline,
    naive_baseline,
    predict_event_sequence,
    runs_at_cutoff,
)
from cadence.priors import GaussianPrior

TCA = datetime(2030, 6, 1, tzinfo=timezone.utc)
SMALL_SAMPLER = SamplerConfig(chains=2, draws=300, seed=0)


def make_event(arrivals, window=7.0, event_id="E1"):
    return ConjunctionEvent(event_id, TCA, window, tuple(arrivals))


def nhpp_at_cutoff(event, prior, cutoff=2.5):
    """The NHPP run at ``cutoff`` days before the TCA."""
    runs, _ = runs_at_cutoff(event, prior, event.window_days - cutoff, SMALL_SAMPLER)
    return runs[0]


class TestNaiveBaseline:
    def test_repeats_last_gap(self):
        assert naive_baseline([1.0, 1.4]) == pytest.approx(1.8)

    def test_uses_only_last_gap(self):
        assert naive_baseline([0.0, 0.5, 0.6]) == pytest.approx(0.7)

    def test_single_arrival_errors(self):
        with pytest.raises(InsufficientHistoryError):
            naive_baseline([3.0])


class TestMeanBaseline:
    def test_mean_of_gaps(self):
        assert mean_baseline([0.0, 0.2, 0.6, 1.2]) == pytest.approx(1.6)

    def test_equal_gaps_coincide_with_naive(self):
        history = [1.0, 1.5, 2.0, 2.5]
        assert mean_baseline(history) == pytest.approx(naive_baseline(history))

    def test_single_arrival_errors(self):
        with pytest.raises(InsufficientHistoryError):
            mean_baseline([3.0])


class TestBaselineProperties:
    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            history = np.sort(rng.uniform(0, 5, size=rng.integers(2, 8))).tolist()
            shift = float(rng.uniform(-3, 3))
            shifted = [t + shift for t in history]
            assert naive_baseline(shifted) == pytest.approx(naive_baseline(history) + shift)
            assert mean_baseline(shifted) == pytest.approx(mean_baseline(history) + shift)


class TestPredictNextCdm:
    """Next-CDM prediction at the fixed 2.5-day cutoff, via runs_at_cutoff."""

    def test_constant_rate_median(self):
        # Near-degenerate posterior at lambda = 2: the waiting-time median
        # is ln(2) / 2 past the cutoff.
        truth = PolynomialIntensity((2.0, 0.0, 0.0, 0.0))
        arrivals = simulate_thinning(truth, ObservationWindow(0.0, 7.0), 21)
        event = make_event(arrivals)
        prior = GaussianPrior(
            mu=(2.0, 0.0, 0.0, 0.0), sigma=(1e-4, 1e-4, 1e-4, 1e-4)
        )
        prediction = nhpp_at_cutoff(event, prior).prediction
        t_c = 4.5
        assert not prediction.censored
        assert prediction.point_estimate == pytest.approx(t_c + math.log(2) / 2, abs=0.05)

    def test_no_history_errors(self):
        event = make_event([5.0, 6.0])  # both after the 4.5-day cutoff
        prior = GaussianPrior((1.0,), (0.5,))
        runs, samples = runs_at_cutoff(event, prior, 4.5, SMALL_SAMPLER)
        assert samples is None
        assert [r.model for r in runs] == ["nhpp", "naive", "mean"]
        assert all("no arrivals at or before the cutoff" in r.note for r in runs)

    def test_negative_rate_prior_censors(self):
        event = make_event([1.0, 2.0])
        prior = GaussianPrior(
            mu=(-5.0, 0.0, 0.0, 0.0), sigma=(1e-6, 1e-6, 1e-6, 1e-6)
        )
        prediction = nhpp_at_cutoff(event, prior).prediction
        assert prediction.censored
        assert prediction.point_estimate is None

    def test_prediction_strictly_after_cutoff(self):
        truth = PolynomialIntensity((1.5, 0.2, 0.0, 0.0))
        prior = GaussianPrior((1.5, 0.2, 0.0, 0.0), (0.5, 0.2, 0.05, 0.01))
        checked = 0
        for seed in range(5):
            arrivals = simulate_thinning(truth, ObservationWindow(0.0, 7.0), 100 + seed)
            run = nhpp_at_cutoff(make_event(arrivals), prior)
            if run.note is not None:
                # Only a seed with no history may be skipped.
                assert "no arrivals at or before the cutoff" in run.note
                continue
            prediction = run.prediction
            if not prediction.censored:
                assert prediction.point_estimate > 4.5
                checked += 1
        assert checked > 0

    def test_pipeline_determinism(self):
        truth = PolynomialIntensity((1.5, 0.1, 0.0, 0.0))
        arrivals = simulate_thinning(truth, ObservationWindow(0.0, 7.0), 33)
        event = make_event(arrivals)
        prior = GaussianPrior((1.5, 0.1, 0.0, 0.0), (0.5, 0.2, 0.05, 0.01))
        first = nhpp_at_cutoff(event, prior)
        second = nhpp_at_cutoff(event, prior)
        assert first == second


class TestPredictEventSequence:
    def test_run_counts(self):
        event = make_event([1.0, 2.5, 4.0])
        prior = GaussianPrior(
            mu=(1.0, 0.0, 0.0, 0.0), sigma=(0.5, 0.1, 0.05, 0.01)
        )
        runs = predict_event_sequence(event, prior, SMALL_SAMPLER)
        nhpp_runs = [r for r in runs if r.model == "nhpp"]
        assert len(nhpp_runs) == 2
        # After the first arrival the baselines are undefined.
        step1 = [r for r in runs if r.cutoff == 1.0]
        assert {r.model for r in step1} == {"nhpp", "naive", "mean"}
        assert all(r.point_estimate is None for r in step1 if r.model != "nhpp")
        step2 = [r for r in runs if r.cutoff == 2.5]
        assert all(r.point_estimate is not None for r in step2 if r.model != "nhpp")

    def test_actuals_attached(self):
        event = make_event([1.0, 2.5, 4.0])
        prior = GaussianPrior(
            mu=(1.0, 0.0, 0.0, 0.0), sigma=(0.5, 0.1, 0.05, 0.01)
        )
        runs = predict_event_sequence(event, prior, SMALL_SAMPLER)
        for run in runs:
            if run.cutoff == 1.0:
                assert run.actual_next == pytest.approx(2.5)
            else:
                assert run.actual_next == pytest.approx(4.0)

    def test_constant_rate_memoryless_medians(self):
        rate = 2.0
        event = make_event([0.5, 1.0, 1.5, 2.0])
        prior = GaussianPrior(
            mu=(rate, 0.0, 0.0, 0.0), sigma=(1e-4, 1e-4, 1e-4, 1e-4)
        )
        runs = predict_event_sequence(event, prior, SMALL_SAMPLER)
        for run in runs:
            if run.model == "nhpp":
                expected = run.cutoff + math.log(2) / rate
                assert run.point_estimate == pytest.approx(expected, abs=0.02)

    def test_too_few_arrivals(self):
        prior = GaussianPrior((1.0,), (0.5,))
        with pytest.raises(InsufficientHistoryError):
            predict_event_sequence(make_event([3.0]), prior, SMALL_SAMPLER)
