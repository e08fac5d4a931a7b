"""Metrics, interval coverage, and the paired benchmark."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cadence.evaluation import interval_coverage, mae, rmse, score_runs
from cadence.inference import SamplerConfig
from cadence.ingest import ConjunctionEvent
from cadence.intensity import PolynomialIntensity
from cadence.point_process import ArrivalPrediction, ObservationWindow, simulate_thinning
from cadence.prediction import PredictionRun
from cadence.priors import GaussianPrior
from support import fixed_cutoff_runs

TCA = datetime(2030, 6, 1, tzinfo=timezone.utc)


class TestMae:
    def test_identity(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_computed(self):
        assert mae([0, 0], [1, 3]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            mae([], [])


class TestRmse:
    def test_identity(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_computed(self):
        assert rmse([0, 0], [1, 3]) == pytest.approx(math.sqrt(5), abs=1e-5)


finite_floats = st.floats(-1e6, 1e6)


class TestMetricProperties:
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                arrays(float, n, elements=finite_floats),
                arrays(float, n, elements=finite_floats),
            )
        )
    )
    @settings(max_examples=200)
    def test_mae_le_rmse(self, pair):
        y, y_hat = pair
        assert mae(y, y_hat) <= rmse(y, y_hat) + 1e-9

    def test_equality_iff_constant_errors(self):
        assert mae([0, 0], [2, -2]) == pytest.approx(rmse([0, 0], [2, -2]))

    def test_permutation_and_translation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(-5, 5, 12)
        y_hat = rng.uniform(-5, 5, 12)
        perm = rng.permutation(12)
        assert mae(y[perm], y_hat[perm]) == pytest.approx(mae(y, y_hat))
        assert rmse(y[perm], y_hat[perm]) == pytest.approx(rmse(y, y_hat))
        assert mae(y + 3.3, y_hat + 3.3) == pytest.approx(mae(y, y_hat))
        assert rmse(y + 3.3, y_hat + 3.3) == pytest.approx(rmse(y, y_hat))


def run_with_interval(lower, upper, actual):
    point = None if lower is None or upper is None else 0.5 * (lower + upper)
    prediction = ArrivalPrediction(
        cutoff=0.0, horizon=10.0, censored=False,
        point_estimate=point, lower_95=lower, upper_95=upper,
    )
    return PredictionRun(
        event_id="E", model="nhpp", cutoff=0.0, window_days=10.0,
        point_estimate=prediction.point_estimate, prediction=prediction,
        actual_next=actual,
    )


class TestIntervalCoverage:
    def test_all_inside(self):
        runs = [run_with_interval(1, 3, 2), run_with_interval(0, 5, 4)]
        assert interval_coverage(runs) == 1.0

    def test_none_inside(self):
        runs = [run_with_interval(1, 3, 5), run_with_interval(0, 1, 2)]
        assert interval_coverage(runs) == 0.0

    def test_half_inside(self):
        runs = [run_with_interval(1, 3, 2), run_with_interval(1, 3, 9)]
        assert interval_coverage(runs) == 0.5

    def test_no_scorable_runs(self):
        with pytest.raises(ValueError):
            interval_coverage([])

    def test_absent_upper_bound_is_unbounded(self):
        # The 0.025 quantile beyond the horizon: any realized arrival is
        # before the horizon, hence below the (unreported) upper bound.
        runs = [run_with_interval(1, None, 5), run_with_interval(1, None, 0.5)]
        assert interval_coverage(runs) == 0.5

    def test_absent_lower_bound_never_covers(self):
        runs = [run_with_interval(None, None, 5)]
        assert interval_coverage(runs) == 0.0


def paired_runs(event_id, cutoff, actual, nhpp=None, naive=0.0, mean=0.0, censored=False):
    """One (event, cutoff) group; a None baseline value carries an error."""
    prediction = ArrivalPrediction(
        cutoff=cutoff, horizon=10.0 - cutoff, censored=censored,
        point_estimate=None if censored else nhpp,
        lower_95=cutoff, upper_95=cutoff + 5.0,
    )
    runs = [PredictionRun(event_id, "nhpp", cutoff, 10.0, prediction.point_estimate,
                          prediction, actual)]
    for model, value in (("naive", naive), ("mean", mean)):
        note = "needs at least 2 arrivals" if value is None else None
        runs.append(PredictionRun(event_id, model, cutoff, 10.0, value, None, actual, note))
    return runs


class TestScoreRuns:
    def test_groups_by_event_and_cutoff(self):
        runs = (
            paired_runs("E1", 1.0, 2.0, nhpp=2.5, naive=3.0, mean=2.0)
            + paired_runs("E1", 2.0, 3.0, nhpp=3.0, naive=3.0, mean=4.0)
            + paired_runs("E1", 3.0, None, nhpp=4.0)  # unknown actual
            + paired_runs("E2", 1.0, 2.0, censored=True)
            + paired_runs("E2", 2.0, 3.0, nhpp=3.0, naive=None)  # baseline error
        )
        reports = score_runs(runs)
        assert [r.model for r in reports] == ["nhpp", "naive", "mean"]
        assert [(r.n, r.censored_count, r.skipped_count) for r in reports] == [(2, 2, 1)] * 3
        assert [r.mae for r in reports] == pytest.approx([0.25, 0.5, 0.5])
        assert reports[0].coverage95 == 1.0

    def test_nhpp_error_skips_the_group(self):
        runs = paired_runs("E1", 1.0, 2.0, nhpp=2.0)
        failed = [PredictionRun("E2", m, 1.0, 10.0, note="sampler failed")
                  for m in ("nhpp", "naive", "mean")]
        reports = score_runs(runs + failed)
        assert reports[0].n == 1 and reports[0].skipped_count == 1

    def test_zero_scorable_errors(self):
        with pytest.raises(ValueError, match="zero scorable"):
            score_runs(paired_runs("E1", 1.0, None, nhpp=2.0))


class TestRunBenchmark:
    def make_events(self, beta, n, window=7.0, seed0=500):
        truth = PolynomialIntensity(tuple(beta))
        events = []
        for k in range(n):
            arrivals = simulate_thinning(truth, ObservationWindow(0.0, window), seed0 + k)
            if len(arrivals) < 2:
                continue
            events.append(ConjunctionEvent(f"B{k:03d}", TCA, window, tuple(arrivals)))
        return events

    def test_reports_are_paired_and_ordered(self):
        beta = (1.5, 0.3, -0.02, 0.001)
        events = self.make_events(beta, 12)
        prior = GaussianPrior(mu=beta, sigma=(0.5, 0.2, 0.05, 0.01))
        sampler = SamplerConfig(chains=2, draws=300, seed=0)
        reports = score_runs(fixed_cutoff_runs(events, prior, 2.5, sampler))
        assert [r.model for r in reports] == ["nhpp", "naive", "mean"]
        assert len({r.n for r in reports}) == 1
        assert reports[0].coverage95 is not None
        assert reports[1].coverage95 is None
        for r in reports:
            assert r.mae <= r.rmse + 1e-12

    def test_equal_gap_events_make_baselines_agree(self):
        events = [
            ConjunctionEvent("G1", TCA, 7.0, (1.0, 2.0, 3.0, 4.0, 5.0)),
            ConjunctionEvent("G2", TCA, 7.0, (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)),
        ]
        prior = GaussianPrior(mu=(1.0, 0.0, 0.0, 0.0), sigma=(0.5, 0.1, 0.05, 0.01))
        sampler = SamplerConfig(chains=2, draws=200, seed=1)
        reports = score_runs(fixed_cutoff_runs(events, prior, 2.5, sampler))
        naive_report = next(r for r in reports if r.model == "naive")
        mean_report = next(r for r in reports if r.model == "mean")
        assert naive_report.mae == pytest.approx(mean_report.mae)
        assert naive_report.rmse == pytest.approx(mean_report.rmse)

    def test_zero_scorable_errors(self):
        # Single event with every arrival before the cutoff.
        events = [ConjunctionEvent("C1", TCA, 7.0, (1.0, 2.0, 3.0))]
        prior = GaussianPrior(mu=(0.1, 0.0, 0.0, 0.0), sigma=(0.05, 0.01, 0.01, 0.01))
        sampler = SamplerConfig(chains=2, draws=200, seed=2)
        with pytest.raises(ValueError, match="zero scorable"):
            score_runs(fixed_cutoff_runs(events, prior, 2.5, sampler))

    def test_short_history_is_skipped(self):
        # S1 has a single arrival before the 4.5-day cutoff: no baselines.
        events = [
            ConjunctionEvent("G1", TCA, 7.0, (1.0, 2.0, 3.0, 4.0, 5.0)),
            ConjunctionEvent("S1", TCA, 7.0, (4.0, 5.0)),
        ]
        prior = GaussianPrior(mu=(1.0, 0.0, 0.0, 0.0), sigma=(0.5, 0.1, 0.05, 0.01))
        sampler = SamplerConfig(chains=2, draws=200, seed=1)
        reports = score_runs(fixed_cutoff_runs(events, prior, 2.5, sampler))
        assert [(r.n, r.skipped_count) for r in reports] == [(1, 1)] * 3

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, 7.0, 9.0])
    def test_cutoff_outside_window_rejected(self, cutoff):
        events = [ConjunctionEvent("G1", TCA, 7.0, (1.0, 2.0, 3.0, 4.0, 5.0))]
        prior = GaussianPrior(mu=(1.0, 0.0, 0.0, 0.0), sigma=(0.5, 0.1, 0.05, 0.01))
        sampler = SamplerConfig(chains=2, draws=200, seed=1)
        with pytest.raises(ValueError, match="strictly inside the window"):
            fixed_cutoff_runs(events, prior, cutoff, sampler)
