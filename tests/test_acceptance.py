"""Acceptance suite: one criterion per test, one pass/fail line each.

Each test prints its verdict with capture disabled so the line is
visible in normal pytest output, then asserts it.
"""

import math
import time
from datetime import datetime, timezone

import numpy as np

from cadence.cli import RunConfig, fit_prior_from_events, main
from cadence.evaluation import mae, rmse, score_runs
from cadence.inference import SamplerConfig, sample_posterior
from cadence.ingest import ConjunctionEvent
from cadence.intensity import (
    BinnedCounts,
    ClampedPolynomials,
    PolynomialIntensity,
    RidgeConfig,
    fit_ridge,
)
from cadence.point_process import MixtureSurvival, ObservationWindow, simulate_thinning
from cadence.prediction import predict_event_sequence
from cadence.priors import GaussianPrior
from support import fixed_cutoff_runs, likelihood_term

TCA = datetime(2030, 6, 1, tzinfo=timezone.utc)


def report(capsys, criterion: int, label: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {criterion} ({label}): {verdict} - {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def make_events(beta, n, seed0, window=7.0, min_arrivals=2, prefix="A"):
    truth = PolynomialIntensity(tuple(beta))
    events = []
    k = 0
    while len(events) < n:
        arrivals = simulate_thinning(truth, ObservationWindow(0.0, window), seed0 + k)
        k += 1
        if len(arrivals) < min_arrivals:
            continue
        events.append(ConjunctionEvent(f"{prefix}{k:04d}", TCA, window, tuple(arrivals)))
    return events


class TestCriterion1AnalyticOracles:
    def test_closed_forms(self, capsys):
        start = time.perf_counter()
        checks = []

        # Constant rate 2 on [0, 5]: Lambda = 10, log-likelihood in closed form.
        # The survival of one rate is a mixture of one draw.
        const = (2.0, 0.0)
        checks.append(abs(ClampedPolynomials(const, 0.0, 5.0).integral(5.0)[0] - 10.0))
        arrivals = [0.5, 1.5, 3.0]
        expected = 3 * math.log(2.0) - 10.0
        checks.append(abs(likelihood_term(const, arrivals, 5.0) - expected))
        checks.append(abs(MixtureSurvival([const], 1.0, 0.7)(0.7) - math.exp(-1.4)))

        # Linear rate 1 + 0.5 t on [0, 4]: Lambda = 4 + 0.25 * 16 = 8.
        linear = (1.0, 0.5)
        checks.append(abs(ClampedPolynomials(linear, 0.0, 4.0).integral(4.0)[0] - 8.0))
        expected = math.log(1.5) + math.log(2.0) + math.log(2.5) - 8.0
        checks.append(abs(likelihood_term(linear, [1.0, 2.0, 3.0], 4.0) - expected))
        checks.append(abs(MixtureSurvival([linear], 2.0, 1.0)(1.0) - math.exp(-2.25)))

        elapsed = time.perf_counter() - start
        worst = max(checks)
        ok = worst < 1e-6 and elapsed < 1.0
        report(capsys, 1, "analytic NHPP oracles", ok,
               f"max abs error {worst:.2e}, {elapsed:.2f}s")


class TestCriterion2SimulatorValidity:
    def test_count_law(self, capsys):
        start = time.perf_counter()
        model = PolynomialIntensity((2.0, 0.0))
        window = ObservationWindow(0.0, 5.0)
        counts = np.array([len(simulate_thinning(model, window, seed))
                           for seed in range(10_000)])
        elapsed = time.perf_counter() - start
        mean = counts.mean()
        var = counts.var(ddof=1)
        ok = abs(mean - 10.0) < 0.1 and abs(var - 10.0) < 0.6 and elapsed < 10.0
        report(capsys, 2, "simulator count law", ok,
               f"mean {mean:.3f}, var {var:.3f}, {elapsed:.1f}s")


class TestCriterion3RidgeCorrectness:
    def test_recovery_oracle_and_monotonicity(self, capsys):
        # The unique cubic whose binned per-event rates reproduce these
        # counts exactly: a noiseless target for the alpha = 0 fit.
        binned = BinnedCounts(bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0), counts=(3, 1, 4, 1))
        y = np.asarray(binned.counts, dtype=float)
        design = np.vander(binned.midpoints, 4, increasing=True) * binned.widths[:, None]
        beta_star = np.linalg.solve(design, y)

        beta_zero = np.array(fit_ridge(binned, RidgeConfig(alpha=0.0, degree=3)))
        rel_zero = np.max(np.abs(beta_zero - beta_star) / np.abs(beta_star))

        gram = design.T @ design + 1.0 * np.eye(4)
        oracle_one = np.linalg.solve(gram, design.T @ y)
        beta_one = np.array(fit_ridge(binned, RidgeConfig(alpha=1.0, degree=3)))
        err_one = np.max(np.abs(beta_one - oracle_one))

        norms = [
            np.linalg.norm(fit_ridge(binned, RidgeConfig(alpha=a, degree=3)))
            for a in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        monotone = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

        ok = rel_zero < 1e-6 and err_one < 1e-10 and monotone
        report(capsys, 3, "ridge correctness", ok,
               f"alpha=0 rel err {rel_zero:.2e}, alpha=1 oracle err {err_one:.2e}, "
               f"norm monotone {monotone}")


class TestCriterion4SamplerCorrectness:
    def test_normal_and_conjugate_targets(self, capsys):
        start = time.perf_counter()

        config = SamplerConfig(chains=4, draws=10000, seed=1)
        samples = sample_posterior(lambda s: -0.5 * (s * s).sum(axis=1), [0.0], [1.0], config)
        flat = samples.flat_draws()[:, 0]
        normal_ok = (
            abs(flat.mean()) < 0.05
            and abs(flat.var() - 1.0) < 0.15
            and samples.r_hat[0] < 1.05
            and samples.ess[0] > 5000
        )

        # Homogeneous rate with Gamma(2, 1) prior: posterior Gamma(2 + n, 1 + T).
        a, b = 2.0, 1.0
        arrivals = [0.2, 0.9, 1.7, 2.1, 2.8, 3.3, 4.1]
        n, total_time = len(arrivals), 5.0

        def log_density(states):
            rate = states[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                value = (a - 1 + n) * np.log(rate) - (b + total_time) * rate
            return np.where(rate > 0, value, -np.inf)

        config = SamplerConfig(chains=4, draws=1000, seed=7)
        gamma_samples = sample_posterior(log_density, [1.5], [0.6], config)
        gflat = gamma_samples.flat_draws()[:, 0]
        analytic_mean = (a + n) / (b + total_time)
        stderr = gflat.std(ddof=1) / math.sqrt(gamma_samples.ess[0])
        gamma_ok = abs(gflat.mean() - analytic_mean) <= 3 * stderr

        elapsed = time.perf_counter() - start
        ok = normal_ok and gamma_ok and elapsed < 30.0
        report(capsys, 4, "sampler correctness", ok,
               f"normal mean {flat.mean():.3f} var {flat.var():.3f} "
               f"rhat {samples.r_hat[0]:.3f} ess {samples.ess[0]:.0f}; "
               f"gamma dev {abs(gflat.mean() - analytic_mean) / stderr:.2f} SE; "
               f"{elapsed:.1f}s")


class TestCriterion5SyntheticBenchmark:
    def test_table_analogue(self, capsys):
        start = time.perf_counter()
        events = make_events((6.0, 0.5, -0.05, 0.002), 200, seed0=9000, prefix="S")
        train, test = events[:100], events[100:]
        prior = fit_prior_from_events(RunConfig(), train)
        sampler = SamplerConfig(chains=4, draws=1000, seed=2024)
        reports = {r.model: r for r in score_runs(fixed_cutoff_runs(test, prior, 2.5, sampler))}
        elapsed = time.perf_counter() - start

        nhpp, naive = reports["nhpp"], reports["naive"]
        ok = (
            nhpp.mae <= naive.mae
            and nhpp.mae <= nhpp.rmse + 1e-12
            and naive.mae <= naive.rmse + 1e-12
            and 0.90 <= nhpp.coverage95 <= 0.99
            and elapsed < 300.0
        )
        report(capsys, 5, "end-to-end synthetic benchmark", ok,
               f"nhpp mae {nhpp.mae:.3f} rmse {nhpp.rmse:.3f} "
               f"naive mae {naive.mae:.3f} rmse {naive.rmse:.3f} "
               f"coverage {nhpp.coverage95:.2f}, {elapsed:.0f}s")


class TestCriterion6SequentialTrend:
    def test_interval_width_shrinks(self, capsys):
        prior = GaussianPrior((1.0, 0.1, 0.0, 0.0), (0.5, 0.2, 0.05, 0.01))
        sampler = SamplerConfig(chains=2, draws=250, seed=5)

        def width(run):
            p = run.prediction
            lo = p.lower_95 if p.lower_95 is not None else p.cutoff
            hi = p.upper_95 if p.upper_95 is not None else p.cutoff + p.horizon
            return hi - lo

        first_widths, final_widths = [], []
        for event in make_events((1.0, 0.1, 0.0, 0.0), 50, seed0=4000,
                                 min_arrivals=3, prefix="Q"):
            runs = [r for r in predict_event_sequence(event, prior, sampler)
                    if r.model == "nhpp"]
            if len(runs) < 2:
                continue
            first_widths.append(width(runs[0]))
            final_widths.append(width(runs[-1]))

        first = float(np.mean(first_widths))
        final = float(np.mean(final_widths))
        ok = len(first_widths) >= 50 and final <= first
        report(capsys, 6, "sequential uncertainty trend", ok,
               f"{len(first_widths)} events, first step width {first:.2f}, "
               f"final step width {final:.2f}")


class TestCriterion7MetricIdentities:
    def test_mae_rmse_properties(self, capsys):
        rng = np.random.default_rng(123)
        worst_gap = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y = rng.uniform(-100, 100, n)
            y_hat = rng.uniform(-100, 100, n)
            worst_gap = max(worst_gap, mae(y, y_hat) - rmse(y, y_hat))
        identical = rng.uniform(-10, 10, 25)
        exact_zero = mae(identical, identical) == 0.0 and rmse(identical, identical) == 0.0
        ok = worst_gap <= 0.0 and exact_zero
        report(capsys, 7, "metric identities", ok,
               f"max(mae - rmse) {worst_gap:.2e} over 1000 vectors, "
               f"identical vectors zero: {exact_zero}")


class TestCriterion8Determinism:
    def test_pipeline_byte_identical(self, capsys, tmp_path):
        fast = ["--chains", "2", "--draws", "200", "--seed", "17"]
        outputs = []
        for name in ("one", "two"):
            root = tmp_path / name
            root.mkdir()
            data = root / "data.csv"
            prior = root / "prior.json"
            runs = root / "runs.jsonl"
            rep = root / "report.json"
            assert main(["simulate", "--n-events", "30",
                         "--beta", "1.2,0.25,-0.02,0.001",
                         "--out", str(data), "--seed", "17"]) == 0
            assert main(["fit-prior", "--train", str(data), "--out", str(prior)]) == 0
            assert main(["predict", "--data", str(data), "--prior", str(prior),
                         "--out", str(runs), *fast]) == 0
            assert main(["evaluate", "--runs", str(runs), "--out", str(rep)]) == 0
            outputs.append([p.read_bytes() for p in (data, prior, runs, rep)])
        identical = outputs[0] == outputs[1]
        report(capsys, 8, "pipeline determinism", identical,
               f"4 artifacts byte-identical across reruns: {identical}")
