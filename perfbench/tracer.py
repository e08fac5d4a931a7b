"""Spans and counters around the public functions of each cadence module.

The tracer wraps functions from outside the program: it replaces every
binding of a wrapped function in the loaded ``cadence`` modules (so
``from .x import f`` copies are traced too) and restores them afterwards.
Each wrapped call records a span (name, start, end, parent); spans stay in
memory and are written out at the end of the run.  Hot inner calls (the
log-density closure, mixture survival evaluations) get counters only.
A wrapped name that no longer exists is reported as missing.
"""
from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict

SPANS = (
    "cli.cmd_simulate", "cli.cmd_fit_prior", "cli.cmd_predict", "cli.cmd_evaluate",
    "ingest.parse_csv", "ingest.assemble_events", "ingest.events_to_csv",
    "ingest.split_at_cutoff",
    "intensity.bin_events", "intensity.fit_ridge", "intensity.prior_from_fit",
    "point_process.simulate_thinning", "point_process.thinning_rate_bound",
    "point_process.mixture_next_arrival",
    "inference.make_log_posterior", "inference.sample_posterior",
    "inference.r_hat", "inference.ess",
    "prediction.posterior_for_event", "prediction.predict_event_sequence",
    "prediction.naive_baseline", "prediction.mean_baseline",
    "evaluation.mae", "evaluation.rmse", "evaluation.interval_coverage",
)
MIXTURE = "point_process.mixture_next_arrival"
SURVIVAL_CALL = "point_process.MixtureSurvival.__call__"
RHAT_GATE = 1.05


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.posteriors: list[tuple[float, float, float]] = []  # (min ESS, max R-hat, acceptance)
        self.mixture_peaks: list[int] = []
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cadence" or name.startswith("cadence."))]
        for qualified in SPANS:
            module_name, attr = qualified.split(".")
            module = sys.modules.get(f"cadence.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(qualified)
                continue
            inner = self._with_peak(original) if qualified == MIXTURE else original
            # An _after_<name> method, where one exists, sees each result.
            wrapped = self._span(qualified, inner, getattr(self, "_after_" + attr, None))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, name, value))
                        setattr(m, name, wrapped)
        cls = getattr(sys.modules.get("cadence.point_process"), "MixtureSurvival", None)
        call = getattr(cls, "__call__", None)
        if cls is None or call is None:
            self.missing.add(SURVIVAL_CALL)
        else:
            self._undo.append((cls, "__call__", call))
            counts = self.counts

            def counted_call(survival, u):
                counts["survival_evals"] += 1
                return call(survival, u)

            cls.__call__ = counted_call

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _span(self, name, fn, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            return after(result, args) if after is not None else result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function bookkeeping --------------------------------------

    def _after_make_log_posterior(self, density, args):
        counts, clock = self.counts, time.perf_counter

        def counted_density(beta):
            start = clock()
            value = density(beta)
            counts["log_density_s"] += clock() - start
            counts["log_density_calls"] += 1
            return value

        return counted_density

    def _after_sample_posterior(self, samples, args):
        self.posteriors.append(
            (min(samples.ess), max(samples.r_hat), sum(samples.acceptance) / len(samples.acceptance))
        )
        return samples

    def _after_simulate_thinning(self, arrivals, args):
        self.counts["thinning_accepted"] += len(arrivals)
        return arrivals

    def _after_thinning_rate_bound(self, bound, args):
        window = args[1]
        self.counts["thinning_expected_candidates"] += bound * (window.end - window.start)
        return bound

    def _after_parse_csv(self, records, args):
        self.counts["csv_rows"] += len(records)
        return records

    def _with_peak(self, fn):
        """Measure tracemalloc's peak inside each call (kept inside the span)."""
        peaks = self.mixture_peaks

        def with_peak(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return with_peak

    # -- results -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return inclusive, own, calls

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                "counts": dict(self.counts),
                "missing": sorted(self.missing),
            }, handle)


def layer_metrics(tracer: Tracer, events: int, output_bytes: int, overhead_s: float) -> tuple[dict, list]:
    """Per-layer metrics from one traced run; returns (metrics, missing names).

    Times are seconds per event taken through the traced rounds.  A metric
    whose wrapped function is missing is left out and named instead.
    """
    inclusive, own, calls = tracer.totals()
    counts = tracer.counts
    posteriors = tracer.posteriors
    sampler_s = inclusive["inference.sample_posterior"]

    def per_event(*names, table=inclusive):
        return sum(table[n] for n in names) / events

    def ratio(num, den):
        return num / den if den else 0.0

    # metric name -> (unit, wrapped names it needs, value thunk)
    table = {
        "inference.sample_posterior_s": ("s/event", ["inference.sample_posterior"],
                                         lambda: per_event("inference.sample_posterior")),
        "inference.log_density_calls": ("count", ["inference.make_log_posterior"],
                                        lambda: ratio(counts["log_density_calls"], len(posteriors))),
        "inference.log_density_us": ("us/call", ["inference.make_log_posterior"],
                                     lambda: 1e6 * ratio(counts["log_density_s"], counts["log_density_calls"])),
        "inference.make_log_posterior_s": ("s/event", ["inference.make_log_posterior"],
                                           lambda: per_event("inference.make_log_posterior")),
        "inference.diagnostics_s": ("s/event", ["inference.r_hat", "inference.ess"],
                                    lambda: per_event("inference.r_hat", "inference.ess")),
        "inference.ess_min": ("draws", ["inference.sample_posterior"],
                              lambda: _median([p[0] for p in posteriors])),
        "inference.ess_per_sampler_s": ("draws/s", ["inference.sample_posterior"],
                                        lambda: ratio(sum(p[0] for p in posteriors), sampler_s)),
        "inference.acceptance_mean": ("ratio", ["inference.sample_posterior"],
                                      lambda: _mean([p[2] for p in posteriors])),
        "inference.rhat_max": ("ratio", ["inference.sample_posterior"],
                               lambda: max((p[1] for p in posteriors), default=0.0)),
        "inference.rhat_gated": ("count", ["inference.sample_posterior"],
                                 lambda: sum(p[1] > RHAT_GATE for p in posteriors)),
        "point_process.mixture_s": ("s/event", ["point_process.mixture_next_arrival"],
                                    lambda: per_event("point_process.mixture_next_arrival")),
        "point_process.survival_evals": ("count", ["point_process.mixture_next_arrival", SURVIVAL_CALL],
                                         lambda: ratio(counts["survival_evals"],
                                                       calls["point_process.mixture_next_arrival"])),
        "point_process.mixture_peak_mb": ("MB", ["point_process.mixture_next_arrival"],
                                          lambda: max(tracer.mixture_peaks, default=0) / 2**20),
        "point_process.simulate_thinning_s": ("s/event", ["point_process.simulate_thinning"],
                                              lambda: per_event("point_process.simulate_thinning")),
        "point_process.thinning_accept_ratio": ("ratio", ["point_process.simulate_thinning",
                                                          "point_process.thinning_rate_bound"],
                                                lambda: ratio(counts["thinning_accepted"],
                                                              counts["thinning_expected_candidates"])),
        "ingest.parse_csv_s": ("s/event", ["ingest.parse_csv"], lambda: per_event("ingest.parse_csv")),
        "ingest.assemble_events_s": ("s/event", ["ingest.assemble_events"],
                                     lambda: per_event("ingest.assemble_events")),
        "ingest.events_to_csv_s": ("s/event", ["ingest.events_to_csv"],
                                   lambda: per_event("ingest.events_to_csv")),
        "ingest.rows_per_s": ("rows/s", ["ingest.parse_csv"],
                              lambda: ratio(counts["csv_rows"], inclusive["ingest.parse_csv"])),
        "intensity.bin_events_s": ("s/event", ["intensity.bin_events"],
                                   lambda: per_event("intensity.bin_events")),
        "intensity.fit_ridge_s": ("s/event", ["intensity.fit_ridge"],
                                  lambda: per_event("intensity.fit_ridge")),
        "intensity.fit_ridge_calls": ("count", ["intensity.fit_ridge"],
                                      lambda: calls["intensity.fit_ridge"] / events),
        "prediction.posteriors": ("count", ["inference.sample_posterior"],
                                  lambda: len(posteriors) / events),
        "prediction.self_s": ("s/event", ["prediction.posterior_for_event",
                                          "prediction.predict_event_sequence"],
                              lambda: per_event("prediction.posterior_for_event",
                                                "prediction.predict_event_sequence",
                                                "prediction.naive_baseline",
                                                "prediction.mean_baseline", table=own)),
        "cli.predict_s": ("s/event", ["cli.cmd_predict"], lambda: per_event("cli.cmd_predict")),
        "cli.predict_self_s": ("s/event", ["cli.cmd_predict"],
                               lambda: per_event("cli.cmd_predict", table=own)),
        "cli.evaluate_s": ("s/event", ["cli.cmd_evaluate"], lambda: per_event("cli.cmd_evaluate")),
        "cli.fit_prior_s": ("s/event", ["cli.cmd_fit_prior"], lambda: per_event("cli.cmd_fit_prior")),
        "cli.simulate_self_s": ("s/event", ["cli.cmd_simulate"],
                                lambda: per_event("cli.cmd_simulate", table=own)),
        "cli.output_mb": ("MB/event", [], lambda: output_bytes / 1e6 / events),
        "evaluation.score_s": ("s/event", ["evaluation.mae", "evaluation.rmse"],
                               lambda: per_event("evaluation.mae", "evaluation.rmse",
                                                 "evaluation.interval_coverage")),
        "trace.overhead_s": ("s/event", [], lambda: overhead_s),
    }
    metrics, missing = {}, []
    for name, (unit, needs, value) in table.items():
        absent = [n for n in needs if n in tracer.missing]
        if absent:
            missing.append(f"{name} (missing {', '.join(absent)})")
            continue
        metrics[name] = {"value": float(value()), "unit": unit}
    return metrics, missing


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _mean(values):
    return sum(values) / len(values) if values else 0.0
