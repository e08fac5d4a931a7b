"""Command-line front end: simulate, fit-prior, predict, evaluate, plot-data.

Configuration comes from flags, an optional JSON config file (flags win),
and the CADENCE_SEED environment variable for the seed.  All file writes
are whole-file atomic (write to a temp file, then rename).
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import numbers
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import CadenceError, FormatError
from .evaluation import MetricsReport, score_runs
from .inference import SamplerConfig
from .ingest import ConjunctionEvent, assemble_events, cutoff_time, events_to_csv, parse_csv
from .intensity import (CLAMP_FLOOR, PolynomialIntensity, RidgeConfig, bin_events, fit_ridge,
                        prior_from_fit)
from .point_process import ArrivalPrediction, ObservationWindow, run_starts, simulate_thinning
from .prediction import MEAN, NAIVE, NHPP, PredictionRun, predict_event_sequence, runs_at_cutoff
from .priors import GaussianPrior

SEED_ENV_VAR = "CADENCE_SEED"
SIMULATION_EPOCH = datetime(2030, 1, 1, tzinfo=timezone.utc)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """All tunables shared across subcommands, with their defaults.

    Validated once on construction (types too: an int is a float, a bool
    is neither); the sampler and ridge settings are built here too, so
    their own checks run up front.
    """

    window_days: float = 7.0
    cutoff_days_before_tca: float = 2.5
    degree: int = 3
    alpha: float = 1.0
    bin_width: float = 0.5
    chains: int = 4
    draws: int = 1000
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = numbers.Real if f.type == "float" else numbers.Integral
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("window_days", "cutoff_days_before_tca"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.cutoff_days_before_tca >= self.window_days:
            raise ValueError("cutoff must be smaller than the window")
        self.sampler()
        self.ridge()

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(chains=self.chains, draws=self.draws, seed=self.seed)

    def ridge(self) -> RidgeConfig:
        return RidgeConfig(alpha=self.alpha, degree=self.degree, bin_width=self.bin_width)


def _add_config_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", help="JSON config file; explicit flags win")
    group.add_argument("--window-days", type=float, dest="window_days")
    group.add_argument("--cutoff", type=float, dest="cutoff_days_before_tca",
                       help="days before TCA at which to split (default 2.5)")
    group.add_argument("--degree", type=int)
    group.add_argument("--alpha", type=float)
    group.add_argument("--bin-width", type=float, dest="bin_width")
    group.add_argument("--chains", type=int)
    group.add_argument("--draws", type=int)
    group.add_argument("--seed", type=int,
                       help=f"RNG seed (default 0; {SEED_ENV_VAR} overrides the default)")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flag, config-file, environment, and default values."""
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            file_values = json.load(handle)
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"{args.config}: unknown settings {sorted(unknown)}")
    values = {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
        elif f.name in file_values:
            values[f.name] = file_values[f.name]
        elif f.name == "seed" and SEED_ENV_VAR in os.environ:
            values[f.name] = int(os.environ[SEED_ENV_VAR])
    return RunConfig(**values)


def _write_atomic(path: str, text: str):
    """Write a unique temp file beside ``path``, then rename it over ``path``."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        umask = os.umask(0)  # mkstemp creates mode 0600; keep the usual mode
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _days_to_tca(window_days: float, t: float | None) -> float | None:
    """Window time to days before TCA, and back: the map is its own inverse."""
    return None if t is None else window_days - t


def _load_events(path: str, window_days: float) -> list[ConjunctionEvent]:
    with open(path, "rb") as handle:
        records = parse_csv(handle.read())
    return assemble_events(records, window_days)


def cmd_simulate(config: RunConfig, n_events: int, true_beta: list[float], out_path: str):
    """Generate synthetic events from a known intensity and write them as CSV."""
    model = PolynomialIntensity(tuple(true_beta))
    window = ObservationWindow(0.0, config.window_days)
    seed_rng = np.random.default_rng(config.seed)
    event_seeds = seed_rng.integers(0, 2**63 - 1, size=max(n_events, 1))

    events = []
    width = max(len(str(max(n_events, 1))), 3)
    for k in range(n_events):
        arrivals = simulate_thinning(model, window, int(event_seeds[k]))
        if not arrivals:
            continue
        events.append(
            ConjunctionEvent(
                event_id=f"SYN{k:0{width}d}",
                tca=SIMULATION_EPOCH + timedelta(days=k),
                window_days=config.window_days,
                arrivals=tuple(arrivals),
            )
        )
    _write_atomic(out_path, events_to_csv(events))
    sidecar = {
        "beta": list(true_beta),
        "window_days": config.window_days,
        "clamp_floor": CLAMP_FLOOR,
        "n_events_requested": n_events,
        "n_events_written": len(events),
        "seed": config.seed,
    }
    _write_atomic(out_path + ".truth.json", json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {len(events)} events to {out_path}")


def fit_prior_from_events(config: RunConfig, events: list[ConjunctionEvent]) -> GaussianPrior:
    """Per-event ridge fits pooled into Gaussian priors."""
    if not events:
        raise CadenceError("no events to fit a prior from")
    ridge_config = config.ridge()
    per_event = fit_ridge(bin_events(events, ridge_config.bin_width), ridge_config)
    return prior_from_fit(per_event)


def cmd_fit_prior(config: RunConfig, train_csv: str, out_prior_json: str):
    events = _load_events(train_csv, config.window_days)
    prior = fit_prior_from_events(config, events)
    _write_atomic(out_prior_json, prior.to_json())
    print(f"fit prior from {len(events)} events -> {out_prior_json}")


def _run_to_json(run: PredictionRun) -> dict:
    w = run.window_days
    record = {
        "event_id": run.event_id,
        "model": run.model,
        "cutoff_days_to_tca": _days_to_tca(w, run.cutoff),
        "predicted_days_to_tca": _days_to_tca(w, run.point_estimate),
        "lower95": None,
        "upper95": None,
        "censored": False,
        "actual_days_to_tca": _days_to_tca(w, run.actual_next),
    }
    p = run.prediction
    if p is not None:
        record["censored"] = p.censored
        # In days-to-TCA coordinates the time axis flips, so the interval's
        # later time becomes the numerically smaller bound.
        record["lower95"] = _days_to_tca(w, p.upper_95)
        record["upper95"] = _days_to_tca(w, p.lower_95)
    if run.note is not None:
        record["error"] = run.note
    return record


def _typed(name: str, value, *kinds):
    """``value`` if it is one of ``kinds`` (a bool only as a bool), else a TypeError naming the field."""
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise TypeError(f"field {name!r} has the wrong type: {value!r}")
    return value


def _run_from_json(record: dict, window_days: float) -> PredictionRun:
    """Inverse of ``_run_to_json`` for records written with this window.

    A missing field raises KeyError, a field of the wrong type TypeError.
    """
    w = window_days

    def number(name, *null):
        return _typed(name, record[name], numbers.Real, *null)

    cutoff = w - number("cutoff_days_to_tca")  # every run has one; a null is malformed
    point = _days_to_tca(w, number("predicted_days_to_tca", type(None)))
    model = _typed("model", record["model"], str)
    note = _typed("error", record.get("error"), str, type(None))
    prediction = None
    if model == NHPP and note is None:
        prediction = ArrivalPrediction(
            cutoff=cutoff, horizon=w - cutoff, censored=_typed("censored", record["censored"], bool),
            point_estimate=point,
            lower_95=_days_to_tca(w, number("upper95", type(None))),
            upper_95=_days_to_tca(w, number("lower95", type(None))),
        )
    return PredictionRun(
        event_id=_typed("event_id", record["event_id"], str), model=model, cutoff=cutoff,
        window_days=w, point_estimate=point, prediction=prediction,
        actual_next=_days_to_tca(w, number("actual_days_to_tca", type(None))), note=note,
    )


def cmd_predict(
    config: RunConfig,
    data_csv: str,
    prior_json: str,
    out_jsonl: str,
    sequence: bool = False,
    dump_posterior: str | None = None,
):
    """Predict per event at the fixed cutoff (or sequentially) to JSON lines.

    Per-event failures are reported inline and do not abort the run.
    """
    with open(prior_json, encoding="utf-8") as handle:
        try:
            prior = GaussianPrior.from_json(handle.read())
        except ValueError as exc:
            raise FormatError(f"{prior_json}: {exc}") from exc
    events = _load_events(data_csv, config.window_days)
    if not events:
        raise CadenceError(f"no events found in {data_csv}")
    if dump_posterior is not None:
        for event in events:
            _check_file_stem(event.event_id, dump_posterior)

    lines = []
    for event in events:
        if sequence:
            try:
                runs = predict_event_sequence(event, prior, config.sampler())
            except CadenceError as exc:
                runs = [PredictionRun(event_id=event.event_id, model=NHPP,
                                      cutoff=0.0, window_days=event.window_days,
                                      note=str(exc))]
        else:
            t_c = cutoff_time(event, config.cutoff_days_before_tca)
            runs, samples = runs_at_cutoff(event, prior, t_c, config.sampler())
            if dump_posterior is not None and samples is not None:
                _dump_posterior_csv(dump_posterior, event.event_id, samples)
        lines.extend(json.dumps(_run_to_json(r)) for r in runs)
    _write_atomic(out_jsonl, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} prediction records to {out_jsonl}")


def _check_file_stem(event_id: str, directory: str):
    """An event id names its posterior dump: it must stay one file inside ``directory``.

    A path holds no NUL byte, so an id with one cannot name a file either.
    """
    forbidden = {"/", os.sep, os.altsep, "\0"} - {None}
    if event_id in (".", "..") or any(char in event_id for char in forbidden):
        raise CadenceError(f"event id {event_id!r} cannot name a posterior file in {directory}")


def _dump_posterior_csv(directory: str, event_id: str, samples):
    """One CSV row per draw; a chain's run of equal draws is formatted once."""
    os.makedirs(directory, exist_ok=True)
    starts = run_starts(samples.draws)
    texts = [",".join(map(repr, row)) for row in samples.draws[starts].tolist()]
    runs = (np.cumsum(starts) - 1).reshape(starts.shape)
    rows = ["chain,draw," + ",".join(f"beta{j}" for j in range(samples.dim))]
    for c, chain in enumerate(runs.tolist()):
        rows.extend(f"{c},{d},{texts[run]}" for d, run in enumerate(chain))
    _write_atomic(os.path.join(directory, f"{event_id}_posterior.csv"), "\n".join(rows) + "\n")


def _read_runs(runs_jsonl: str, window_days: float) -> list[tuple[dict, PredictionRun]]:
    """Each record of a prediction JSONL file with its run; a malformed record is an error."""
    with open(runs_jsonl, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    if not records:
        raise CadenceError(f"no prediction records in {runs_jsonl}")
    pairs = []
    for i, record in enumerate(records, start=1):
        try:
            pairs.append((record, _run_from_json(record, window_days)))
        except (KeyError, TypeError) as exc:
            raise CadenceError(f"{runs_jsonl}: malformed prediction record {i}: {exc!r}") from exc
    return pairs


def format_report_table(reports: list[MetricsReport]) -> str:
    header = (f"{'Model':<12}{'N':>6}{'MAE [days]':>14}{'RMSE [days]':>14}{'Coverage95':>12}"
              f"{'Censored':>10}{'Skipped':>9}")
    lines = [header, "-" * len(header)]
    for r in reports:
        coverage = f"{r.coverage95:.3f}" if r.coverage95 is not None else "-"
        lines.append(
            f"{r.model:<12}{r.n:>6}{r.mae:>14.4f}{r.rmse:>14.4f}{coverage:>12}"
            f"{r.censored_count:>10}{r.skipped_count:>9}"
        )
    return "\n".join(lines)


def cmd_evaluate(config: RunConfig, runs_jsonl: str, out_json: str):
    reports = score_runs([run for _, run in _read_runs(runs_jsonl, config.window_days)])
    payload = [asdict(r) for r in reports]
    _write_atomic(out_json, json.dumps(payload, indent=2) + "\n")
    print(format_report_table(reports))


def cmd_plot_data(config: RunConfig, runs_jsonl: str, event_id: str, out_csv: str):
    """Emit tidy plot data (kind,t_days_to_tca,value,model) for one event."""
    pairs = [(r, run) for r, run in _read_runs(runs_jsonl, config.window_days)
             if run.event_id == event_id]
    if not pairs:
        raise CadenceError(f"unknown event_id: {event_id}")
    scored = [r for r, run in pairs if run.note is None]
    nhpp_rows = sorted(
        (r for r in scored if r["model"] == NHPP),
        key=lambda r: r["cutoff_days_to_tca"], reverse=True,
    )

    arrival_times: set[float] = set()
    for r in scored:
        arrival_times.add(r["cutoff_days_to_tca"])
        if r["actual_days_to_tca"] is not None:
            arrival_times.add(r["actual_days_to_tca"])

    lines = ["kind,t_days_to_tca,value,model"]
    for idx, t in enumerate(sorted(arrival_times, reverse=True), start=1):
        lines.append(f"arrival,{t!r},{idx},")
    for step, r in enumerate(nhpp_rows, start=1):
        if r["predicted_days_to_tca"] is not None:
            lines.append(f"prediction,{r['predicted_days_to_tca']!r},{step},{NHPP}")
        for bound in ("lower95", "upper95"):
            if r[bound] is not None:
                lines.append(f"bound,{r[bound]!r},{step},{NHPP}")
    for model in (NAIVE, MEAN):
        model_rows = sorted(
            (r for r in scored if r["model"] == model and r["predicted_days_to_tca"] is not None),
            key=lambda r: r["cutoff_days_to_tca"], reverse=True,
        )
        for step, r in enumerate(model_rows, start=1):
            lines.append(f"prediction,{r['predicted_days_to_tca']!r},{step},{model}")
    _write_atomic(out_csv, "\n".join(lines) + "\n")
    print(f"wrote plot data for {event_id} to {out_csv}")


# Argument types: argparse turns their ValueError into "invalid <name> value", exit 2.
def finite_floats(text: str) -> list[float]:
    values = [float(v) for v in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def non_negative_int(text: str) -> int:
    count = int(text)
    if count < 0:
        raise ValueError(text)
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cadence",
        description="Model CDM arrival cadence with a Bayesian non-homogeneous "
                    "Poisson process and predict the next arrival.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic events as ingestion CSV")
    p.add_argument("--n-events", type=non_negative_int, required=True)
    p.add_argument("--beta", type=finite_floats, required=True,
                   help="comma-separated true coefficients, ascending power")
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("fit-prior", help="fit Gaussian coefficient priors from a training CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("predict", help="predict the next CDM per event")
    p.add_argument("--data", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--sequence", action="store_true",
                      help="predict every arrival from the ones before it")
    mode.add_argument("--dump-posterior", metavar="DIR",
                      help="write per-event posterior draws as CSV into DIR "
                           "(fixed cutoff only; a usage error with --sequence)")
    _add_config_flags(p)

    p = sub.add_parser("evaluate", help="compute MAE/RMSE/coverage from prediction output")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("plot-data", help="emit tidy per-event plot data as CSV")
    p.add_argument("--runs", required=True)
    p.add_argument("--event-id", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        parser.exit(EXIT_USAGE, f"invalid configuration: {exc}\n")
    try:
        if args.command == "simulate":
            cmd_simulate(config, args.n_events, args.beta, args.out)
        elif args.command == "fit-prior":
            cmd_fit_prior(config, args.train, args.out)
        elif args.command == "predict":
            cmd_predict(config, args.data, args.prior, args.out,
                        sequence=args.sequence, dump_posterior=args.dump_posterior)
        elif args.command == "evaluate":
            cmd_evaluate(config, args.runs, args.out)
        elif args.command == "plot-data":
            cmd_plot_data(config, args.runs, args.event_id, args.out)
    except (CadenceError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
