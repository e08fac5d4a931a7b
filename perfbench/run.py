#!/usr/bin/env python3
"""Benchmark of cadence, run the way its users run it: through cadence.cli.main.

From the root of a cadence checkout:

    python3 perfbench/run.py --workload cutoff-dense --seed 1 --seconds 36 --trace 0

Workloads: cutoff-dense, sequence-sparse, train-bulk (see README.md).  The
benchmark generates every input from --seed, runs whole rounds of the
workload for about --seconds seconds in this one process, checks the
program's outputs against its own computations, and prints as the last
line of standard output one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
wraps each module's public functions and reports per-layer metrics.
Working files go to .perfbench/ in the checkout and are removed at exit.
"""
from __future__ import annotations

import os
import sys
import time

_SCRIPT_START = time.perf_counter()


def seconds_since_process_start() -> float:
    """Wall time since this process started (clock-tick resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


# As many BLAS threads as CPUs this process may use; set before numpy loads.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import refmath  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# The program's defaults, which every workload keeps.
WINDOW = 7.0
CUTOFF = 2.5
FLOOR = 1e-6
BIN_WIDTH, RIDGE_ALPHA, SIGMA_FLOOR = 0.5, 1.0, 1e-3
SECONDS_PER_DAY = 86400.0
EPOCH = np.datetime64("2030-01-01T00:00:00", "s")

DENSE_BETA = (6.0, 0.5, -0.05, 0.002)
SPARSE_BETA = (1.0, 0.1, 0.0, 0.0)
BULK_BETA = (2.0, -1.2, 0.0, 0.04)
TRAIN_EVENTS = 200
POOL_ROUNDS = 40


class ProgramFailed(Exception):
    """A cadence command exited non-zero."""


@dataclass
class Event:
    """A generated event: TCA day and whole seconds before TCA, oldest first."""

    event_id: str
    day: int
    seconds: np.ndarray

    @property
    def arrivals(self) -> np.ndarray:
        # The same arithmetic as the program's ingest, so values match bitwise.
        return WINDOW - self.seconds / SECONDS_PER_DAY


@dataclass
class Round:
    index: int
    directory: str
    traced: bool
    wall: float
    cpu: float
    events: int
    attempted: int
    failed: int


def make_events(beta, n: int, rng: np.random.Generator, prefix: str, count: int | None = None
                ) -> list[Event]:
    """n events at second precision; with ``count``, exactly that many arrivals each."""
    events: list[Event] = []
    while len(events) < n:
        for times in refmath.simulate_events(beta, FLOOR, WINDOW, n - len(events), rng, count):
            seconds = np.unique(np.round((WINDOW - times) * SECONDS_PER_DAY).astype(np.int64))[::-1]
            if seconds.size == 0 or (count is not None and seconds.size != count):
                continue  # nothing to write, or two arrivals fell in one second
            events.append(Event(f"{prefix}{len(events):05d}", len(events), seconds))
    return events


def write_csv(path: str, events: list[Event]):
    sizes = [len(e.seconds) for e in events]
    ids = np.repeat([e.event_id for e in events], sizes)
    tca = EPOCH + np.repeat([e.day for e in events], sizes).astype("timedelta64[D]")
    created = tca - np.concatenate([e.seconds for e in events]).astype("timedelta64[s]")
    rows = zip(ids, np.datetime_as_string(tca, unit="s"), np.datetime_as_string(created, unit="s"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("event_id,tca,creation_date\n")
        handle.writelines(f"{i},{t}Z,{c}Z\n" for i, t, c in rows)


def read_csv_arrivals(path: str) -> dict[str, np.ndarray]:
    """Arrival times per event id from an ingestion CSV, parsed with numpy."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    col = {name: header.index(name) for name in ("event_id", "tca", "creation_date")}
    ids = np.array([r[col["event_id"]] for r in rows])
    tca = np.array([r[col["tca"]].rstrip("Z") for r in rows], dtype="datetime64[s]")
    created = np.array([r[col["creation_date"]].rstrip("Z") for r in rows], dtype="datetime64[s]")
    times = WINDOW - (tca - created).astype(np.int64) / SECONDS_PER_DAY
    order = np.argsort(ids, kind="stable")
    ids, times = ids[order], times[order]
    names, starts = np.unique(ids, return_index=True)
    return {name: np.sort(chunk) for name, chunk in zip(names, np.split(times, starts[1:]))}


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Workload:
    """Inputs, one round of cadence commands, and the checks on their outputs."""

    name = ""
    pool_rounds = 1  # distinct round inputs; round k uses input k % pool_rounds

    def __init__(self, cli, work: str, seed: int):
        self.cli = cli
        self.work = work
        streams = np.random.SeedSequence(seed).spawn(3)
        self.train_rng, self.test_rng = (np.random.default_rng(s) for s in streams[:2])
        self.program_seed = str(int(streams[2].generate_state(1)[0] % 2**31))

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def cadence(self, *argv):
        argv = [str(a) for a in argv]
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            raise ProgramFailed(f"cadence {' '.join(argv)} exited with {code}")

    def setup(self):
        raise NotImplementedError

    def execute(self, index: int, directory: str):
        """One round: the cadence commands whose wall and CPU time are measured."""
        raise NotImplementedError

    def tally(self, index: int, directory: str) -> tuple[int, int, int]:
        """(events, operations attempted, operations failed) of one round."""
        raise NotImplementedError

    def outputs(self, directory: str) -> list[str]:
        """Files that must be byte-identical for equal inputs."""
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> tuple[list[str], list[str]]:
        """(problems, summary lines) over the distinct inputs of the run."""
        raise NotImplementedError


class PredictionWorkload(Workload):
    """Shared set-up of the two prediction workloads: prior, event pool."""

    beta: tuple = ()
    pool_rounds = POOL_ROUNDS
    per_round = 1
    count: int | None = None

    def setup(self):
        train = make_events(self.beta, TRAIN_EVENTS, self.train_rng, "T")
        self.pool = make_events(self.beta, self.per_round * self.pool_rounds, self.test_rng, "E",
                                count=self.count)
        write_csv(self.path("train.csv"), train)
        for k in range(self.pool_rounds):
            write_csv(self.path(f"data-{k}.csv"), self.round_events(k))
        self.cadence("fit-prior", "--train", self.path("train.csv"), "--out", self.path("prior.json"))

    def round_events(self, index: int) -> list[Event]:
        return self.pool[index * self.per_round:(index + 1) * self.per_round]

    def outputs(self, directory: str) -> list[str]:
        return [os.path.join(directory, "runs.jsonl")]

    def tally(self, index, directory):
        nhpp = [r for r in read_jsonl(os.path.join(directory, "runs.jsonl")) if r["model"] == checks.NHPP]
        return self.per_round, len(nhpp), sum("error" in r for r in nhpp)

    def distinct(self, rounds: list[Round]) -> list[Round]:
        first: dict[int, Round] = {}
        for r in rounds:
            if not r.traced:
                first.setdefault(r.index, r)
        return list(first.values())


class CutoffDense(PredictionWorkload):
    """Fixed 2.5-day cutoff with posterior dumps, then evaluate."""

    name = "cutoff-dense"
    beta = DENSE_BETA
    per_round = 3

    def execute(self, index, directory):
        runs = os.path.join(directory, "runs.jsonl")
        self.cadence("predict", "--data", self.path(f"data-{index}.csv"), "--prior", self.path("prior.json"),
                     "--out", runs, "--dump-posterior", os.path.join(directory, "dump"),
                     "--seed", self.program_seed)
        self.cadence("evaluate", "--runs", runs, "--out", os.path.join(directory, "report.json"))

    def check(self, rounds):
        problems: list[str] = []
        t_c = WINDOW - CUTOFF
        errors = {m: [] for m in checks.MODELS}
        covered = scorable = 0
        for rnd in self.distinct(rounds):
            rows = read_jsonl(os.path.join(rnd.directory, "runs.jsonl"))
            round_errors = {m: [] for m in checks.MODELS}
            for event in self.round_events(rnd.index):
                records = {r["model"]: r for r in rows if r["event_id"] == event.event_id}
                if set(records) != set(checks.MODELS):
                    problems.append(f"{event.event_id}: models {sorted(records)}")
                    continue
                nhpp = records[checks.NHPP]
                if "error" in nhpp:
                    continue  # counted as failed
                arrivals = event.arrivals
                history, future = arrivals[arrivals <= t_c], arrivals[arrivals > t_c]
                actual = future[0] if future.size else None
                expected = checks.baseline_values(history)
                for model, record in records.items():
                    if not checks.close(checks.window_time(WINDOW, record["cutoff_days_to_tca"]), t_c):
                        problems.append(f"{event.event_id} {model}: cutoff {record['cutoff_days_to_tca']}")
                    if not checks.same(checks.window_time(WINDOW, record["actual_days_to_tca"]), actual):
                        problems.append(f"{event.event_id} {model}: actual is not the next input arrival")
                for model in (checks.NAIVE, checks.MEAN):
                    got = checks.window_time(WINDOW, records[model]["predicted_days_to_tca"])
                    if not checks.same(got, expected[model]):
                        problems.append(f"{event.event_id}: {model} {got} != gap formula {expected[model]}")
                draws = np.loadtxt(os.path.join(rnd.directory, "dump", f"{event.event_id}_posterior.csv"),
                                   delimiter=",", skiprows=1, ndmin=2)[:, 2:]
                problems += checks.survival_level_problems(nhpp, draws, t_c, WINDOW, FLOOR)
                median = checks.window_time(WINDOW, nhpp["predicted_days_to_tca"])
                if nhpp["censored"] or actual is None or expected[checks.NAIVE] is None:
                    continue
                lower = checks.window_time(WINDOW, nhpp["upper95"])
                upper = checks.window_time(WINDOW, nhpp["lower95"])
                scorable += 1
                covered += checks.covered(actual, lower, upper)
                values = {checks.NHPP: median, **expected}
                for model in checks.MODELS:
                    round_errors[model].append(actual - values[model])
            with open(os.path.join(rnd.directory, "report.json"), encoding="utf-8") as handle:
                report = json.load(handle)
            if round_errors[checks.NHPP]:
                problems += checks.report_problems(checks.own_scores(round_errors), report)
            for model, values in round_errors.items():
                errors[model] += values
        summary = accuracy_lines(errors, covered, scorable)
        if scorable == 0:
            problems.append("no scorable predictions")
        else:
            lo, hi = checks.coverage_band(scorable)
            if not lo <= covered <= hi:
                problems.append(f"coverage {covered}/{scorable} outside the binomial band [{lo}, {hi}]")
            scores = checks.own_scores(errors)
            mae_nhpp, mae_naive = scores[checks.NHPP]["mae"], scores[checks.NAIVE]["mae"]
            if mae_nhpp > mae_naive:
                problems.append(f"NHPP MAE {mae_nhpp:.4f} exceeds naive MAE {mae_naive:.4f}")
            summary.append(f"coverage band [{lo}, {hi}] of {scorable}")
        return problems, summary


class SequenceSparse(PredictionWorkload):
    """Sequential prediction: one posterior per arrival of sparse events."""

    name = "sequence-sparse"
    beta = SPARSE_BETA
    per_round = 1
    count = 9  # arrivals per event, so every event makes the same number of posteriors

    def execute(self, index, directory):
        self.cadence("predict", "--data", self.path(f"data-{index}.csv"), "--prior", self.path("prior.json"),
                     "--out", os.path.join(directory, "runs.jsonl"), "--sequence",
                     "--seed", self.program_seed)

    def check(self, rounds):
        problems: list[str] = []
        errors = {m: [] for m in checks.MODELS}
        paired_nhpp = []  # NHPP errors where the naive baseline also predicts
        covered = scorable = 0
        for rnd in self.distinct(rounds):
            rows = read_jsonl(os.path.join(rnd.directory, "runs.jsonl"))
            for event in self.round_events(rnd.index):
                records = [r for r in rows if r["event_id"] == event.event_id]
                found, scored = checks.sequence_problems(event.event_id, event.arrivals, records, WINDOW)
                problems += found
                for s in scored:
                    if s["censored"]:
                        continue
                    scorable += 1
                    covered += checks.covered(s["actual"], s["lower"], s["upper"])
                    errors[checks.NHPP].append(s["actual"] - s["median"])
                    if s["naive"] is not None:
                        paired_nhpp.append(s["actual"] - s["median"])
                        errors[checks.NAIVE].append(s["actual"] - s["naive"])
                        errors[checks.MEAN].append(s["actual"] - s["mean"])
        summary = accuracy_lines(errors, covered, scorable)
        if scorable == 0:
            problems.append("no scorable predictions")
        else:
            lo, _ = checks.coverage_band(scorable)
            if covered < lo:
                problems.append(f"coverage {covered}/{scorable} below the binomial lower bound {lo}")
            ok, detail = checks.mae_not_worse(paired_nhpp, errors[checks.NAIVE])
            if not ok:
                problems.append(f"NHPP MAE exceeds naive MAE: {detail}")
            summary.append(f"coverage lower bound {lo} of {scorable}; paired MAE test: {detail}")
        return problems, summary


class TrainBulk(Workload):
    """cadence simulate, then cadence fit-prior on a generated training CSV."""

    name = "train-bulk"
    n_events = 10000

    def setup(self):
        self.train = make_events(BULK_BETA, self.n_events, self.train_rng, "B")
        write_csv(self.path("train.csv"), self.train)

    def execute(self, index, directory):
        self.cadence("simulate", "--n-events", self.n_events, "--beta", ",".join(map(str, BULK_BETA)),
                     "--out", os.path.join(directory, "sim.csv"), "--seed", self.program_seed)
        self.cadence("fit-prior", "--train", self.path("train.csv"), "--out", os.path.join(directory, "prior.json"))

    def tally(self, index, directory):
        events = self.n_events + len(self.train)
        return events, events, 0

    def outputs(self, directory):
        return [os.path.join(directory, "sim.csv"), os.path.join(directory, "prior.json")]

    def check(self, rounds):
        directory = rounds[0].directory
        simulated = read_csv_arrivals(os.path.join(directory, "sim.csv"))
        problems, summary = [], []
        if len(simulated) > self.n_events:
            problems.append(f"{len(simulated)} simulated events for {self.n_events} requested")
        with open(os.path.join(directory, "sim.csv.truth.json"), encoding="utf-8") as handle:
            truth = json.load(handle)
        if truth["n_events_written"] != len(simulated):
            problems.append(f"truth sidecar says {truth['n_events_written']} events, CSV has {len(simulated)}")
        times = np.concatenate(list(simulated.values()))
        if times.min() < 0.0 or times.max() > WINDOW:
            problems.append("simulated arrival outside the window")
        counts = np.zeros(self.n_events)  # events with no arrival are not written
        counts[: len(simulated)] = [len(t) for t in simulated.values()]
        expected = float(refmath.ClampedPolynomials(BULK_BETA, FLOOR).integral(0.0, WINDOW)[0])
        found, line = checks.count_law_problems(counts, expected)
        problems += found
        summary.append(line)
        with open(os.path.join(directory, "prior.json"), encoding="utf-8") as handle:
            prior = json.load(handle)
        found, line = checks.prior_problems(prior, [e.arrivals for e in self.train], WINDOW,
                                            BIN_WIDTH, RIDGE_ALPHA, SIGMA_FLOOR)
        problems += found
        summary.append(line)
        return problems, summary


WORKLOADS = {w.name: w for w in (CutoffDense, SequenceSparse, TrainBulk)}


def accuracy_lines(errors: dict[str, list[float]], covered: int, scorable: int) -> list[str]:
    lines = [f"{model:<6} N={r['n']:<4d} MAE={r['mae']:.4f} d  RMSE={r['rmse']:.4f} d"
             for model, r in checks.own_scores(errors).items() if r["n"]]
    if scorable:
        lines.append(f"nhpp coverage95={covered / scorable:.3f} ({covered}/{scorable}, open upper bound covered)")
    return lines


def timed_round(workload: Workload, k: int, traced: bool) -> Round:
    index = k % workload.pool_rounds
    directory = workload.path(f"round-{k}" + ("-traced" if traced else ""))
    os.makedirs(directory)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    workload.execute(index, directory)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    events, attempted, failed = workload.tally(index, directory)
    return Round(index, directory, traced, wall, cpu, events, attempted, failed)


def run_rounds(workload: Workload, seconds: float, tracer: Tracer | None) -> list[Round]:
    """Whole rounds until the next one would end past ``seconds``.

    At least two rounds run: the process's peak memory grows in the second
    round of train-bulk, so a run cut to one round would read lower.  With
    a tracer, each round is followed by a traced round on the same inputs.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    k = 0
    while True:
        rounds.append(timed_round(workload, k, traced=False))
        if tracer is not None:
            tracer.install()
            try:
                rounds.append(timed_round(workload, k, traced=True))
            finally:
                tracer.uninstall()
        k += 1
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed + elapsed / k > seconds:
            return rounds


def determinism_problems(workload: Workload, rounds: list[Round]) -> list[str]:
    """Rounds on equal inputs, traced or not, write byte-identical outputs."""
    problems, seen = [], {}
    for r in rounds:
        digests = [digest(p) for p in workload.outputs(r.directory)]
        reference = seen.setdefault(r.index, digests)
        if digests != reference:
            problems.append(f"round {r.index}{' (traced)' if r.traced else ''}: outputs differ from an "
                            "earlier round on the same inputs")
    return problems


def directory_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(directory) for f in files)


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict:
    return {
        "events_per_s": {"value": statistics.median(r.events / r.wall for r in rounds), "unit": "events/s"},
        "cpu_s_per_event": {"value": statistics.median(r.cpu / r.events for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced_metrics(rounds: list[Round], tracer: Tracer) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r.traced]
    plain = {r.index: r for r in rounds if not r.traced}
    overhead = statistics.median((r.wall - plain[r.index].wall) / r.events for r in traced)
    return layer_metrics(tracer, sum(r.events for r in traced),
                         sum(directory_bytes(r.directory) for r in traced), overhead)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cadence", "cli.py")):
        print(f"error: no cadence sources under {src}; run from a cadence checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import cadence.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported cadence from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    bench_dir = os.path.join(root, ".perfbench")
    work = os.path.join(bench_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    rounds: list[Round] = []
    try:
        workload = WORKLOADS[args.workload](cli, work, args.seed)
        workload.setup()
        setup_s = seconds_since_process_start()
        rounds = run_rounds(workload, args.seconds, tracer)
        problems, summary = workload.check(rounds)
        problems += determinism_problems(workload, rounds)
        if tracer is None:
            metrics, missing = end_to_end_metrics(rounds, setup_s), []
        else:
            metrics, missing = traced_metrics(rounds, tracer)
            tracer.write(os.path.join(bench_dir, f"trace-{args.workload}.json"))
    except ProgramFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"({sum(r.traced for r in rounds)} traced) blas_threads={BLAS_THREADS} "
          f"round_wall_s={[round(r.wall, 3) for r in rounds]}")
    for line in summary:
        print(line)
    for name in missing:
        print(f"per-layer metric not measured: {name}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
