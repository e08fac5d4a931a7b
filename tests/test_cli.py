"""CLI subcommands: files in, files out, exit codes, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cadence
import cadence.cli
from cadence.cli import RunConfig, _dump_posterior_csv, main
from cadence.evaluation import score_runs
from cadence.inference import PosteriorSamples, SamplerConfig
from cadence.ingest import assemble_events, cutoff_time, parse_csv
from cadence.point_process import run_starts
from cadence.prediction import runs_at_cutoff
from cadence.priors import GaussianPrior
from support import fixed_cutoff_runs

FAST = ["--chains", "2", "--draws", "200"]
FLOAT_FLAGS = {"window_days": "--window-days", "cutoff_days_before_tca": "--cutoff",
               "alpha": "--alpha", "bin_width": "--bin-width"}


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_expected_count(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--n-events", "200", "--beta", "2,0,0,0",
                       "--out", str(out), "--seed", "1") == 0
        events = assemble_events(parse_csv(out.read_bytes()), 7.0)
        mean_count = np.mean([len(e.arrivals) for e in events])
        assert mean_count == pytest.approx(14.0, abs=1.0)
        truth = json.loads((tmp_path / "sim.csv.truth.json").read_text())
        assert truth["beta"] == [2.0, 0.0, 0.0, 0.0]
        assert truth["clamp_floor"] == 1e-6

    def test_zero_events_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run_cli("simulate", "--n-events", "0", "--beta", "1,0",
                       "--out", str(out)) == 0
        assert out.read_text() == "event_id,tca,creation_date\n"

    @pytest.mark.parametrize("n_events, beta", [("3", "nan,1"), ("3", "1,x"), ("3", ""),
                                                ("-4", "1,0")],
                             ids=["non-finite-beta", "non-numeric-beta", "empty-beta",
                                  "negative-n-events"])
    def test_bad_argument_is_usage_error(self, tmp_path, n_events, beta):
        # Rejected before the CSV or its sidecar is written.
        with pytest.raises(SystemExit) as err:
            run_cli("simulate", "--n-events", n_events, "--beta", beta,
                    "--out", str(tmp_path / "sim.csv"))
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli("simulate", "--n-events", "20", "--beta", "1.5,0.2",
                    "--out", str(out), "--seed", "9")
        assert a.read_bytes() == b.read_bytes()


    def test_write_leaves_other_temp_files_alone(self, tmp_path):
        # A concurrent run's temp file must survive this run's write.
        out = tmp_path / "sim.csv"
        stray = tmp_path / "sim.csv.tmp"
        stray.write_text("another run")
        assert run_cli("simulate", "--n-events", "3", "--beta", "2,0",
                       "--out", str(out), "--seed", "1") == 0
        assert stray.read_text() == "another run"
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sim.csv", "sim.csv.tmp", "sim.csv.truth.json"]


class TestFitPrior:
    def simulate(self, tmp_path, n, beta="1.2,0.25,-0.02,0.001", seed="3"):
        data = tmp_path / "train.csv"
        run_cli("simulate", "--n-events", str(n), "--beta", beta,
                "--out", str(data), "--seed", seed)
        return data

    def test_recovers_dominant_coefficients(self, tmp_path):
        # Small alpha: the default shrinkage is visible at single-event count
        # magnitudes and would bias the pooled means.
        data = self.simulate(tmp_path, 400, beta="3.0,0.8")
        out = tmp_path / "prior.json"
        assert run_cli("fit-prior", "--train", str(data), "--out", str(out),
                       "--alpha", "0.01", "--degree", "1") == 0
        prior = GaussianPrior.from_json(out.read_text())
        assert prior.mu[0] == pytest.approx(3.0, rel=0.10)
        assert prior.mu[1] == pytest.approx(0.8, rel=0.10)

    def test_single_event_sigma_floored(self, tmp_path):
        data = self.simulate(tmp_path, 1)
        out = tmp_path / "prior.json"
        run_cli("fit-prior", "--train", str(data), "--out", str(out))
        prior = GaussianPrior.from_json(out.read_text())
        assert all(s == pytest.approx(1e-3) for s in prior.sigma)

    def test_failed_ridge_solve_is_one_line_error(self, tmp_path, capsys):
        # Unpenalized degree 13 on 14 bins: the normal equations are numerically
        # singular, and the solve is rejected instead of written.
        data = self.simulate(tmp_path, 30)
        out = tmp_path / "prior.json"
        capsys.readouterr()
        assert run_cli("fit-prior", "--train", str(data), "--out", str(out),
                       "--alpha", "0", "--degree", "13") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n, beta, seed", [(200, "6,0.5,-0.05,0.002", "5"),
                                               (30, "1.2,0.25,-0.02,0.001", "3")])
    def test_ill_conditioned_fit_is_one_line_error(self, tmp_path, capsys, n, beta, seed):
        # Unpenalized degree 9 on 14 bins: condition number 9.8e19, which the
        # solve's residual alone does not reveal.
        data = self.simulate(tmp_path, n, beta=beta, seed=seed)
        out = tmp_path / "prior.json"
        capsys.readouterr()
        assert run_cli("fit-prior", "--train", str(data), "--out", str(out),
                       "--alpha", "0", "--degree", "9") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ill-conditioned") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_csv_fails(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("event_id,tca,creation_date\n")
        assert run_cli("fit-prior", "--train", str(data),
                       "--out", str(tmp_path / "p.json")) == 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> fit-prior -> predict -> evaluate with small settings."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data.csv"
    prior = root / "prior.json"
    runs = root / "runs.jsonl"
    report = root / "report.json"
    run_cli("simulate", "--n-events", "30", "--beta", "1.2,0.25,-0.02,0.001",
            "--out", str(data), "--seed", "17")
    run_cli("fit-prior", "--train", str(data), "--out", str(prior))
    assert run_cli("predict", "--data", str(data), "--prior", str(prior),
                   "--out", str(runs), *FAST, "--seed", "17") == 0
    assert run_cli("evaluate", "--runs", str(runs), "--out", str(report)) == 0
    return root


class TestPredictAndEvaluate:
    def test_jsonl_schema(self, pipeline):
        rows = [json.loads(line) for line in (pipeline / "runs.jsonl").read_text().splitlines()]
        assert rows
        models = {r["model"] for r in rows}
        assert models == {"nhpp", "naive", "mean"}
        for row in rows:
            assert {"event_id", "model", "cutoff_days_to_tca", "predicted_days_to_tca",
                    "lower95", "upper95", "censored", "actual_days_to_tca"} <= row.keys()
        nhpp = [r for r in rows if r["model"] == "nhpp" and not r["censored"]
                and "error" not in r]
        for row in nhpp:
            if row["lower95"] is not None and row["upper95"] is not None:
                assert row["lower95"] <= row["upper95"]

    def test_report_contents(self, pipeline):
        report = json.loads((pipeline / "report.json").read_text())
        assert [entry["model"] for entry in report] == ["nhpp", "naive", "mean"]
        for entry in report:
            assert entry["mae"] <= entry["rmse"] + 1e-12

    def test_missing_prior_file(self, pipeline):
        code = run_cli("predict", "--data", str(pipeline / "data.csv"),
                       "--prior", str(pipeline / "nope.json"),
                       "--out", str(pipeline / "x.jsonl"), *FAST)
        assert code == 1

    @pytest.mark.parametrize("text, field", [
        ('{"degree": 1, "sigma": [1.0, 1.0]}', "mu"),
        ("[1, 2]", "JSON object"),
        ('{"degree": 1, "mu": [1.0, 0.0], "sigma": 1.0}', "sigma"),
        ('{"degree": 1.5, "mu": [1.0, 0.0], "sigma": [1.0, 1.0]}', "degree"),
        ('{"degree": -1, "mu": [], "sigma": []}', "coefficient"),
    ], ids=["missing-mu", "list", "scalar-sigma", "non-integer-degree", "no-coefficients"])
    def test_malformed_prior_is_one_line_error(self, pipeline, tmp_path, capsys, text, field):
        prior = tmp_path / "prior.json"
        prior.write_text(text)
        out = tmp_path / "runs.jsonl"
        assert run_cli("predict", "--data", str(pipeline / "data.csv"), "--prior", str(prior),
                       "--out", str(out), *FAST) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(prior) in err and field in err
        assert not out.exists()

    def test_insufficient_history_reported_inline(self, tmp_path):
        data = tmp_path / "thin.csv"
        # One CDM, 1 day before TCA: after the cutoff, so no usable history.
        data.write_text(
            "event_id,tca,creation_date\n"
            "E1,2030-01-10T00:00:00Z,2030-01-09T00:00:00Z\n"
        )
        prior_path = tmp_path / "prior.json"
        prior_path.write_text(GaussianPrior((1.0, 0.0), (0.5, 0.1)).to_json())
        out = tmp_path / "runs.jsonl"
        assert run_cli("predict", "--data", str(data), "--prior", str(prior_path),
                       "--out", str(out), *FAST) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("error" in r for r in rows)

    def test_record_does_not_depend_on_event_order(self, pipeline, tmp_path):
        # Each posterior seeds from the event id and the cutoff, not from
        # its place in the file.
        lines = (pipeline / "data.csv").read_text().splitlines()
        first, second = sorted({line.split(",")[0] for line in lines[1:]})[:2]
        outputs = []
        for order in ((first, second), (second, first)):
            data = tmp_path / f"{order[0]}-first.csv"
            data.write_text("\n".join([lines[0]] + [l for e in order for l in lines[1:]
                                                      if l.split(",")[0] == e]) + "\n")
            runs = tmp_path / f"{order[0]}-first.jsonl"
            assert run_cli("predict", "--data", str(data), "--prior", str(pipeline / "prior.json"),
                           "--out", str(runs), *FAST, "--seed", "17") == 0
            outputs.append(sorted(runs.read_text().splitlines()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 6

    def test_sequence_with_dump_posterior_is_usage_error(self, pipeline, tmp_path):
        dump = tmp_path / "dump"
        with pytest.raises(SystemExit) as err:
            run_cli("predict", "--data", str(pipeline / "data.csv"),
                    "--prior", str(pipeline / "prior.json"), "--out", str(tmp_path / "x.jsonl"),
                    "--sequence", "--dump-posterior", str(dump), *FAST)
        assert err.value.code == 2
        assert not dump.exists()


def posterior_csv_oracle(draws):
    """The posterior dump of (chains, draws, dim) draws, each row formatted with repr."""
    lines = ["chain,draw," + ",".join(f"beta{j}" for j in range(draws.shape[2]))]
    for c, chain in enumerate(draws):
        for d, row in enumerate(chain):
            lines.append(f"{c},{d}," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def events_csv(pipeline, tmp_path, renamed):
    """The pipeline's CSV cut to the events that ``renamed`` maps, each under its new id."""
    header, *lines = (pipeline / "data.csv").read_text().splitlines()
    kept = [(renamed[line.split(",", 1)[0]], line.split(",", 1)[1]) for line in lines
            if line.split(",", 1)[0] in renamed]
    data = tmp_path / "data.csv"
    data.write_text("\n".join([header] + [f"{i},{rest}" for i, rest in kept]) + "\n")
    return data


class TestPosteriorDump:
    def test_synthetic_draws_match_repr_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        distinct = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-300, 300, (12, 3))
        zeros = np.array([[0.0, 1.0, 5e-324], [-0.0, 1.0, 5e-324], [-0.0, 1.0, 5e-324],
                          [0.0, -0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -0.0]])
        runs = distinct[np.sort(rng.integers(0, 12, 30))]  # runs of repeated rows
        draws = np.stack([
            runs,
            np.repeat(runs[-1:], 30, axis=0),  # one distinct row, the one the chain before ends on
            np.vstack([zeros, zeros[::-1], distinct[rng.integers(0, 12, 18)]]),
        ])
        assert run_starts(draws).sum() < 60
        samples = PosteriorSamples(draws=draws, acceptance=(0.5,) * 3, r_hat=(1.0,) * 3,
                                   ess=(1.0,) * 3)
        _dump_posterior_csv(str(tmp_path), "E1", samples)
        text = (tmp_path / "E1_posterior.csv").read_text()
        assert text == posterior_csv_oracle(draws)
        assert "2,1,-0.0,1.0,5e-324\n" in text and "2,3,0.0,-0.0,0.0\n" in text

    def test_cli_dump_matches_repr_oracle(self, pipeline, tmp_path):
        _, *lines = (pipeline / "data.csv").read_text().splitlines()
        ids = sorted({line.split(",", 1)[0] for line in lines})[:3]
        data = events_csv(pipeline, tmp_path, {i: i for i in ids})
        dump = tmp_path / "dump"
        assert run_cli("predict", "--data", str(data), "--prior", str(pipeline / "prior.json"),
                       "--out", str(tmp_path / "runs.jsonl"), "--dump-posterior", str(dump),
                       *FAST, "--seed", "17") == 0
        prior = GaussianPrior.from_json((pipeline / "prior.json").read_text())
        sampler = RunConfig(chains=2, draws=200, seed=17).sampler()
        events = assemble_events(parse_csv(data.read_bytes()), 7.0)
        assert sorted(os.listdir(dump)) == [f"{i}_posterior.csv" for i in ids]
        for event in events:
            _, samples = runs_at_cutoff(event, prior, cutoff_time(event, 2.5), sampler)
            assert run_starts(samples.draws).mean() < 0.95  # rejections repeat draws
            text = (dump / f"{event.event_id}_posterior.csv").read_text()
            assert text == posterior_csv_oracle(samples.draws)

    @pytest.mark.parametrize("bad_id", ["A/B", "../x", ".", "..", "A\x00B"])
    def test_bad_event_id_fails_before_sampling(self, pipeline, tmp_path, capsys, monkeypatch,
                                                bad_id):
        # A good event comes first: nothing is sampled, dumped or written.
        _, *lines = (pipeline / "data.csv").read_text().splitlines()
        good, other = sorted({line.split(",", 1)[0] for line in lines})[:2]
        data = events_csv(pipeline, tmp_path, {good: "AAA", other: bad_id})

        def no_sampling(*args):
            raise AssertionError("sampled before checking the event ids")

        monkeypatch.setattr(cadence.cli, "runs_at_cutoff", no_sampling)
        dump, out = tmp_path / "work" / "dump", tmp_path / "work" / "runs.jsonl"
        assert run_cli("predict", "--data", str(data), "--prior", str(pipeline / "prior.json"),
                       "--out", str(out), "--dump-posterior", str(dump), *FAST) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(bad_id) in err
        assert not (tmp_path / "work").exists()
        assert sorted(os.listdir(tmp_path)) == ["data.csv"]


def record(event_id, model, predicted, actual, cutoff=2.5, **extra):
    """One prediction JSON line in days-to-TCA coordinates."""
    row = {"event_id": event_id, "model": model, "cutoff_days_to_tca": cutoff,
           "predicted_days_to_tca": predicted, "lower95": None, "upper95": None,
           "censored": False, "actual_days_to_tca": actual}
    row.update(extra)
    return row


def evaluate_rows(tmp_path, rows):
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "report.json"
    assert run_cli("evaluate", "--runs", str(runs), "--out", str(out)) == 0
    return {entry["model"]: entry for entry in json.loads(out.read_text())}


class TestEvaluateScoring:
    def test_open_upper_bound_counts_covered(self, tmp_path):
        # The 0.025 survival quantile lies past the TCA, so lower95 (the
        # later time) is absent; the actual is after the earlier bound.
        rows = [
            record("E1", "nhpp", 1.5, 1.0, lower95=None, upper95=2.3),
            record("E1", "naive", 1.8, 1.0),
            record("E1", "mean", 1.6, 1.0),
        ]
        report = evaluate_rows(tmp_path, rows)
        assert report["nhpp"]["n"] == 1
        assert report["nhpp"]["coverage95"] == 1.0

    def test_baseline_error_counted_skipped(self, tmp_path):
        rows = [
            record("E1", "nhpp", 1.5, 1.0, upper95=2.3),
            record("E1", "naive", 1.8, 1.0),
            record("E1", "mean", 1.6, 1.0),
            record("E2", "nhpp", 1.5, 1.0, upper95=2.3),
            record("E2", "naive", None, 1.0, error="naive baseline needs at least 2 arrivals"),
            record("E2", "mean", None, 1.0, error="mean baseline needs at least 2 arrivals"),
        ]
        report = evaluate_rows(tmp_path, rows)
        for entry in report.values():
            assert (entry["n"], entry["censored_count"], entry["skipped_count"]) == (1, 0, 1)

    def test_truncated_record_is_runtime_error(self, tmp_path, capsys):
        rows = [record("E1", "nhpp", 1.5, 1.0, upper95=2.3), record("E1", "naive", 1.8, 1.0)]
        del rows[1]["actual_days_to_tca"]
        runs = tmp_path / "runs.jsonl"
        runs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--runs", str(runs), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "malformed prediction record 2" in err and "actual_days_to_tca" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("predicted_days_to_tca", "x"),
                                              ("cutoff_days_to_tca", True), ("censored", "no")])
    def test_wrong_type_names_the_field(self, tmp_path, capsys, field, value):
        rows = [record("E1", "nhpp", 1.5, 1.0, upper95=2.3), record("E1", "naive", 1.8, 1.0),
                record("E1", "mean", 1.6, 1.0)]
        rows[0][field] = value
        runs = tmp_path / "runs.jsonl"
        runs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--runs", str(runs), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "malformed prediction record 1" in err and field in err and repr(value) in err
        assert not out.exists()

    def test_null_error_is_no_error(self, tmp_path):
        rows = [record("E1", "nhpp", 1.5, 1.0, upper95=2.3, error=None),
                record("E1", "naive", 1.8, 1.0, error=None), record("E1", "mean", 1.6, 1.0)]
        report = evaluate_rows(tmp_path, rows)
        for entry in report.values():
            assert (entry["n"], entry["skipped_count"]) == (1, 0)
        assert report["nhpp"]["coverage95"] == 1.0

    def test_sequence_output_scores_every_cutoff(self, pipeline, tmp_path):
        runs = tmp_path / "seq.jsonl"
        data = tmp_path / "three.csv"
        lines = (pipeline / "data.csv").read_text().splitlines()
        ids = sorted({line.split(",")[0] for line in lines[1:]})[:3]
        data.write_text("\n".join([lines[0]] + [l for l in lines[1:] if l.split(",")[0] in ids]) + "\n")
        assert run_cli("predict", "--data", str(data), "--prior", str(pipeline / "prior.json"),
                       "--out", str(runs), "--sequence", *FAST) == 0
        groups = {}
        for line in runs.read_text().splitlines():
            row = json.loads(line)
            groups.setdefault((row["event_id"], row["cutoff_days_to_tca"]), []).append(row)
        scorable = [
            g for g in groups.values()
            if len(g) == 3 and not any("error" in r for r in g)
            and not any(r["censored"] for r in g) and g[0]["actual_days_to_tca"] is not None
        ]
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--runs", str(runs), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert len(scorable) > len(ids)
        for entry in report:
            assert entry["n"] == len(scorable)
            assert entry["n"] + entry["censored_count"] + entry["skipped_count"] == len(groups)

    def test_library_and_cli_tables_agree(self, pipeline):
        events = assemble_events(parse_csv((pipeline / "data.csv").read_bytes()), 7.0)
        prior = GaussianPrior.from_json((pipeline / "prior.json").read_text())
        sampler = SamplerConfig(chains=2, draws=200, seed=17)
        library = score_runs(fixed_cutoff_runs(events, prior, 2.5, sampler))
        cli = json.loads((pipeline / "report.json").read_text())
        assert [entry["model"] for entry in cli] == [r.model for r in library]
        for mine, theirs in zip(library, cli):
            assert theirs["n"] == mine.n
            assert theirs["mae"] == pytest.approx(mine.mae, rel=0, abs=1e-12)
            assert theirs["rmse"] == pytest.approx(mine.rmse, rel=0, abs=1e-12)
            assert theirs["coverage95"] == mine.coverage95
            assert theirs["censored_count"] == mine.censored_count
            assert theirs["skipped_count"] == mine.skipped_count


class TestPlotData:
    def test_sequence_counting_contract(self, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text(
            "event_id,tca,creation_date\n"
            "E1,2030-01-10T00:00:00Z,2030-01-04T00:00:00Z\n"
            "E1,2030-01-10T00:00:00Z,2030-01-05T12:00:00Z\n"
            "E1,2030-01-10T00:00:00Z,2030-01-07T00:00:00Z\n"
        )
        prior_path = tmp_path / "prior.json"
        prior_path.write_text(
            GaussianPrior((1.0, 0.0, 0.0, 0.0), (0.5, 0.1, 0.05, 0.01)).to_json()
        )
        runs = tmp_path / "seq.jsonl"
        assert run_cli("predict", "--data", str(data), "--prior", str(prior_path),
                       "--out", str(runs), "--sequence", *FAST) == 0
        out = tmp_path / "plot.csv"
        assert run_cli("plot-data", "--runs", str(runs), "--event-id", "E1",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,t_days_to_tca,value,model"
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds.count("arrival") == 3
        nhpp_rows = [line for line in lines[1:] if line.endswith(",nhpp")]
        predictions = [l for l in nhpp_rows if l.startswith("prediction,")]
        bounds = [l for l in nhpp_rows if l.startswith("bound,")]
        assert len(predictions) == 2
        assert len(bounds) <= 4  # bounds beyond the horizon are absent

    def test_unknown_event(self, pipeline):
        assert run_cli("plot-data", "--runs", str(pipeline / "runs.jsonl"),
                       "--event-id", "NOPE", "--out", str(pipeline / "p.csv")) == 1

    def test_empty_runs_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("plot-data", "--runs", str(empty), "--event-id", "E1",
                       "--out", str(tmp_path / "p.csv")) == 1

    def test_truncated_record_is_runtime_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        runs.write_text(json.dumps({"event_id": "E1", "model": "nhpp"}) + "\n")
        out = tmp_path / "p.csv"
        assert run_cli("plot-data", "--runs", str(runs), "--event-id", "E1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "malformed prediction record 1" in err and "cutoff_days_to_tca" in err
        assert not out.exists()

    def test_null_cutoff_is_runtime_error(self, tmp_path, capsys):
        rows = [record("E1", "naive", 1.8, 1.0, cutoff=None)] * 2
        runs = tmp_path / "runs.jsonl"
        runs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "p.csv"
        assert run_cli("plot-data", "--runs", str(runs), "--event-id", "E1",
                       "--out", str(out)) == 1
        assert "malformed prediction record 1" in capsys.readouterr().err
        assert not out.exists()


class TestConfigResolution:
    def test_env_seed_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CADENCE_SEED", "77")
        a = tmp_path / "a.csv"
        run_cli("simulate", "--n-events", "5", "--beta", "2,0", "--out", str(a))
        monkeypatch.delenv("CADENCE_SEED")
        b = tmp_path / "b.csv"
        run_cli("simulate", "--n-events", "5", "--beta", "2,0", "--out", str(b),
                "--seed", "77")
        assert a.read_bytes() == b.read_bytes()

    def test_flag_wins_over_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "window_days": 7.0}))
        a = tmp_path / "a.csv"
        run_cli("simulate", "--n-events", "5", "--beta", "2,0", "--out", str(a),
                "--config", str(config), "--seed", "2")
        b = tmp_path / "b.csv"
        run_cli("simulate", "--n-events", "5", "--beta", "2,0", "--out", str(b),
                "--seed", "2")
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("simulate", "--n-events", "1", "--beta", "1,0",
                    "--out", str(tmp_path / "x.csv"), "--cutoff", "9.0")
        assert err.value.code == 2

    @pytest.mark.parametrize("flag", [("--chains", "1"), ("--cutoff", "0"),
                                      ("--alpha", "inf"), ("--draws", "0"),
                                      ("--chains", "2", "--draws", "10"),
                                      ("--chains", "50", "--draws", "2")]
                             + [(FLOAT_FLAGS[f.name], value) for f in fields(RunConfig)
                                if f.type == "float" for value in ("nan", "inf")])
    def test_bad_setting_is_usage_error(self, tmp_path, flag):
        # Rejected before any file is read or written; every float setting
        # has a flag, and a non-finite value is rejected.
        with pytest.raises(SystemExit) as err:
            run_cli("predict", "--data", str(tmp_path / "data.csv"),
                    "--prior", str(tmp_path / "prior.json"),
                    "--out", str(tmp_path / "runs.jsonl"), *flag)
        assert err.value.code == 2
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize("settings", [{"chains": "2"}, {"chain": 4}, {"draws": True},
                                          {"degree": 3.0}, [1, 2]])
    def test_config_file_key_or_type_is_usage_error(self, tmp_path, settings):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        with pytest.raises(SystemExit) as err:
            run_cli("simulate", "--n-events", "1", "--beta", "1,0",
                    "--out", str(tmp_path / "x.csv"), "--config", str(config))
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_int_is_a_float(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window_days": 7, "alpha": 1}))
        assert run_cli("simulate", "--n-events", "1", "--beta", "1,0",
                       "--out", str(tmp_path / "x.csv"), "--config", str(config)) == 0

    def test_warmup_is_a_usage_error(self, tmp_path):
        # Retired settings, as flags and as config keys: warmup, and the two
        # numerical floors, which are now constants.
        config = tmp_path / "config.json"
        for key, value in {"warmup": 1000, "clamp_floor": 1e-6, "sigma_floor": 1e-3}.items():
            config.write_text(json.dumps({key: value}))
            for flag in (["--" + key.replace("_", "-"), str(value)], ["--config", str(config)]):
                with pytest.raises(SystemExit) as err:
                    run_cli("simulate", "--n-events", "1", "--beta", "1,0",
                            "--out", str(tmp_path / "x.csv"), *flag)
                assert err.value.code == 2
                assert not (tmp_path / "x.csv").exists()

    def test_help_available(self, capsys):
        for command in ("simulate", "fit-prior", "predict", "evaluate", "plot-data"):
            with pytest.raises(SystemExit) as err:
                run_cli(command, "--help")
            assert err.value.code == 0
            assert "usage" in capsys.readouterr().out


def test_cli_import_loads_no_scipy_module():
    # The runtime needs numpy only; importing scipy would add to start-up time.
    src = Path(cadence.__file__).resolve().parents[1]
    code = ("import sys, cadence, cadence.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "[]"
