"""The benchmark's tracer finds every function it wraps and measures thinning per event."""

import importlib.util
from pathlib import Path

import cadence.cli  # loads every cadence module the tracer patches
import cadence.point_process

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_traced_name_exists():
    # A renamed or removed function leaves its per-layer metrics unmeasured.
    tracer = load_tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_thinning_metric_sees_one_bound_per_event(tmp_path):
    # thinning_accept_ratio adds lambda_max * width per bound call: it reads
    # as an acceptance ratio only if each simulated event computes its own bound.
    originals = (cadence.cli.simulate_thinning, cadence.point_process.thinning_rate_bound)
    tracer = load_tracer()
    tracer.install()
    try:
        code = cadence.cli.main(["simulate", "--n-events", "200", "--beta", "2,-1.2,0,0.04",
                                 "--seed", "1", "--out", str(tmp_path / "events.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    simulated = names.count("point_process.simulate_thinning")
    assert simulated == 200
    assert names.count("point_process.thinning_rate_bound") == simulated
    ratio = tracer.counts["thinning_accepted"] / tracer.counts["thinning_expected_candidates"]
    assert 0.0 < ratio <= 1.0
    assert (cadence.cli.simulate_thinning, cadence.point_process.thinning_rate_bound) == originals
