"""The benchmark's tracer finds every function it wraps in the program."""

import importlib.util
from pathlib import Path

import cadence.cli  # noqa: F401  (loads every cadence module the tracer patches)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    # A renamed or removed function leaves its per-layer metrics unmeasured.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
