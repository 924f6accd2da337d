"""The benchmark's tracer still finds every name it wraps.

bench/tracing.py names the public functions of each layer; a rename or a
deletion in the library would otherwise only show when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import starprod

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_layer():
    original = starprod.wick.star
    tracer = load_tracing().Tracer(starprod)
    try:
        tracer.install()
        assert starprod.wick.star is not original
    finally:
        tracer.restore()
    assert starprod.wick.star is original
