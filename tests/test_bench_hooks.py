"""The benchmark's tracer still finds every entry point it wraps.

``bench/tracing.py`` wraps the program's layer entry points by the names
their callers look them up by.  A refactor that moves one of them makes
``install`` fail here, in a fraction of a second.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    patches = tracing.install(tracing.Tracer())
    tracing.uninstall(patches)
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
