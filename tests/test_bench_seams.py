"""The benchmark's tracer patches memax names from outside; a rename inside
memax must fail here, not only in a traced benchmark run."""

import importlib
from pathlib import Path

import memax.spectral as spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    splu = spectral.splu
    tracer = tracing.Tracer()
    try:
        tracer.install()   # KeyError or AttributeError on a missing name
        assert spectral.splu.__wrapped__ is splu
        assert len(tracer._restore) > len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    assert spectral.splu is splu
