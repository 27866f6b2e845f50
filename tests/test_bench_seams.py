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


def test_workloads_law_surface(monkeypatch):
    """The law records, the RunConfig.material() 5-tuple and the stepper
    signature that the benchmark's workloads build on."""
    import numpy as np

    import memax as mx

    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    material, p1, p2 = workloads.interface_law()
    assert (p1.name, p2.name) == ("mod_dl", "dl")
    assert [law.name for law in material.eps_laws()] == ["mod_dl", "dl_sigma"]
    readme = mx.RunConfig.from_dict(workloads.README_CONFIG)
    readme_material, h1, h2, laws, eps_infs = readme.material()
    assert [h1, h2] == [readme_material.law1, readme_material.law2] == laws
    assert eps_infs == [1.0, 1.0]
    ctx = workloads.FixedPoint().setup(1)
    assert ctx["material"] == material and ctx["bundle"].n_state > 0
    bundle4 = readme.bundle()
    stp = mx.OracleStepper(bundle4, material, p1, p2, 1.0 / 64.0,
                           sigma_edges=np.where(bundle4.edge_region_mask(), 0.0, 0.5))
    src = np.random.default_rng(1).standard_normal(bundle4.n_state)
    _, E, H = stp.run(stp.initial_state(), lambda t: src[:bundle4.n_edges],
                      lambda t: src[bundle4.n_edges:], 8)
    assert np.all(np.isfinite(E)) and np.all(np.isfinite(H)) and np.abs(E[-1]).max() > 0
