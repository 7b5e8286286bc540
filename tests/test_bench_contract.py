"""What the benchmark's tracer (``bench/tracer.py``) reads from the package.

The tracer patches module-level functions by name and binds its counters'
arguments by name, so a renamed function or argument breaks the benchmark
without breaking any run.  These tests catch that in the Tier-1 suite.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from boxmem import ensemble, lightshift, pipeline, spinwave
from boxmem.ensemble import AtomEnsemble, sample_thermal_ensemble
from boxmem.geometry import RingPotential, TrapGeometry

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_patch_points_resolve(tracer):
    for module, attr, _ in tracer.PATCH_POINTS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


def test_counters_bind_their_arguments(tracer):
    assert isinstance(inspect.getattr_static(AtomEnsemble, "alive"), property)
    ens = sample_thermal_ensemble(10, TrapGeometry(), 15e-6)
    bound = inspect.signature(ensemble.propagate).bind(
        ensemble=ens, t_start=0.0, t_end=2e-5, dt=5e-6)
    assert tracer._propagate_counts(bound) == {
        "atom_steps": 40, "atom_ms": pytest.approx(10 * 2e-2)}

    bound = inspect.signature(spinwave.density_estimate).bind(
        np.ones(10), positions_xy=ens.positions[:, :2], extent=1e-4,
        resolution=8, bandwidth=1e-5)
    assert tracer._kde_counts(bound) == {"points": 10}


def test_traced_calls_reach_every_layer(tracer):
    # called through their modules, as the benchmark's workloads call them
    cfg = pipeline.preset("centered", atoms=200, times=np.array([0.0, 4e-4]))
    soft = TrapGeometry(ring=RingPotential())
    cloud = sample_thermal_ensemble(50, soft, 15e-6)
    with tracer.Tracer() as t:
        pipeline.run_scenario(cfg)
        lightshift.simulate_coherence(lightshift.ShiftField(soft.ring), soft,
                                      cloud, t_max=4e-5)
    metrics = tracer.layer_metrics(t.spans, wall_s=1.0)
    assert metrics["ensemble.propagate_calls"] == 1 + 2
    assert metrics["spinwave.kde_calls"] == 2
    assert metrics["spinwave.kde_points"] == 2 * 200
    assert metrics["lightshift.coherence_calls"] == 1
    assert metrics["geometry.force_calls"] > 0
    assert t.atom_ms() == pytest.approx(200 * 0.4 + 50 * 0.04)
