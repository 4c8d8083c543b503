"""The names bench/tracing.py patches must exist where it patches them.

The tracer swaps entries of module and class dicts in place, so a refactor
that moves or inherits one of them would make `--trace 1` fail or count
nothing; this keeps that visible in the test suite.
"""

import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import picard.clusters
import picard.localfield

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_binding_exists():
    tracing = _load_tracing()
    assert tracing.LAYERS
    for layer, (bindings, _) in tracing.LAYERS.items():
        for module, attr in bindings:
            assert attr in module.__dict__, (layer, module.__name__, attr)
            assert callable(module.__dict__[attr]), (layer, attr)


def test_gf_kernels_are_bound_on_gf_itself():
    tracing = _load_tracing()
    assert tracing.GF_KERNELS
    for kernel in tracing.GF_KERNELS:
        assert kernel in picard.localfield.GF.__dict__, kernel


def test_lift_over_ring_keeps_the_parameters_the_tracer_binds():
    # the tracer binds lift_over_ring's arguments by name (inspect.signature)
    # to count the doublings of N from n_digits and the growth of k
    params = inspect.signature(picard.localfield.lift_over_ring).parameters
    assert {"p", "e", "k", "n_digits"} <= set(params)


def test_results_keep_the_attributes_the_tracer_reads():
    # the observers read Ramification.tame, and the ring, N and k of a split
    tracing = _load_tracing()
    f = [-41, 72, 14, 0, 1]
    ram = picard.clusters.splitting_ramification(tuple(f), 5)
    assert ram.tame is True
    sr = picard.localfield.lift_over_ring(f, 5, 1)
    assert (sr.ring.N, sr.ring.k) == (20, 2)  # x^2 + 4x + 1 is irreducible mod 5
    counts = Counter()
    tracing.LAYERS["clusters.splitting_ramification"][1](counts, (), {}, ram, None)
    tracing.LAYERS["localfield.lift_over_ring"][1](counts, (f, 5, 1), {}, sr, None)
    assert counts == Counter({"localfield.lift_over_ring.k_growth": 1})
