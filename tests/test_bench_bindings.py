"""The names bench/tracing.py patches must exist where it patches them.

The tracer swaps entries of module and class dicts in place, so a refactor
that moves or inherits one of them would make `--trace 1` fail or count
nothing; this keeps that visible in the test suite.
"""

import importlib.util
import inspect
from pathlib import Path

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
