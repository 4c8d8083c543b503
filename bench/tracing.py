"""Per-layer tracing from outside the program.

A Tracer replaces the public names picard's pipeline calls through (for
example ``picard.search.normalize``, the name ``enumerate_search`` looks
up) with wrappers that record a span (name, start, end, parent) per call
and derive counters from arguments, return values and exceptions. Spans
stay in memory and are written out when the run ends. The residue-field
kernels ``GF.mul``/``pow``/``inv`` are counted, not spanned, and in a block
of their own, because counting them costs as much as the work they do.

Everything a span covers runs in one process, so traced searches use one
worker. Leaving a ``layers()`` or ``kernels()`` block puts the original
functions back.
"""

import functools
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from math import gcd
from time import perf_counter

import picard.clusters
import picard.conductor
import picard.curves
import picard.inertia
import picard.localfield
import picard.search

ROOT_SPAN = "bench.op"


def _scan_hits(counts, args, kwargs, result, error):
    if error is None:
        counts["search.scan_slice.hits"] += len(result)


def _dedup_hits(counts, args, kwargs, result, error):
    if error is None and result is not None:
        counts["curves.equivalent.hits"] += 1


def _wild(counts, args, kwargs, result, error):
    if error is None and not result.tame:
        counts["clusters.splitting_ramification.wild"] += 1


_LIFT_SIG = inspect.signature(picard.localfield.lift_over_ring)


def _lift_growth(counts, args, kwargs, result, error):
    """needs_larger_e per failed e; doublings of N and growth of k per success."""
    if isinstance(error, picard.localfield.NeedsLargerE):
        counts["localfield.lift_over_ring.needs_larger_e"] += 1
    if error is not None:
        return
    bound = _LIFT_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    ord_e = picard.localfield.multiplicative_order(a["p"], a["e"])
    k0 = a["k"] * ord_e // gcd(a["k"], ord_e)
    ring = result.ring
    counts["localfield.lift_over_ring.precision_doublings"] += (
        (ring.N // a["n_digits"]).bit_length() - 1
    )
    if ring.k > k0:
        counts["localfield.lift_over_ring.k_growth"] += 1


# layer name -> (the (module, attribute) bindings the pipeline calls, observer)
LAYERS = {
    "search.scan_slice": ([(picard.search, "scan_slice")], _scan_hits),
    "curves.normalize": (
        [(picard.curves, "normalize"), (picard.search, "normalize"), (picard.conductor, "normalize")],
        None,
    ),
    "exact.discriminant": ([(picard.curves, "discriminant"), (picard.clusters, "discriminant")], None),
    "exact.factor_integer": ([(picard.curves, "factor_integer")], None),
    "curves.equivalent": ([(picard.search, "equivalent")], _dedup_hits),
    "conductor.analyze_prime": (
        [(picard.search, "analyze_prime"), (picard.conductor, "analyze_prime")],
        None,
    ),
    "clusters.splitting_ramification": (
        [(picard.conductor, "splitting_ramification"), (picard.clusters, "splitting_ramification")],
        _wild,
    ),
    "localfield.lift_over_ring": ([(picard.localfield, "lift_over_ring")], _lift_growth),
    "inertia.relift": ([(picard.inertia, "lift_over_ring")], None),
    "clusters.inertia_permutation": (
        [(picard.clusters, "inertia_permutation"), (picard.inertia, "inertia_permutation")],
        None,
    ),
    "clusters.cluster_tree": ([(picard.inertia, "cluster_tree")], None),
    "cover.cover_fiber": ([(picard.inertia, "cover_fiber")], None),
    "inertia.inertia_quotient": ([(picard.inertia, "inertia_quotient")], None),
    "wild3.verify_witness": ([(picard.conductor, "verify_witness")], None),
}

GF_KERNELS = ("mul", "pow", "inv")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, observe=None):
        spans, stack, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                span[2] = perf_counter()
                stack.pop()
                if observe:
                    observe(counts, args, kwargs, None, ex)
                raise
            span[2] = perf_counter()
            stack.pop()
            if observe:
                observe(counts, args, kwargs, result, None)
            return result

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def _patched(self, replacements):
        """Set each (owner, attr) to its replacement for the block."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
        try:
            for owner, attr, replacement in replacements:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def layers(self):
        """Block in which every layer binding records spans."""
        return self._patched([
            (module, attr, self.wrap(name, getattr(module, attr), observe))
            for name, (bindings, observe) in LAYERS.items()
            for module, attr in bindings
        ])

    def kernels(self):
        """Block in which the GF kernels are counted."""
        gf = picard.localfield.GF
        return self._patched([
            (gf, kernel, self._counted(f"localfield.gf.{kernel}.calls", gf.__dict__[kernel]))
            for kernel in GF_KERNELS
        ])

    def layer_metrics(self):
        """{metric: value}: self_s and calls per layer plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        out = {}
        for name in (ROOT_SPAN, *LAYERS):
            out[f"{name}.self_s"] = float(self_s[name])
            out[f"{name}.calls"] = calls[name]
        for kernel in GF_KERNELS:
            key = f"localfield.gf.{kernel}.calls"
            out[key] = self.counts[key]
        for key in (
            "search.scan_slice.hits",
            "curves.equivalent.hits",
            "clusters.splitting_ramification.wild",
            "localfield.lift_over_ring.needs_larger_e",
            "localfield.lift_over_ring.precision_doublings",
            "localfield.lift_over_ring.k_growth",
        ):
            out[key] = self.counts[key]
        dedup = calls["curves.equivalent"]
        out["curves.equivalent.hit_ratio"] = out["curves.equivalent.hits"] / dedup if dedup else 0.0
        lifts = calls["localfield.lift_over_ring"]
        useful = lifts - out["localfield.lift_over_ring.needs_larger_e"]
        out["localfield.lift_over_ring.useful_ratio"] = useful / lifts if lifts else 0.0
        return out

    def dump(self, path):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )
