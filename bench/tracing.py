"""Span tracing of meanbound from outside the program.

Each public function on a layer boundary is rebound, in the namespace of
the module that calls it, to a wrapper that records a span; `Tracer.restore`
binds every original again.  A span is (name, start, end, parent, request):
the name starts with its layer (`rng`, `scalar`, `harness`, `matrices`,
`operators`, `reporting`, `cli`), parent is the index of the span that was
open when it started (-1 for none), and request is the trial or check index
it belongs to.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._open: list = []
        self._bound: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        spans, open_ = self.spans, self._open
        index = len(spans)
        spans.append(None)
        parent = open_[-1] if open_ else -1
        request = self.request
        open_.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            open_.pop()
            spans[index] = (name, start, end, parent, request)

    def wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def rebind(self, namespace, name: str, value) -> None:
        self._bound.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def bindings(self) -> list:
        """(namespace, name, original) for every name rebound so far."""
        return list(self._bound)

    def restore(self) -> None:
        while self._bound:
            namespace, name, original = self._bound.pop()
            setattr(namespace, name, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first start."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "request": request}) + "\n")


class _Namespace:
    """Stands in for a module: the given names are replaced, the rest forwarded."""

    def __init__(self, module, replaced: dict):
        self.__dict__.update(replaced)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedRng:
    """Forwards the draw methods of one xoshiro256** stream, each in a span."""

    __slots__ = ("_rng", "_call")

    def __init__(self, rng, call):
        self._rng = rng
        self._call = call

    def next_u64(self):
        return self._call("rng.draw", self._rng.next_u64)

    def random(self):
        return self._call("rng.draw", self._rng.random)

    def uniform(self, lo, hi):
        return self._call("rng.draw", self._rng.uniform, lo, hi)

    def log_uniform(self, lo, hi):
        return self._call("rng.draw", self._rng.log_uniform, lo, hi)

    def randint(self, n):
        return self._call("rng.draw", self._rng.randint, n)

    def choice(self, seq):
        return self._call("rng.draw", self._rng.choice, seq)

    def gauss_pair(self):
        return self._call("rng.draw", self._rng.gauss_pair)


def _traced_mean_calculator(tracer: Tracer, base):
    call, counts = tracer.call, tracer.counts

    class TracedMeanCalculator(base):
        def __init__(self, a, b):
            self._bench_weights = set()
            call("matrices.mean", base.__init__, self, a, b)

        def sharp_entries(self, w):
            counts["matrices.sharp_calls"] += 1
            if w in self._bench_weights:
                counts["matrices.sharp_hits"] += 1
            else:
                self._bench_weights.add(w)
            return call("matrices.mean", base.sharp_entries, self, w)

        def heinz_entries(self, w):
            return call("matrices.mean", base.heinz_entries, self, w)

    return TracedMeanCalculator


def install(tracer: Tracer) -> None:
    """Rebind every layer-boundary name of meanbound to a traced wrapper."""
    from meanbound import cli, harness, matrices, operators, reporting, scalar

    t = tracer

    def dumps(doc):
        text = t.call("reporting.dumps", reporting.dumps, doc)
        t.counts["reporting.bytes"] += len(text)
        return text

    t.rebind(cli, "harness", _Namespace(harness, {
        "run_all": t.wrap("harness.run_all", harness.run_all)}))
    t.rebind(cli, "reporting", _Namespace(reporting, {"dumps": dumps}))

    scalar_functions = {
        name: t.wrap("scalar." + name, fn)
        for name, fn in vars(scalar).items()
        if inspect.isfunction(fn) and fn.__module__ == scalar.__name__
        and not name.startswith("_")}
    t.rebind(harness, "scalar", _Namespace(scalar, scalar_functions))

    derive_seed, stream = harness.derive_seed, harness.Xoshiro256StarStar

    def traced_derive_seed(seed, *parts):
        t.request = parts[-1] if parts else -1  # the trial index
        return t.call("rng.derive_seed", derive_seed, seed, *parts)

    def traced_stream(seed):
        return _TracedRng(t.call("rng.stream", stream, seed), t.call)

    comparison = harness.run_comparison_suite

    def traced_comparison(cfg):
        t.request = -1  # grid cells carry no trial index
        return t.call("harness.comparison", comparison, cfg)

    t.rebind(harness, "derive_seed", traced_derive_seed)
    t.rebind(harness, "fnv1a64", t.wrap("rng.fnv1a64", harness.fnv1a64))
    t.rebind(harness, "Xoshiro256StarStar", traced_stream)
    t.rebind(harness, "random_spd", t.wrap("harness.random_spd", harness.random_spd))
    t.rebind(harness, "run_comparison_suite", traced_comparison)
    # Rows bind their evaluators when harness is imported, so they are
    # traced row by row rather than through the scalar or operators names.
    t.rebind(harness, "SCALAR_ROWS", [
        dataclasses.replace(row, evaluate=t.wrap("scalar.evaluate", row.evaluate))
        for row in harness.SCALAR_ROWS])
    t.rebind(harness, "OPERATOR_ROWS", [
        dataclasses.replace(row, evaluate=t.wrap("operators.evaluate", row.evaluate))
        for row in harness.OPERATOR_ROWS])

    t.rebind(operators, "MeanCalculator",
             _traced_mean_calculator(t, operators.MeanCalculator))
    t.rebind(operators, "jacobi_eigh",
             t.wrap("matrices.eigh.check", operators.jacobi_eigh))

    # Inside matrices one solver serves three callers; the caller's code
    # object tells the SPD factorization from the mean-kernel congruence.
    jacobi = matrices.jacobi_eigh
    callers = {
        matrices.SpdMatrix.__init__.__code__: "matrices.eigh.factor",
        matrices.SpdMatrix.decomp.fget.__code__: "matrices.eigh.factor",
        matrices.MeanCalculator.__init__.__code__: "matrices.eigh.inner",
    }

    def traced_jacobi(*args, **kwargs):
        name = callers.get(sys._getframe(1).f_code, "matrices.eigh.other")
        return t.call(name, jacobi, *args, **kwargs)

    t.rebind(matrices, "jacobi_eigh", traced_jacobi)


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer counts and times of one traced pass.

    Self time is a span's duration minus the time its direct children
    cover; a layer's self time sums that over the layer's spans.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    count: Counter = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    layer_own = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        count[name] += 1
        total[name] += duration
        own[name] += duration - children[index]
        layer_own[name.split(".", 1)[0]] += duration - children[index]

    def layer_count(layer):
        return sum(n for name, n in count.items() if name.startswith(layer + "."))

    eigh_calls = layer_count("matrices.eigh")
    operator_evals = layer_count("operators")
    sharp_calls = counts["matrices.sharp_calls"]
    return {
        "rng.streams": count["rng.stream"],
        "rng.draws": count["rng.draw"],
        "rng.self_s": layer_own["rng"],
        "scalar.evals": layer_count("scalar"),
        "scalar.self_s": layer_own["scalar"],
        "harness.self_s": layer_own["harness"],
        "harness.random_spd_calls": count["harness.random_spd"],
        "harness.random_spd_s": total["harness.random_spd"],
        "matrices.eigh_calls": eigh_calls,
        "matrices.eigh_per_op": eigh_calls / operator_evals if operator_evals else 0.0,
        "matrices.eigh.factor_s": total["matrices.eigh.factor"],
        "matrices.eigh.inner_s": total["matrices.eigh.inner"],
        "matrices.eigh.check_s": total["matrices.eigh.check"],
        "matrices.mean_s": own["matrices.mean"],
        "matrices.sharp_calls": sharp_calls,
        "matrices.sharp_hit_ratio": (counts["matrices.sharp_hits"] / sharp_calls
                                     if sharp_calls else 0.0),
        "matrices.load_s": own["matrices.load"],
        "operators.evals": operator_evals,
        "operators.self_s": layer_own["operators"],
        "reporting.dumps_s": total["reporting.dumps"],
        "reporting.bytes": counts["reporting.bytes"],
        "cli.self_s": layer_own["cli"],
    }
