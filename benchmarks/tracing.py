"""Per-layer tracing of cfx from outside its source tree.

:class:`Tracer` replaces the public functions of each cfx module with timing
wrappers, in every cfx namespace that holds them (so ``identities``' own
imported ``estimate_limit`` is wrapped too), plus ``math.gcd`` (which
``Fraction`` reduction calls), ``ComplexParam.to_mp``, mpmath's ``quad`` as
the oracle uses it, and the coefficient callables of every spec a family
constructor returns.  ``uninstall`` puts every original back.

Each wrapped call pushes a frame; on return the frame's duration, less the
time of its child frames, is that layer's self time.  Calls at layer
boundaries are kept as spans ``(id, parent_id, name, start, end, item)`` in
memory and written out by :meth:`Tracer.write_spans`.  The hot calls
(``math.gcd``, ``to_mp``, coefficient callables) are counted and timed
without a span each, so that memory and overhead stay bounded.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("kernel", "engine", "families", "oracle", "identities", "cli")

# Every claim id of ``cfx verify``; each gets an ``identities.<id>_s`` metric.
CLAIM_IDS = ("recurrence2", "recurrence4", "qform", "diff", "rate", "lemma23", "lemma42",
             "thm31", "thm41", "integrals", "nonequiv")

# Per-layer metrics and units, in the order they are reported.
METRICS = (
    [("kernel.gcd_calls", "count"), ("kernel.gcd_s", "s"), ("kernel.to_mp_calls", "count"),
     ("families.build_calls", "count"), ("families.build_s", "s"),
     ("families.coeff_calls", "count"), ("families.coeff_s", "s"),
     ("engine.calls", "count"), ("engine.self_s", "s"), ("engine.steps_per_s", "1/s"),
     ("engine.depth_sum", "count"), ("engine.value_bits", "bits"),
     ("oracle.calls", "count"), ("oracle.self_s", "s"), ("oracle.series_terms", "count"),
     ("oracle.quad_calls", "count"), ("oracle.quad_s", "s"),
     ("identities.self_s", "s"), ("identities.reports", "count"), ("identities.failed", "count")]
    + [(f"identities.{cid}_s", "s") for cid in CLAIM_IDS]
    + [("cli.requests", "count"), ("cli.self_s", "s"), ("cli.render_s", "s"),
       ("cli.exit_nonzero", "count"), ("trace.overhead_frac", "ratio")]
)

# Called once per recurrence step: left inside the engine's self time.
_UNWRAPPED = {"euler_wallis_step"}


class _Frame:
    __slots__ = ("kind", "span_id", "child_s")

    def __init__(self, kind, span_id):
        self.kind = kind
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Wraps cfx's layers while installed; accumulates counters and spans."""

    def __init__(self, cfx_modules):
        self.modules = cfx_modules  # name -> module, for every cfx module
        self.totals = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []
        self.item = None  # index of the item being run, shared by its spans
        self._stack = []
        self._next_id = 1
        self._undo = []

    # -- frames -----------------------------------------------------------

    def _call(self, fn, kind, layer, name, span, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = 0
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(kind, span_id)
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame.child_s
            if parent is not None:
                parent.child_s += duration
            if span:
                self.spans.append((span_id, parent.span_id if parent else 0, name,
                                   start, end, self.item))
        self._count(kind, name, parent is None or parent.kind != kind, duration, args, result)
        return result

    def _count(self, kind, name, outer, duration, args, result):
        """Counters of one finished call; ``outer`` is false for a call made
        from the same layer, which the caller's counters already cover."""
        t = self.totals
        if kind == "coeff":
            t["families.coeff_calls"] += 1
            t["families.coeff_s"] += duration
        elif kind == "build" and outer:
            t["families.build_calls"] += 1
            t["families.build_s"] += duration
        elif kind == "engine" and outer:
            t["engine.calls"] += 1
            t["engine.outer_s"] += duration
            if name == "engine.estimate_limit":
                value, depth = result
                t["engine.depth_sum"] += depth
                t["engine.value_bits"] += _value_bits(value)
            elif name == "engine.convergents":
                t["engine.depth_sum"] += args[1] if len(args) > 1 else 0
        elif kind == "oracle" and outer:
            t["oracle.calls"] += 1
            if hasattr(result, "terms_used"):
                t["oracle.series_terms"] += result.terms_used
        elif kind == "quad":
            t["oracle.quad_calls"] += 1
            t["oracle.quad_s"] += duration
        elif kind == "identities":
            claim = getattr(result, "claim_id", None)
            if claim is not None:
                t[f"identities.{claim}_s"] += duration
            elif name == "identities.run_suite":
                t["identities.reports"] += len(result)
                t["identities.failed"] += sum(1 for r in result if not r.passed)
        elif kind == "cli":
            if name == "cli.main":
                t["cli.requests"] += 1
                t["cli.exit_nonzero"] += result != 0
            elif name == "cli.render":
                t["cli.render_s"] += duration

    def _wrapper(self, fn, kind, layer, name, span=True):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(fn, kind, layer, name, span, args, kwargs)

        return wrapper

    def _leaf_wrapper(self, fn, layer, calls_key, seconds_key=None):
        """A hot call that makes no traced calls itself: timed and counted
        without a frame or a span, which keeps the tracing overhead low."""
        stack, totals, self_s, perf = self._stack, self.totals, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf()
            result = fn(*args)
            duration = perf() - start
            totals[calls_key] += 1
            if seconds_key is not None:
                totals[seconds_key] += duration
            self_s[layer] += duration
            if stack:
                stack[-1].child_s += duration
            return result

        return wrapper

    def _build_wrapper(self, fn, name):
        """Family constructors: time the build, then wrap the spec's coefficients."""
        traced = self._wrapper(fn, "build", "families", name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1].kind != "build"
            spec = traced(*args, **kwargs)
            if outer and getattr(spec, "rule", None) is not None:
                rule = spec.rule
                spec = dataclasses.replace(spec, rule=type(rule)(
                    a=self._wrapper(rule.a, "coeff", "families", "families.coeff.a", span=False),
                    b=self._wrapper(rule.b, "coeff", "families", "families.coeff.b", span=False),
                ))
            return spec

        return wrapper

    def run_item(self, index, fn, *args):
        """Run one benchmark item under a root span that all its calls share."""
        self.item = index
        try:
            return self._call(fn, "bench", "bench", "bench.item", True, args, {})
        finally:
            self.item = None

    # -- installing -------------------------------------------------------

    def install(self):
        kernel = self.modules["cfx.kernel"]
        oracle = self.modules["cfx.oracle"]
        replacements = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS[1:]:
            module = self.modules[f"cfx.{layer}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or attr in _UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                if layer == "families" and attr.startswith("make_"):
                    replacements[id(fn)] = (fn, self._build_wrapper(fn, name))
                else:
                    replacements[id(fn)] = (fn, self._wrapper(fn, layer, layer, name))
        replacements[id(oracle.quad)] = (oracle.quad, self._wrapper(
            oracle.quad, "quad", "oracle", "oracle.quad"))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(math, "gcd", self._leaf_wrapper(
            math.gcd, "kernel", "kernel.gcd_calls", "kernel.gcd_s"))
        cp = kernel.ComplexParam
        self._patch(cp, "to_mp", self._leaf_wrapper(cp.to_mp, "kernel", "kernel.to_mp_calls"))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int, overhead_frac: float) -> dict:
        """Per-pass averages of every per-layer metric, with units."""
        t = self.totals
        values = {name: t.get(name, 0.0) / passes for name, _ in METRICS}
        for layer in ("engine", "oracle", "identities", "cli"):
            values[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) / passes
        outer = t.get("engine.outer_s", 0.0)
        values["engine.steps_per_s"] = t.get("engine.depth_sum", 0.0) / outer if outer else 0.0
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write_spans(self, path):
        """One JSON array per line: id, parent id, name, start, end, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _value_bits(value) -> int:
    """Bits of a reduced Fraction (numerator plus denominator) or of an mpf/mpc mantissa."""
    if hasattr(value, "denominator"):
        return value.numerator.bit_length() + value.denominator.bit_length()
    parts = (value.real, value.imag) if hasattr(value, "imag") else (value,)
    return sum(p._mpf_[3] for p in parts)


def cfx_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if (name == "cfx" or name.startswith("cfx.")) and mod is not None}
