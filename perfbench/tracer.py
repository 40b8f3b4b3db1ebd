"""Per-layer tracing, installed from outside the warpfield package.

Each traced name is wrapped in a span that records calls, total time and
self time (span time minus the time of its child spans), plus the count
of each (parent span, span) edge, so cache hit ratios are measured where
the lookups happen.  A module-level function is replaced in every
warpfield module that holds it (``riemann`` is imported by name into
``lie_killing`` and the checks); a method is replaced on its class.
``numpy.einsum`` is counted without a span.  Spans are aggregated in
memory and :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy

# (span name, defining module, attribute or Class.method)
SPANS = (
    ("cli.main", "warpfield.cli", "main"),
    ("manifest.load_manifest", "warpfield.manifest", "load_manifest"),
    ("suite.default_registry", "warpfield.suite", "default_registry"),
    ("suite.run_checks", "warpfield.suite", "run_checks"),
    ("report.text_report", "warpfield.report", "text_report"),
    ("sampling.sample_points", "warpfield.metric", "sample_points"),
    ("sampling.SplitMix.vector", "warpfield.sampling", "SplitMix.vector"),
    ("fields.jet", "warpfield.fields", "ProductField.jet"),
    ("metric.metric_at", "warpfield.metric", "ProductStructure.metric_at"),
    ("metric.metric_jet", "warpfield.metric", "ProductStructure.metric_jet"),
    ("connections.metric_jet", "warpfield.connections", "Geometry.metric_jet"),
    ("connections.field_jet", "warpfield.connections", "Geometry.field_jet"),
    ("connections.christoffel", "warpfield.connections", "Geometry.christoffel"),
    ("connections.christoffel_jet", "warpfield.connections",
     "Geometry.christoffel_jet"),
    ("connections.ssm_gamma", "warpfield.connections", "Geometry.ssm_gamma"),
    ("curvature.riemann", "warpfield.curvature", "riemann"),
    ("lie_killing.lie_matrix", "warpfield.lie_killing", "lie_matrix"),
    ("lie_killing.ssm_lie_matrix", "warpfield.lie_killing", "ssm_lie_matrix"),
    ("lie_killing.lie_lie_matrix", "warpfield.lie_killing", "lie_lie_matrix"),
    ("lie_killing.lie_lie_matrix_nested", "warpfield.lie_killing",
     "lie_lie_matrix_nested"),
    ("lie_killing.nabla_zeta_zeta", "warpfield.lie_killing", "nabla_zeta_zeta"),
    ("lie_killing.eq22_residual", "warpfield.lie_killing", "eq22_residual"),
)

# Statements whose checks ROADMAP lists as the slowest.
CHECK_RESULTS = ("Cor6.3", "Prop6.12", "Cor5.2")

# (ratio name, cached lookup span, span that computes on a miss)
HIT_RATIOS = (
    ("connections.metric_jet.hit_ratio", "connections.metric_jet",
     "metric.metric_jet"),
    ("connections.field_jet.hit_ratio", "connections.field_jet", "fields.jet"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    for span, _, _ in SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [(ratio, "ratio") for ratio, _, _ in HIT_RATIOS]
    names.append(("check.self_s", "s"))
    names += [(f"check.{r}.s", "s") for r in CHECK_RESULTS]
    names.append(("numpy.einsum.calls", "count"))
    return names


def _warpfield_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "warpfield" or name.startswith("warpfield."))]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()     # (parent span or None, span) -> calls
        self._stack: list[list] = []        # [span name, seconds in child spans]
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        calls, self_s, total_s, edges = self.calls, self.self_s, self.total_s, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                self_s[name] += dt - frame[1]
                total_s[name] += dt
                edges[(parent, name)] += 1
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement, extra=()) -> None:
        """Replace ``original`` in every warpfield module that holds it."""
        for module in list(_warpfield_modules()) + list(extra):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _with_check_spans(self, default_registry):
        """``default_registry`` whose specs run inside a ``check.<result>`` span."""
        from warpfield.suite import Registry

        def registry():
            reg = default_registry()
            specs = [dataclasses.replace(s, run=self.span(f"check.{s.result}", s.run))
                     for s in reg.specs]
            return Registry(specs, reg.aliases)
        return registry

    def install(self) -> None:
        importlib.import_module("warpfield.checks")
        for name, module_name, attr in SPANS:
            owner = importlib.import_module(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self.span(name, vars(cls)[method]))
                continue
            original = getattr(owner, attr)
            wrapped = self.span(name, original)
            if name == "suite.default_registry":
                wrapped = self._with_check_spans(wrapped)
            self._patch_everywhere(original, wrapped)

        einsum, calls = numpy.einsum, self.calls

        @functools.wraps(einsum)
        def counted_einsum(*args, **kwargs):
            calls["numpy.einsum"] += 1
            return einsum(*args, **kwargs)
        self._patch_everywhere(einsum, counted_einsum, extra=[numpy])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def per_layer(self) -> dict[str, float]:
        """Every metric named by :func:`per_layer_names`."""
        out: dict[str, float] = {}
        for span, _, _ in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for ratio, lookup, compute in HIT_RATIOS:
            lookups = self.calls[lookup]
            misses = self.edges[(lookup, compute)]
            out[ratio] = 1.0 - misses / lookups if lookups else 0.0
        out["check.self_s"] = sum(v for k, v in self.self_s.items()
                                  if k.startswith("check."))
        for r in CHECK_RESULTS:
            out[f"check.{r}.s"] = self.total_s[f"check.{r}"]
        out["numpy.einsum.calls"] = self.calls["numpy.einsum"]
        return out

    def spans(self) -> dict:
        """Aggregated spans and edges, for writing out when the run ends."""
        return {
            "spans": {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                             "total_s": self.total_s[name]}
                      for name in sorted(self.calls)},
            "edges": [{"parent": parent, "span": name, "calls": n}
                      for (parent, name), n in sorted(self.edges.items(),
                                                      key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        }
