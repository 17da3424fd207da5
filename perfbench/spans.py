"""Span tracing of gamma0's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules with a
wrapper, at every place a gamma0 module binds it (``from .polygon import
polygon_from_cusps`` in ``triples`` is rebound too), so calls between modules
and within a module all cross a span boundary.  Each span records its name,
start, end, parent span and request id in flat in-memory arrays; counters
read the arguments and results of a few functions at the same boundaries.
Nothing in ``src/`` is edited.  ``summary`` turns the spans into per-module
self time (span duration minus the time covered by its direct child spans)
and call counts, and ``dump`` writes the raw spans out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from math import isqrt

MODULES = ("cli", "triples", "polygon", "generators", "invariants", "psl2", "farey")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_module: list[int] = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.stack = [-1]
        self.request = -1
        self.errors = dict.fromkeys(MODULES, 0)
        self.counts = {
            "triples.triples_counted": 0,
            "polygon.classify_cells": 0,
            "polygon.cusps_built": 0,
            "psl2.edge_transports": 0,
            "generators.generators_emitted": 0,
            "generators.verify_failures": 0,
            "invariants.exact_searches": 0,
            "invariants.exact_bounds_tried": 0,
            "farey.hull_cusps": 0,
        }
        self.max_den = 0
        self.max_entry = 0
        self._binds: list[tuple[object, str, object, object]] = []

    # -- counters read at span boundaries ---------------------------------
    def _polygon_built(self, P, args, kwargs) -> int:
        k = len(P.cusps) - 2
        self.counts["polygon.cusps_built"] += len(P.cusps)
        self.max_den = max(self.max_den, P.max_denominator())
        return k

    def _hooks(self) -> dict:
        c = self.counts

        def polygon_from_cusps(P, args, kwargs):
            k = self._polygon_built(P, args, kwargs)
            c["polygon.classify_cells"] += k * k  # computed: the dense k x k pairing matrix

        def edge_transport(g, args, kwargs):
            c["psl2.edge_transports"] += 1
            self.max_entry = max(self.max_entry, abs(g.a), abs(g.b), g.c, abs(g.d))

        def m_exact_search(m, args, kwargs):
            lo = args[2] if len(args) > 2 else kwargs.get("min_bound")
            lo = isqrt(args[0]) if lo is None else lo
            c["invariants.exact_searches"] += 1
            c["invariants.exact_bounds_tried"] += m - lo + 1

        def triple_count(k, args, kwargs):
            c["triples.triples_counted"] += k

        def independent_system(s, args, kwargs):
            c["generators.generators_emitted"] += len(s.generators)

        def verify_system(rep, args, kwargs):
            c["generators.verify_failures"] += len(rep.failures)

        def farey_sequence(seq, args, kwargs):
            c["farey.hull_cusps"] += len(seq)

        return {
            "polygon.polygon_from_cusps": polygon_from_cusps,
            "polygon.grow_maximal": self._polygon_built,
            "psl2.edge_transport": edge_transport,
            "invariants.m_exact_search": m_exact_search,
            "triples.triple_count": triple_count,
            "generators.independent_system": independent_system,
            "generators.verify_system": verify_system,
            "farey.farey_sequence": farey_sequence,
        }

    def _wrap(self, fn, name: str, module: str, hook):
        name_id = len(self.names)
        self.names.append(name)
        self.name_module.append(MODULES.index(module))
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_request, stack = self.span_parent, self.span_request, self.stack
        errors, clock = self.errors, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_request.append(self.request)
            span_end.append(0)
            stack.append(i)
            span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                span_end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(holder module, attribute, original, wrapper) for every binding to wrap."""
        if not self._binds:
            holders = [importlib.import_module("gamma0")] + [
                importlib.import_module(f"gamma0.{m}") for m in MODULES
            ]
            hooks = self._hooks()
            for module, mod in zip(MODULES, holders[1:]):
                for attr, fn in list(vars(mod).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                        continue
                    name = f"{module}.{attr}"
                    traced = self._wrap(fn, name, module, hooks.get(name))
                    self._binds += [
                        (holder, key, fn, traced)
                        for holder in holders
                        for key, value in vars(holder).items()
                        if value is fn
                    ]
        return self._binds

    def install(self) -> None:
        """Wrap the public functions of every traced module wherever they are bound."""
        for holder, key, _, traced in self._bindings():
            setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, fn, _ in self._binds:
            setattr(holder, key, fn)

    def summary(self) -> dict:
        """Per-module self time, calls and errors, plus the boundary counters."""
        import numpy as np

        names = np.frombuffer(self.span_name, np.int64)
        start = np.frombuffer(self.span_start, np.int64)
        dur = np.frombuffer(self.span_end, np.int64) - start
        parent = np.frombuffer(self.span_parent, np.int64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child_ns
        module = np.asarray(self.name_module, np.int64)[names] if len(names) else names
        out: dict[str, float] = {"trace.spans": len(names)}
        for m, mod in enumerate(MODULES):
            mask = module == m
            out[f"{mod}.self_s"] = float(self_ns[mask].sum()) / 1e9
            out[f"{mod}.calls"] = int(mask.sum())
            out[f"{mod}.errors"] = self.errors[mod]
        out.update(self.counts)
        out["polygon.max_den_digits"] = len(str(self.max_den)) if self.max_den else 0
        out["psl2.entry_digits"] = len(str(self.max_entry)) if self.max_entry else 0
        tried = self.counts["invariants.exact_bounds_tried"]
        out["invariants.exact_useful_ratio"] = (
            self.counts["invariants.exact_searches"] / tried if tried else 0.0
        )
        return out

    def dump(self, path: str) -> None:
        """Write the spans as an int64 .npy of rows (name, start_ns, end_ns, parent, request).

        ``name`` indexes the list in the ``<path>.names.json`` sidecar; ``parent``
        is the row of the enclosing span, -1 at the top.
        """
        import numpy as np

        columns = (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_request)
        np.save(path, np.stack([np.frombuffer(c, np.int64) for c in columns], axis=1))
        with open(f"{path}.names.json", "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)
