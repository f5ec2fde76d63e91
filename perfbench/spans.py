"""Spans and result capture around the entry points of cliquesub's layers.

A layer is a module of ``cliquesub``; ``LAYERS`` lists the public functions
through which work enters it.  ``Instrument.install`` replaces each one with
a wrapper in every loaded ``cliquesub`` module that binds it, so calls from
one module into another pass through the wrapper too; ``uninstall`` puts the
originals back.  Nothing in the library is edited.

With ``tracing`` on, every call becomes a span (name, start, end, parent).
A span's self time is its duration minus the durations of its child spans.
Tracing on or off, each call of a ``CAPTURED`` function is kept with the
``graph_key`` of its graph argument and its result, so the colourings,
witnesses and certificates behind a sweep record can be checked after the
timed region.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "graph_io.read_graph",
    "graphs.gen_gnp",
    "graphs.induced",
    "graphs.complement",
    "graphs.bool_matrix",  # method of graphs.Graph
    "oracles.omega_exact",
    "oracles.alpha_exact",
    "oracles.dsatur_upper",
    "oracles.chi_exact",
    "oracles.greedy_clique_lower",
    "pipeline.sigma_lower_auto",
    "pipeline.sigma_lower_sparse",
    "pipeline.sigma_lower_dense",
    "drc.drc_partition",
    "drc.drc_select",
    "drc.count_disjoint_paths4",
    "dense.greedy_shrink_trace",
    "esfilter.es_filter",
    "subdivision.build_subdivision",
    "subdivision.verify_subdivision",
    "experiments.run_ratio_sweep",
    "cli.cli_main",
)

CAPTURED = (
    "oracles.alpha_exact",
    "oracles.omega_exact",
    "oracles.dsatur_upper",
    "pipeline.sigma_lower_auto",
)


def graph_key(g) -> tuple[int, int]:
    """Identifies a graph by value without keeping it, or its cached
    matrices, alive."""
    return g.n, hash(g.rows)


def _counts(name: str, result) -> dict[str, int]:
    """Work and quality counts read off a layer's return value."""
    counts = {}
    nodes = getattr(result, "nodes", None)
    if isinstance(nodes, int):
        counts["nodes"] = nodes
    if name == "subdivision.build_subdivision":
        counts["built"] = int(type(result).__name__ == "SubdivisionCertificate")
    elif name == "oracles.dsatur_upper":
        counts["colors"] = result[0]
    elif name == "pipeline.sigma_lower_auto":
        cert = result.certificate
        counts["order"] = cert.order if cert is not None and cert.verified else 0
    return counts


class Instrument:
    def __init__(self):
        self.tracing = False
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self.captured: list[tuple[str, tuple[int, int], object]] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, names) -> None:
        package = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "cliquesub" or key.startswith("cliquesub.")
        ]
        for name in names:
            module, attr = name.split(".")
            home = sys.modules[f"cliquesub.{module}"]
            if not hasattr(home, attr):  # a method, e.g. Graph.bool_matrix
                owner = home.Graph
                original = vars(owner)[attr]
                self._bind(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _bind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def _wrap(self, name: str, fn):
        keep = name in CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.tracing:
                parent = self._open[-1] if self._open else -1
                span = [name, 0.0, 0.0, parent, None]
                self._open.append(len(self.spans))
                self.spans.append(span)
                span[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    self._open.pop()
                span[4] = _counts(name, result)
            else:
                result = fn(*args, **kwargs)
            if keep:
                self.captured.append((name, graph_key(args[0]), result))
            return result

        return wrapper

    def layer_stats(self, rounds: int) -> dict[str, float]:
        """Per-round totals: ``<layer>.s`` (inclusive, outermost span of a
        name only), ``.self_s``, ``.calls``, the summed return counts, and
        ``trace.spans``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        totals["trace.spans"] = len(spans)
        for i, (name, start, end, parent, counts) in enumerate(spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                totals[f"{name}.s"] += end - start
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] += value
        return {key: value / rounds for key, value in totals.items()}
