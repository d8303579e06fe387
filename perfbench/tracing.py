"""Spans around the library's public functions, recorded from outside.

`Tracer.install` replaces each function named in LAYERS, in every
``oddminorkit`` module namespace that binds it, by a wrapper that records a
span (name, start, end, parent span, op id, outcome). Internal callers look
the name up in their own module at call time, so e.g.
``structure.parity_breaking_dichotomy`` and ``certificates.find_odd_s_path``
are traced too. Spans stay in memory; `layer_metrics` derives self times
(a span's duration minus its child spans) and counts from them.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional


def _found(result) -> str:
    return "found" if result is not None else "absent"


def _truth(result) -> str:
    return "found" if result else "absent"


def _pack(result) -> str:
    return "packing" if result.is_packing else "cover"


# (module, function, span name, outcome of a return value)
LAYERS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("graph", "find_small_separation", "graph.find_small_separation", _found),
    ("graph", "bipartition", "graph.bipartition", None),
    ("graph", "blocks", "graph.blocks", None),
    ("signed", "find_signed_minor", "signed.find_signed_minor", _found),
    ("oddminor", "find_odd_clique_minor", "oddminor.find_odd_clique_minor", _found),
    ("oddminor", "has_clique_minor", "oddminor.has_clique_minor", _truth),
    ("oddminor", "verify_odd_minor_model", "oddminor.verify_odd_minor_model", None),
    ("subdivision", "find_bipartite_join_subdivision",
     "subdivision.find_bipartite_join_subdivision", _found),
    ("subdivision", "verify_subdivision", "subdivision.verify_subdivision", None),
    ("erdosposa", "odd_s_paths_dichotomy", "erdosposa.odd_s_paths_dichotomy", _pack),
    ("erdosposa", "parity_breaking_dichotomy", "erdosposa.parity_breaking_dichotomy", None),
    ("erdosposa", "find_odd_s_path", "erdosposa.find_odd_s_path", None),
    ("structure", "structure_theorem", "structure.structure_theorem", None),
    ("structure", "block_or_packing", "structure.block_or_packing", None),
    ("structure", "build_odd_clique_model", "structure.build_odd_clique_model", None),
    ("coloring", "precolor_extend", "coloring.precolor_extend", None),
    ("coloring", "base_defective_coloring", "coloring.base_colorer", None),
    ("coloring", "base_clustered_coloring", "coloring.base_colorer", None),
    ("coloring", "verify_coloring", "coloring.verify_coloring", None),
    ("certificates", "certify_odd_minor_model", "certificates.certify", None),
    ("certificates", "certify_signed_minor_model", "certificates.certify", None),
    ("certificates", "certify_packing", "certificates.certify", None),
    ("certificates", "certify_cover", "certificates.certify", None),
    ("certificates", "certify_decomposition", "certificates.certify", None),
    ("certificates", "certify_coloring", "certificates.certify", None),
    ("certificates", "serialize_certificate", "certificates.roundtrip", None),
    ("certificates", "parse_certificate", "certificates.roundtrip", None),
    ("certificates", "verify_certificate", "certificates.verify_certificate", None),
]

TRACE_CASES = ("split", "base", "base-colorer", "decompose", "stabilize")

# per-layer metrics derived from the spans, in report order
FIELDS = [
    ("graph.find_small_separation", ("calls", "self_s", "found_ratio")),
    ("graph.bipartition", ("calls", "self_s")),
    ("graph.blocks", ("self_s",)),
    ("signed.find_signed_minor", ("calls", "self_s", "found_ratio")),
    ("oddminor.find_odd_clique_minor", ("calls", "self_s", "found_ratio", "raised")),
    ("oddminor.has_clique_minor", ("self_s",)),
    ("oddminor.verify_odd_minor_model", ("self_s",)),
    ("subdivision.find_bipartite_join_subdivision", ("calls", "self_s", "found_ratio", "raised")),
    ("subdivision.verify_subdivision", ("self_s",)),
    ("erdosposa.odd_s_paths_dichotomy", ("calls", "self_s", "packing_ratio")),
    ("erdosposa.parity_breaking_dichotomy", ("calls", "self_s")),
    ("erdosposa.find_odd_s_path", ("calls", "self_s")),
    ("structure.structure_theorem", ("self_s",)),
    ("structure.block_or_packing", ("self_s",)),
    ("structure.build_odd_clique_model", ("self_s",)),
    ("coloring.precolor_extend", ("self_s",)),
    ("coloring.base_colorer", ("self_s",)),
    ("coloring.verify_coloring", ("self_s",)),
    ("certificates.certify", ("self_s",)),
    ("certificates.roundtrip", ("self_s",)),
    ("certificates.verify_certificate", ("self_s",)),
]

# span index fields
NAME, START, END, PARENT, OP, OUTCOME = range(6)


class Tracer:
    """Records spans while `op` is set; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: Optional[str] = None
        self.graphs_built = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, outcome: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec[OUTCOME] = "raised"
                raise
            except BaseException:
                rec[OUTCOME] = "abandoned"
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if outcome is not None:
                rec[OUTCOME] = outcome(out)
            return out

        return wrapper

    def install(self) -> None:
        import oddminorkit
        from oddminorkit.graph import Graph

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "oddminorkit" or k.startswith("oddminorkit."))]
        for modname, fname, span, outcome in LAYERS:
            original = getattr(getattr(oddminorkit, modname), fname)
            wrapper = self._wrap(original, span, outcome)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        init = Graph.__init__

        @functools.wraps(init)
        def counting_init(g, *args, **kwargs):
            if self.op is not None:
                self.graphs_built += 1
            init(g, *args, **kwargs)

        self._restore.append((Graph, "__init__", init))
        Graph.__init__ = counting_init

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], graphs_built: int, trace_cases: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics for the traced run, every name always present."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    outcomes: dict[tuple[str, str], int] = {}
    for s, o in zip(spans, own):
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + o
        calls[name] = calls.get(name, 0) + 1
        outcomes[name, s[OUTCOME]] = outcomes.get((name, s[OUTCOME]), 0) + 1

    def value(name: str, field: str) -> float:
        if field == "calls":
            return calls.get(name, 0)
        if field == "self_s":
            return self_s.get(name, 0.0)
        if field == "raised":
            return outcomes.get((name, "raised"), 0)
        n = calls.get(name, 0)  # found_ratio, packing_ratio
        return outcomes.get((name, field.split("_")[0]), 0) / n if n else 0.0

    m: dict[str, float] = {"graph.graphs_built": graphs_built}
    for name, fields in FIELDS:
        for field in fields:
            m[f"{name}.{field}"] = value(name, field)
    # an absent odd-clique verdict settled by the unsigned pretest: the
    # has_clique_minor child answered "absent"
    odd = "oddminor.find_odd_clique_minor"
    cut = sum(1 for s in spans if s[NAME] == "oddminor.has_clique_minor"
              and s[OUTCOME] == "absent" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == odd)
    m["oddminor.pretest_cut_ratio"] = cut / calls[odd] if calls.get(odd) else 0.0
    for case in TRACE_CASES:
        m[f"coloring.trace.{case}"] = trace_cases.get(case, 0)
    return m


UNITS = {"calls": "count", "raised": "count", "graphs_built": "count",
         "self_s": "s", "found_ratio": "ratio", "packing_ratio": "ratio",
         "pretest_cut_ratio": "ratio", "build_s": "s", "import_s": "s",
         "overhead_s": "s", "wall_s": "s"}


def unit_of(metric: str) -> str:
    if metric.startswith("coloring.trace."):
        return "count"
    return UNITS[metric.rsplit(".", 1)[1]]
