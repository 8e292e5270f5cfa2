"""In-memory span tracer, attached from outside the program.

:func:`install` wraps the public function each layer exposes, at the
binding its caller resolves at call time (module globals, class
attributes, or the loaded C-kernel entry point), so nothing under
``src/`` is edited.  Every call records one span: name, start, end,
parent span and the ordinal of the graph it ran for.  Spans stay in
flat arrays while the campaign runs and are written out afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List

class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.graph = array("l")
        self._stack: List[int] = []
        self.current_graph = -1
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.graph.append(self.current_graph)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus its children's."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: Dict[str, float] = {}
        for i in range(n):
            key = self.names[self.name[i]]
            totals[key] = (
                totals.get(key, 0.0) + self.end[i] - self.start[i] - child[i]
            )
        return totals

    def inclusive_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for i in range(len(self.start)):
            key = self.names[self.name[i]]
            totals[key] = totals.get(key, 0.0) + self.end[i] - self.start[i]
        return totals

    def span_counts(self) -> Counter:
        return Counter(self.names[i] for i in self.name)

    def write(self, directory) -> None:
        """Dump the spans as flat columns: ``spans.bin`` holds the
        ``name``, ``start``, ``end``, ``parent`` and ``graph`` arrays
        back to back (layout and names in ``spans.json``)."""
        columns = (
            ("name", self.name),
            ("start", self.start),
            ("end", self.end),
            ("parent", self.parent),
            ("graph", self.graph),
        )
        with open(directory / "spans.bin", "wb") as out:
            for _label, column in columns:
                column.tofile(out)
        layout = {
            "count": len(self.start),
            "names": self.names,
            "columns": [[label, col.typecode] for label, col in columns],
            "clock": "time.perf_counter seconds",
            "parent": "index of the enclosing span, -1 at top level",
            "graph": "campaign ordinal of the graph, -1 outside one",
        }
        (directory / "spans.json").write_text(json.dumps(layout, indent=1))


def _patch(tracer: Tracer, owner, attr: str, name: str) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def install(tracer: Tracer, ordinals: Dict[tuple, int]) -> None:
    """Wrap every layer boundary of a Fig. 6 campaign.

    ``ordinals`` maps a graph task's ``(x, graph_index)`` to its
    position in the campaign, which tags every span of that graph.
    """
    import repro.api as api
    import repro.buffers.sizing as sizing
    import repro.chains.backward as backward
    import repro.core.pairwise as pairwise
    import repro.experiments.fig6 as fig6
    import repro.experiments.runner as runner
    import repro.let as let
    import repro.model.system as system
    import repro.parallel.aggregate as aggregate
    import repro.sim.columnar as columnar
    from repro.sim import ckernel
    from repro.sim.provenance import StampColumns

    for attr in ("generate_random_scenario", "generate_merged_pair_scenario"):
        _patch(tracer, fig6, attr, "gen.generate")
    _patch(tracer, system, "analyze_all", "sched.rta")
    _patch(tracer, api.AnalysisSession, "__init__", "api.session")

    # One entry point serves both theorems; the method names the layer.
    pdiff = tracer.wrap("core.pdiff", api.worst_case_disparity)
    sdiff = tracer.wrap("core.sdiff", api.worst_case_disparity)

    def worst_case_disparity(*args, method="forkjoin", **kwargs):
        bound = pdiff if method == "independent" else sdiff
        return bound(*args, method=method, **kwargs)

    api.worst_case_disparity = worst_case_disparity
    _patch(tracer, fig6, "disparity_bound_forkjoin", "core.sdiff")
    _patch(tracer, pairwise, "decompose_pair", "model.decompose_pair")
    _patch(tracer, sizing, "decompose_pair", "model.decompose_pair")
    _patch(tracer, backward.BackwardBoundsTable, "bounds", "chains.backward")
    _patch(tracer, let, "backward_bounds_let", "let.backward")
    _patch(tracer, fig6, "design_buffer_pair", "buffers.design")

    _patch(tracer, api.AnalysisSession, "observed_disparity", "sim.observed")
    _patch(tracer, api.CompiledScenario, "__init__", "sim.compile")
    _patch(tracer, columnar, "run_columnar", "sim.columnar")
    _patch(tracer, columnar, "draw_batch", "sim.draw")
    _patch(tracer, StampColumns, "merge_read", "sim.merge_read")
    kernel, _why = ckernel.load_kernel()
    if kernel is not None:
        kernel.advance = tracer.wrap("sim.advance", kernel.advance)

    session_lookup = api.AnalysisSession.compiled_scenario

    def compiled_scenario_counted(session, *args, **kwargs):
        before = session.compiled_cache_stats()["hits"]
        found = session_lookup(session, *args, **kwargs)
        tracer.counts["compiled_lookups"] += 1
        tracer.counts["compiled_hits"] += (
            session.compiled_cache_stats()["hits"] - before
        )
        return found

    api.AnalysisSession.compiled_scenario = compiled_scenario_counted

    _patch(tracer, aggregate.CampaignAccumulator, "add", "parallel.aggregate")
    _patch(tracer, runner, "_write_outputs", "io.csv")

    def framed(part):
        def run_graph(config, task):
            tracer.current_graph = ordinals[(task.x, task.graph_index)]
            index = tracer.open("graph")
            try:
                return part.run_graph(config, task)
            finally:
                tracer.close(index)
                tracer.current_graph = -1

        return dataclasses.replace(part, run_graph=run_graph)

    fig6.AB_PART = framed(fig6.AB_PART)
    fig6.CD_PART = framed(fig6.CD_PART)
