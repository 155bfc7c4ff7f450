"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of ``repro`` at the module
attributes their callers look up (for example ``repro.core.cvcp.make_folds``,
which :class:`~repro.core.cvcp.CVCP` calls through its own module globals).
Each wrapped call becomes a span with a layer name, start and end times and
the index of the span that was open when it started. A layer's self time is
the span duration minus the time covered by its child spans, so the self
times of one operation sum to the duration of its outermost spans.

Hooks are installed only for traced operations and removed afterwards, so
untraced operations run the program's own functions. A hook whose target
is missing marks its layer as absent: the layer is then left out of the
per-layer metrics instead of being reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter
from contextlib import contextmanager


def _count_pairs(recorder, args, result):
    recorder.counts["constraints.pairs_out"] += len(result)


def _count_mpck_iterations(recorder, args, result):
    recorder.counts["mpck.iterations"] += int(args[0].n_iter_)


def _count_bytes_written(recorder, args, result):
    recorder.counts["store.bytes_written"] += os.path.getsize(result)


#: (layer, module, attribute path, optional counter) for every wrapped call.
#: Call sites are named by the module the caller reads them from, so a
#: function imported into several modules is wrapped once per caller.
HOOKS = (
    ("cvcp", "repro.core.cvcp", "CVCP.fit", None),
    ("folds", "repro.core.cvcp", "make_folds", None),
    ("constraints", "repro.core.folds", "transitive_closure", _count_pairs),
    ("constraints", "repro.core.folds", "constraints_from_labels", _count_pairs),
    ("constraints", "repro.clustering.fosc", "transitive_closure", _count_pairs),
    ("constraints", "repro.clustering.mpckmeans", "transitive_closure", _count_pairs),
    # Function-local imports in fosc, mpckmeans and cvcp read this attribute.
    ("constraints", "repro.constraints.generation", "constraints_from_labels", _count_pairs),
    ("constraints", "repro.experiments.runner", "constraints_from_labels", _count_pairs),
    ("structure", "repro.clustering.fosc", "cached_tree_structure", None),
    ("extract", "repro.clustering.fosc", "FOSC.extract", None),
    ("scoring", "repro.core.cvcp", "score_partition", None),
    ("mpck", "repro.clustering.mpckmeans", "MPCKMeans.fit", _count_mpck_iterations),
    ("evaluation", "repro.experiments.runner", "silhouette_score", None),
    ("evaluation", "repro.experiments.runner", "overall_f_measure", None),
    ("store", "repro.experiments.artifacts", "ArtifactStore.get", None),
    ("store", "repro.experiments.artifacts", "ArtifactStore.put", _count_bytes_written),
    ("store", "repro.experiments.artifacts", "ArtifactStore.contains", None),
    ("store", "repro.experiments.artifacts", "ArtifactStore.delete", None),
)

#: Every layer the recorder can report, the benchmark's own ``pipeline``
#: root span included.
LAYERS = ("pipeline",) + tuple(dict.fromkeys(layer for layer, *_ in HOOKS))


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, current value)`` of a hook target, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    value = vars(owner).get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if not inspect.isfunction(value):
        return None
    return owner, name, value


class SpanRecorder:
    """Spans and counts of traced operations, kept in memory.

    ``spans`` holds ``(op, layer, start_ns, end_ns, parent)`` tuples, where
    ``parent`` indexes the enclosing span of the same operation (``-1`` for
    the root).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.absent = sorted(
            {layer for layer, module, path, _ in HOOKS if _resolve(module, path) is None}
        )
        self._op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, layer: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self._op, layer, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            op, _, start, _, _ = self.spans[index]
            self.spans[index] = (op, layer, start, time.perf_counter_ns(), parent)

    def _wrap(self, layer: str, function, counter):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = function(*args, **kwargs)
                if counter is not None:
                    counter(self, args, result)
            return result

        return traced

    @contextmanager
    def operation(self):
        """Trace one operation: install every hook, yield its number, restore the originals."""
        self._op += 1
        self.counts = Counter()
        for layer, module, path, counter in HOOKS:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, name, function = target
            setattr(owner, name, self._wrap(layer, function, counter))
            self._installed.append((owner, name, function))
        try:
            yield self._op
        finally:
            while self._installed:
                owner, name, function = self._installed.pop()
                setattr(owner, name, function)

    # ------------------------------------------------------------------
    def layer_totals(self, op: int) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` for one operation, every layer listed."""
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        child_ns: dict[int, int] = {}
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        for index, (span_op, layer, start, end, _) in enumerate(self.spans):
            if span_op == op:
                totals[layer]["self_s"] += (end - start - child_ns.get(index, 0)) / 1e9
                totals[layer]["calls"] += 1
        return totals

    def as_records(self) -> list[dict]:
        """Every span as a JSON-ready mapping, for the trace file."""
        return [
            {"op": op, "layer": layer, "start_ns": start, "end_ns": end, "parent": parent}
            for op, layer, start, end, parent in self.spans
        ]
