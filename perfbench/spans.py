"""Span tracing by wrapping the public callables of each ``repro`` layer.

The benchmark never edits the library.  A :class:`Tracer` records spans
(name, start, end, parent span, root id) in memory; :func:`traced` swaps each
named callable for a timing wrapper wherever a ``repro.*`` module bound it —
``from .tdist import student_t_two_tailed_pvalue_batch`` gives
``repro.subspaces.contrast`` its own binding, which must be wrapped too — and
restores every original on exit, also when the traced code raises.

The current span lives in a :class:`contextvars.ContextVar`, so concurrent
asyncio handlers (each task runs in its own context copy) never nest into
each other's spans, and a span opened on a worker thread has no parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    """One timed call.  ``root`` is the id of the outermost span of its chain:
    the benchmark iteration or the served request the call belongs to."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    root: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.root, self.counts]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """In-memory span store; thread-safe, written out once at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(self, name: str) -> Tuple[Span, contextvars.Token]:
        parent = _CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent is not None else None,
            root=parent.root if parent is not None else span_id,
        )
        return span, _CURRENT.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span, token = self.open(name)
        try:
            yield span
        finally:
            self.close(span, token)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s.to_row() for s in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_row(row) for row in json.load(handle)]


# --------------------------------------------------------------- wrapping

#: ``count(args, kwargs, result) -> {counter: value}`` hooks per span name.
Counter = Callable[[tuple, dict, object], Dict[str, float]]


def _rows(value) -> int:
    return int(getattr(value, "shape", (len(value),))[0])


#: Every traced callable: span name -> (module, qualified name, counter).
TARGETS: Dict[str, Tuple[str, str, Optional[Counter]]] = {
    "index.build_all": ("repro.index.sorted_index", "SortedDatabaseIndex.build_all", None),
    "index.rank_column": ("repro.index.sorted_index", "SortedDatabaseIndex.rank_column", None),
    "index.sample_slice_batch": (
        "repro.index.slicing",
        "SliceSampler.sample_slice_batch",
        lambda a, k, r: {"drawn": r.n_slices, "degenerate": r.n_degenerate},
    ),
    "stats.sample_moments_batch": ("repro.stats.descriptive", "sample_moments_batch", None),
    "stats.welch_t_statistic_batch": ("repro.stats.welch", "welch_t_statistic_batch", None),
    "stats.welch_satterthwaite_df_batch": (
        "repro.stats.welch",
        "welch_satterthwaite_df_batch",
        None,
    ),
    "stats.student_t_two_tailed_pvalue_batch": (
        "repro.stats.tdist",
        "student_t_two_tailed_pvalue_batch",
        lambda a, k, r: {"elements": int(r.size)},
    ),
    "subspaces.contrast_many": (
        "repro.subspaces.contrast",
        "ContrastEstimator.contrast_many",
        lambda a, k, r: {"subspaces": len(r)},
    ),
    "subspaces.contrast_cache_get": (
        "repro.subspaces.contrast",
        "ContrastCache.get",
        lambda a, k, r: {"hits": int(r is not None)},
    ),
    "subspaces.generate_candidates": ("repro.subspaces.apriori", "generate_candidates", None),
    "subspaces.apply_cutoff": ("repro.subspaces.apriori", "apply_cutoff", None),
    "subspaces.prune_redundant_subspaces": (
        "repro.subspaces.pruning",
        "prune_redundant_subspaces",
        lambda a, k, r: {"input_size": len(a[0])},
    ),
    "neighbors.kneighbors": ("repro.neighbors.engine", "SharedNeighborEngine.kneighbors", None),
    "neighbors.squared_difference_block": (
        "repro.neighbors.distance",
        "squared_difference_block",
        lambda a, k, r: {"cells": int(r.size), "computed_bytes": int(r.nbytes)},
    ),
    "neighbors.top_k_smallest": (
        "repro.neighbors.topk",
        "top_k_smallest",
        lambda a, k, r: {"rows": _rows(a[0])},
    ),
    "neighbors.query_distances": (
        "repro.neighbors.engine",
        "SharedNeighborEngine.query_distances",
        None,
    ),
    "outliers.score_batch": ("repro.outliers.lof", "LOFScorer.score_batch", None),
    "outliers.score_samples_independent": (
        "repro.outliers.lof",
        "LOFScorer.score_samples_independent",
        lambda a, k, r: {"rows": _rows(a[1])},
    ),
    "outliers.aggregate_scores": ("repro.outliers.aggregation", "aggregate_scores", None),
    "pipeline.fit": ("repro.pipeline.pipeline", "SubspaceOutlierPipeline.fit", None),
    "pipeline.save": ("repro.pipeline.pipeline", "SubspaceOutlierPipeline.save", None),
    "pipeline.load": ("repro.pipeline.pipeline", "SubspaceOutlierPipeline.load", None),
    # Body parsing only: read_request spans would mostly time idle
    # keep-alive connections waiting for the client's next request.
    "serving.request_json": ("repro.serving.http", "Request.json", None),
    "serving.json_response": ("repro.serving.http", "json_response", None),
    "serving.submit": ("repro.serving.batching", "MicroBatcher.submit", None),
    "serving.model_score": (
        "repro.serving.registry",
        "ModelVersion.score",
        lambda a, k, r: {"rows": _rows(a[1])},
    ),
}


def make_wrapper(tracer: Tracer, name: str, func: Callable, counter: Optional[Counter] = None):
    """A span-recording stand-in for ``func`` (sync or coroutine function)."""
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            span, token = tracer.open(name)
            try:
                result = await func(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span, token = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        return result

    return wrapper


def _wrap_member(tracer: Tracer, name: str, member, counter: Optional[Counter]):
    """Wrap a raw class-``__dict__`` member, keeping its descriptor kind."""
    if isinstance(member, classmethod):
        return classmethod(make_wrapper(tracer, name, member.__func__, counter))
    return make_wrapper(tracer, name, member, counter)


def _rebind(old: object, new: object) -> None:
    """Point every loaded ``repro.*`` module binding of ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for binding, value in list(vars(module).items()):
            if value is old:
                setattr(module, binding, new)


@contextlib.contextmanager
def traced(tracer: Tracer, names: Optional[Sequence[str]] = None) -> Iterator[Tracer]:
    """Install span wrappers for ``names`` (default: all :data:`TARGETS`).

    Functions are replaced in every loaded ``repro.*`` module that bound the
    original object; methods and classmethods are replaced on
    the class that defines them.  Every original is put back on exit, also
    in modules first imported while tracing was on.
    """
    members: List[Tuple[type, str, object]] = []
    functions: List[Tuple[object, object]] = []
    try:
        for name in names if names is not None else TARGETS:
            module_name, qualname, counter = TARGETS[name]
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                members.append((owner, attr, original))
                setattr(owner, attr, _wrap_member(tracer, name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = make_wrapper(tracer, name, original, counter)
            functions.append((wrapper, original))
            _rebind(original, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(members):
            setattr(owner, attr, original)
        for wrapper, original in functions:
            _rebind(wrapper, original)


def import_serving_modules() -> None:
    """Import every module whose bindings :func:`traced` must see."""
    for module_name, _, _ in TARGETS.values():
        importlib.import_module(module_name)
    importlib.import_module("repro.serving.server")
    importlib.import_module("repro.cli")


# ----------------------------------------------------------- arithmetic


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children are clipped to their parent's interval and overlapping children
    (concurrent awaits) are counted once, so self time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        s.id: s.duration - _union_length([c for c in children.get(s.id, []) if c[1] > c[0]])
        for s in spans
    }


def _outermost(spans: Sequence[Span]) -> List[Span]:
    """Spans with no ancestor of the same name (recursion counted once)."""
    by_id = {s.id: s for s in spans}
    result = []
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            result.append(span)
    return result


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``total_s`` (outermost spans), ``self_s``, ``calls``
    and every counter summed over calls."""
    selfs = self_times(spans)
    outer_ids = {s.id for s in _outermost(spans)}
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        if span.id in outer_ids:
            row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
        row["calls"] += 1
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return table


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer (the span-name prefix before the dot)."""
    selfs = self_times(spans)
    layers: Dict[str, float] = {}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[span.id]
    return layers


def kneighbors_memo_hits(spans: Sequence[Span]) -> int:
    """``kneighbors`` calls answered from the engine memo: no top-k below them."""
    parents_of_topk = {s.parent for s in spans if s.name == "neighbors.top_k_smallest"}
    return sum(
        1 for s in spans if s.name == "neighbors.kneighbors" and s.id not in parents_of_topk
    )


def covered_by(span: Span, others: Sequence[Span]) -> float:
    """Length of ``span``'s interval covered by ``others`` (any thread)."""
    return _union_length(
        [
            (max(o.start, span.start), min(o.end, span.end))
            for o in others
            if o.end > span.start and o.start < span.end
        ]
    )
