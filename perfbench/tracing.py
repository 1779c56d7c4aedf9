"""Outside-in tracing of the tripleforge layers.

``instrument`` temporarily replaces the public names the pipeline module
imports (and a few methods) with wrappers that record a span per call.  The
two very hot, tiny calls (``set_distance`` and ``HashingEmbedder.embed``)
get a call count and a total time instead of one span each.  Nothing inside
``src/`` changes: private helpers such as ``_ranked_pool`` or
``_complete_all`` show up only in their caller's self time.
"""
from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

STAGE_NAMES = ("preextract", "distances", "train", "select", "run", "eval", "cost")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span and counter store for one traced pass.

    A thread with no open span of its own (a gateway worker) takes the
    innermost open span of the thread that created the tracer as its parent,
    which during a stage is the stage span.
    """

    run_id: str
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, list[float]] = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    values: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        enclosing = stack or self._owner_stack
        parent = enclosing[-1] if enclosing else None
        with self._lock:
            record = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                          parent, self.run_id)
            self.spans.append(record)
        stack.append(record.id)
        try:
            yield
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def count(self, name: str, seconds: float) -> None:
        with self._lock:
            counter = self.counters[name]
            counter[0] += 1
            counter[1] += seconds

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount


def covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover;
    overlapping children (worker threads) count once."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id]) for s in spans}


# --- instrumentation ----------------------------------------------------------

def _spanned(tracer: Tracer, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(name, time.perf_counter() - started)
    return wrapper


def _on_selection(tracer, _args, result) -> None:
    tracer.add("selection.checked", result.checked_count)
    tracer.add("selection.chosen", len(result.chosen))


def _on_completion(tracer, _args, response) -> None:
    tracer.add("gateway.cache_hits", response.from_cache)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route the pipeline's calls into each layer through ``tracer`` for the
    duration of the block; every replaced attribute is restored on exit."""
    from tripleforge import gateway, pipeline, retriever, similarity

    saved: list[tuple[object, str, object]] = []
    stages = dict(pipeline.STAGES)

    def replace(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def spanned(owner, attr: str, name: str, on_result=None) -> None:
        replace(owner, attr, lambda fn: _spanned(tracer, name, fn, on_result))

    try:
        for attr, name in (
            ("load_dataset", "core.load_dataset"),
            ("pool_distances", "similarity.pool_distances"),
            ("train_retriever", "retriever.train_retriever"),
            ("compute_P", "retriever.compute_P"),
            ("save_checkpoint", "retriever.checkpoint_save"),
            ("load_checkpoint", "retriever.checkpoint_load"),
            ("order_demonstrations", "selection.order"),
            ("render_zero_shot", "prompting.render"),
            ("render_few_shot", "prompting.render"),
            ("micro_f1", "evaluation.micro_f1"),
            ("cost_report", "evaluation.cost_report"),
        ):
            spanned(pipeline, attr, name)
        for attr, name in (("select_top_k", "selection.topk"),
                           ("select_balance", "selection.balance"),
                           ("select_coverage", "selection.coverage"),
                           ("select_random", "selection.random")):
            spanned(pipeline, attr, name, _on_selection)
        spanned(pipeline, "parse_output", "prompting.parse",
                lambda t, _a, r: t.add("prompting.skipped_rows", r.skipped_rows))
        spanned(retriever, "train", "retriever.fit",
                lambda t, a, _r: t.add("retriever.epochs", a[2].epochs))
        spanned(retriever, "make_training_pairs", "retriever.make_training_pairs",
                lambda t, _a, r: t.add("retriever.train_pairs", len(r.train)))
        spanned(similarity.PoolDistanceMatrix, "save", "similarity.matrix_save")
        spanned(similarity.PoolDistanceMatrix, "load", "similarity.matrix_load")
        spanned(retriever.PairwiseDistanceSet, "save", "retriever.pairwise_save")
        spanned(retriever.PairwiseDistanceSet, "load", "retriever.pairwise_load")
        spanned(gateway.LlmGateway, "complete", "gateway.complete", _on_completion)
        spanned(gateway.MockEchoGoldProvider, "generate", "gateway.provider")
        for owner in (similarity, pipeline):
            replace(owner, "set_distance",
                    lambda fn: _counted(tracer, "similarity.set_distance", fn))
        replace(similarity.HashingEmbedder, "embed",
                lambda fn: _counted(tracer, "similarity.embed", fn))
        for stage, fn in stages.items():
            pipeline.STAGES[stage] = _spanned(tracer, f"pipeline.{stage}", fn)
        yield
    finally:
        pipeline.STAGES.update(stages)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics --------------------------------------------------------

def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by name."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own = self_times(tracer.spans)
    self_total: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        self_total[s.name] += own[s.id]
    values = tracer.values
    set_calls, _ = tracer.counters["similarity.set_distance"]
    embed_calls, embed_s = tracer.counters["similarity.embed"]
    complete_ms = [s.duration * 1e3 for s in tracer.spans if s.name == "gateway.complete"]
    completes = calls["gateway.complete"]
    hits = values["gateway.cache_hits"]

    out = {
        "similarity.pool_distances_s": total["similarity.pool_distances"],
        "similarity.set_distance_calls": set_calls,
        "similarity.embed_calls": embed_calls,
        "similarity.embed_s": embed_s,
        "similarity.matrix_save_s": total["similarity.matrix_save"],
        "similarity.matrix_load_s": total["similarity.matrix_load"],
        "retriever.train_s": total["retriever.train_retriever"],
        "retriever.epoch_s": (total["retriever.fit"] / values["retriever.epochs"]
                              if values["retriever.epochs"] else 0.0),
        "retriever.train_pairs": values["retriever.train_pairs"],
        "retriever.compute_P_s": total["retriever.compute_P"],
        "retriever.pairwise_save_s": total["retriever.pairwise_save"],
        "retriever.pairwise_load_s": total["retriever.pairwise_load"],
        "retriever.checkpoint_save_s": total["retriever.checkpoint_save"],
        "retriever.checkpoint_load_s": total["retriever.checkpoint_load"],
        "selection.coverage_s": total["selection.coverage"],
        "selection.topk_s": total["selection.topk"],
        "selection.balance_s": total["selection.balance"],
        "selection.checked_per_annotated": (values["selection.checked"] / values["selection.chosen"]
                                            if values["selection.chosen"] else 0.0),
        "selection.order_s": total["selection.order"],
        "gateway.complete_calls": completes,
        "gateway.complete_s": total["gateway.complete"],
        "gateway.complete_p50_ms": _percentile(complete_ms, 50),
        "gateway.complete_p99_ms": _percentile(complete_ms, 99),
        "gateway.provider_calls": calls["gateway.provider"],
        "gateway.provider_s": total["gateway.provider"],
        "gateway.cache_hit_ratio": hits / completes if completes else 0.0,
        # every attempt past the first on a cache miss is a retry
        "gateway.retries": calls["gateway.provider"] - (completes - hits),
        "prompting.render_calls": calls["prompting.render"],
        "prompting.render_s": total["prompting.render"],
        "prompting.parse_calls": calls["prompting.parse"],
        "prompting.parse_s": total["prompting.parse"],
        "prompting.skipped_rows": values["prompting.skipped_rows"],
        "core.load_dataset_calls": calls["core.load_dataset"],
        "core.load_dataset_s": total["core.load_dataset"],
        "evaluation.micro_f1_s": total["evaluation.micro_f1"],
        "evaluation.cost_report_s": total["evaluation.cost_report"],
    }
    for stage in STAGE_NAMES:
        out[f"pipeline.{stage}_s"] = total[f"pipeline.{stage}"]
        out[f"pipeline.{stage}_self_s"] = self_total[f"pipeline.{stage}"]
    return out
