"""In-memory span tracer that wraps arrayneat functions where their callers look them up.

``install`` replaces module attributes such as ``evolution.reproduce`` or
``problems.forward_arrays`` with wrappers that record one span per call: name,
start, end, parent span, thread and generation id.  Spans stay in memory until
``write`` dumps them at the end of a run; ``self_times`` turns them into the
time each layer spent outside the layers it called.

``parallel.chunk`` spans (one per ``run_chunked`` chunk) are transparent: the
work in a chunk belongs to the layer that called ``run_chunked``, so a chunk
does not reduce its caller's self time; the layers called inside the chunk do.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

CHUNK = "parallel.chunk"
_CALLER = object()  # parent marker: the span open on the calling thread


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    generation: int
    start: float
    end: float = float("nan")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child layers.

    Children of a transparent chunk span count as children of the chunk's
    parent.  Child intervals are clipped to the parent and merged, so children
    running at the same time on several threads are not subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    def covering(span: Span) -> list[tuple[float, float]]:
        out = []
        for child in children[span.id]:
            if child.name == CHUNK:
                out.extend(covering(child))
            else:
                out.append((child.start, child.end))
        return out

    result = {}
    for span in spans:
        clipped = [(max(a, span.start), min(b, span.end)) for a, b in covering(span)]
        covered = _union_length([(a, b) for a, b in clipped if b > a])
        result[span.id] = (span.end - span.start) - covered
    return result


class Tracer:
    """Collects spans and counters from wrapped arrayneat functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.chunked: list[tuple[float, list[float]]] = []  # (run_chunked wall, chunk busy)
        self.generation = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1].id if stack else None

    @contextmanager
    def span(self, name: str, parent=_CALLER):
        stack = self._stack()
        if parent is _CALLER:
            parent = stack[-1].id if stack else None
        span = Span(next(self._ids), name, parent, threading.get_ident(),
                    self.generation, time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, values: dict[str, float]) -> None:
        with self._lock:
            for name, value in values.items():
                self.counters[name] += value

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``before(args)`` and ``after(args, result)`` return counter
        increments; ``before`` runs first because some layers mutate their
        arguments in place.  Both run outside the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            counts = before(args) if before else None
            with self.span(name):
                result = original(*args, **kwargs)
            if counts:
                self.count(counts)
            if after:
                self.count(after(args, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_chunked(self, owner) -> None:
        """Trace ``owner.run_chunked``: a chunk span per chunk, plus its balance."""
        original = owner.run_chunked

        @functools.wraps(original)
        def traced(total, threads, sequential, work):
            caller = self.current()
            busy: list[float] = []

            def chunk(lo, hi):
                with self.span(CHUNK, parent=caller) as span:
                    work(lo, hi)
                busy.append(span.end - span.start)

            start = time.perf_counter()
            original(total, threads, sequential, chunk)
            wall = time.perf_counter() - start
            with self._lock:
                self.chunked.append((wall, busy))

        owner.run_chunked = traced
        self._patches.append((owner, "run_chunked", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Span name -> (summed self seconds, call count)."""
        own = self_times(self.spans)
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span in self.spans:
            totals[span.name][0] += own[span.id]
            totals[span.name][1] += 1
        return {name: (t[0], t[1]) for name, t in totals.items()}

    def chunk_balance(self) -> tuple[float, float]:
        """(sum of max chunk busy / sum of mean chunk busy, summed overhead seconds).

        Overhead is each run_chunked wall time minus its longest chunk.
        """
        max_sum = mean_sum = overhead = 0.0
        for wall, busy in self.chunked:
            max_sum += max(busy)
            mean_sum += sum(busy) / len(busy)
            overhead += wall - max(busy)
        return max_sum / mean_sum, overhead

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# the arrayneat layers
# ---------------------------------------------------------------------------

class _ForwardShape:
    """Counts for one stacked population, reused while the same object is passed.

    Cart-pole calls forward_arrays once per timestep on the same networks.
    The cache holds a weak reference so traced runs keep no extra arrays alive.
    """

    def __init__(self):
        self._cache = (lambda: None, (0, 0, 0, 0))

    def __call__(self, args) -> dict[str, float]:
        stacked, _, inputs = args
        ref, counts = self._cache
        if ref() is not stacked:
            order = stacked.order
            pop, n = order.shape
            live = ~np.isnan(order)
            rows = np.where(live, order, 0.0).astype(np.int64)
            is_input = np.zeros((pop, n), dtype=bool)
            np.put_along_axis(is_input, stacked.input_rows, True, axis=1)
            computes = live & ~np.take_along_axis(is_input, rows, axis=1)
            # the sweep stops at the first order column that is NaN everywhere
            swept = int(live.any(axis=0).sum())
            counts = (int(computes.sum()), pop * swept,
                      int(computes.any(axis=0).sum()), pop * n)
            self._cache = (weakref.ref(stacked), counts)  # one assignment: thread safe
        useful, slots, compute_steps, pop_n = counts
        # each non-input step forms a (P, B, n) float64 product
        return {"inference.forward.useful": useful,
                "inference.forward.slots": slots,
                "inference.forward.bytes_computed": compute_steps * pop_n * inputs.shape[1] * 8}


def _full_genomes(args) -> dict[str, float]:
    nodes, conns = args[0], args[1]
    return {"evolution.mutate.full_nodes": int((~np.isnan(nodes[:, :, 0])).all(axis=1).sum()),
            "evolution.mutate.full_conns": int((~np.isnan(conns[:, :, 0])).all(axis=1).sum())}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; ``tracer.uninstall()`` restores the originals."""
    from arrayneat import evolution, inference, problems, runner

    tracer.wrap(problems.Problem, "evaluate_population_tensors", "problems.evaluate")
    tracer.wrap(problems, "transform_arrays", "inference.transform")
    tracer.wrap(problems, "forward_arrays", "inference.forward", before=_ForwardShape())
    tracer.wrap(evolution, "distance_arrays", "evolution.distance",
                before=lambda a: {"evolution.distance.pairs": max(a[0].shape[0], a[2].shape[0])})
    tracer.wrap(evolution, "match_aligned", "search.match")
    tracer.wrap(evolution, "match_rows", "search.match")
    tracer.wrap(inference, "rows_of_io_keys", "search.resolve")
    tracer.wrap(evolution, "rows_of_io_keys", "search.resolve")
    tracer.wrap(evolution, "speciate", "evolution.speciate",
                after=lambda a, r: {"evolution.speciate.species": len(r[1])})
    tracer.wrap(evolution, "reproduce", "evolution.reproduce")
    tracer.wrap(evolution, "_crossover_into", "evolution.crossover")
    tracer.wrap(evolution, "mutate_arrays", "evolution.mutate", before=_full_genomes,
                after=lambda a, r: {"evolution.mutate.node_add_applied": int(r[2].sum())})
    tracer.wrap(evolution, "update_stagnation", "evolution.select")
    tracer.wrap(evolution, "allocate_spawns", "evolution.select")
    tracer.wrap(runner, "save_checkpoint", "runner.checkpoint",
                after=lambda a, r: {"runner.checkpoint.bytes": os.path.getsize(a[0])})
    tracer.wrap_chunked(evolution)
    tracer.wrap_chunked(problems)
