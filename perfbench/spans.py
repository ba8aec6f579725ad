"""In-memory span recording around the package's public layer functions.

The traced benchmark run wraps the functions each layer exposes, from the
benchmark's own files; the package source is untouched. A span is
(name, start, end, parent), kept in flat lists and written out once the run
ends. A layer's self time is its spans' duration minus the part of each span
that its child spans cover.

Per-pair hot calls (``WeightCalculator.weight``, over half a million per
sampled-wpc run) are only counted, never timed, so the trace does not add
two clock reads to each of them.

Forked pool workers inherit the wrappers. Their spans stay in the worker and
roll up into the parent's ``evaluation.pool`` span, but their counts are
shipped back with each chunk's result and merged, so counts cover every
process.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import numpy as np

# Span names of the protocol: the root and every layer below it.
ROOT = "evaluation.run_experiment"
POOL = "evaluation.pool"
PROTOCOL_LAYERS = {
    ROOT: "evaluation.fold_self_s",
    "evaluation.split_folds": "evaluation.split_folds_s",
    POOL: "evaluation.pool_s",
    "data.build_matrix": "data.build_matrix_s",
    "weighting.calculator_init": "weighting.calculator_init_s",
    "weighting.weights_for": "weighting.weights_for_s",
    "cf.rank_candidates": "cf.rank_candidates_s",
    "cf.predict": "cf.predict_s",
}
SETUP_LAYERS = {
    "ingest.parse_ratings": "ingest.parse_ratings_s",
    "ingest.load_profiles": "ingest.load_profiles_s",
}


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]
        self.counts: Counter[str] = Counter()
        self.rank_ms: list[float] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.starts)
        self.name_of.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> float:
        end = perf_counter()
        self.ends[idx] = end
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (open: {popped})")
        self.counts[self.names[self.name_of[idx]] + ".calls"] += 1
        return end - self.starts[idx]

    def timed(self, name: str, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(args, result, seconds)`` sees each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.close(idx)
            if observe is not None:
                observe(args, result, seconds)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call bumps a counter, with no clock read."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.name_of, dtype=np.int64),
            np.asarray(self.starts, dtype=np.float64),
            np.asarray(self.ends, dtype=np.float64),
            np.asarray(self.parents, dtype=np.int64),
        )

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        name_of, starts, ends, parents = self.span_arrays()
        own = self_times(starts, ends, parents)
        totals = np.bincount(name_of, weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as JSON: a name table and [name, start, end, parent] rows."""
        name_of, starts, ends, parents = self.span_arrays()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": [
                        [int(n), float(s), float(e), int(p)]
                        for n, s, e, p in zip(name_of, starts, ends, parents)
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals inside it.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    own = ends - starts
    children = np.flatnonzero(parents >= 0)
    order = children[np.lexsort((starts[children], parents[children]))]
    parent = -1
    covered_to = 0.0
    for c in order.tolist():
        p = int(parents[c])
        if p != parent:
            parent, covered_to = p, float(starts[p])
        lo = max(float(starts[c]), covered_to)
        hi = min(float(ends[c]), float(ends[p]))
        if hi > lo:
            own[p] -= hi - lo
            covered_to = hi
    return own


class _ChunkResult(tuple):
    """A worker's chunk result carrying the counts it added, for the parent to merge."""

    counts: dict
    rank_ms: list


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the imported ``contentcf`` package, process-wide."""
    from concurrent.futures import ProcessPoolExecutor

    from contentcf import evaluation, ingest, weighting

    def scored(args, result, seconds):
        tracer.counts["cf.candidates_scored"] += len(result)
        tracer.rank_ms.append(seconds * 1e3)

    def used(args, result, seconds):
        tracer.counts["cf.neighbors_used"] += result.n_neighbors

    ingest.parse_ratings = tracer.timed("ingest.parse_ratings", ingest.parse_ratings)
    ingest.load_profiles = tracer.timed("ingest.load_profiles", ingest.load_profiles)
    evaluation.run_experiment = tracer.timed(ROOT, evaluation.run_experiment)
    evaluation.split_folds = tracer.timed("evaluation.split_folds", evaluation.split_folds)
    evaluation.build_matrix = tracer.timed("data.build_matrix", evaluation.build_matrix)
    evaluation.rank_candidates = tracer.timed(
        "cf.rank_candidates", evaluation.rank_candidates, scored
    )
    evaluation.predict = tracer.timed("cf.predict", evaluation.predict, used)

    calc = weighting.WeightCalculator
    calc.__init__ = tracer.timed("weighting.calculator_init", calc.__init__)
    calc.weight = tracer.counted("weighting.weights_computed", calc.weight)
    timed_weights_for = tracer.timed("weighting.weights_for", calc.weights_for)

    @functools.wraps(calc.weights_for)
    def weights_for(self, target_id, candidates):
        candidates = list(candidates)
        tracer.counts["weighting.weights_requested"] += len(candidates)
        return timed_weights_for(self, target_id, candidates)

    calc.weights_for = weights_for

    original_chunk = evaluation._eval_chunk

    @functools.wraps(original_chunk)
    def eval_chunk(chunk):
        before = Counter(tracer.counts)
        first_rank = len(tracer.rank_ms)
        result = _ChunkResult(original_chunk(chunk))
        result.counts = dict(tracer.counts - before)
        result.rank_ms = tracer.rank_ms[first_rank:]
        return result

    evaluation._eval_chunk = eval_chunk

    class TracedPool(ProcessPoolExecutor):
        """The pool's lifetime as one span; merges the counts workers send back."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.open(POOL)
            try:
                super().__init__(*args, **kwargs)
            except BaseException:
                tracer.close(self._span)
                raise

        def map(self, fn, *iterables, **kwargs):
            for result in super().map(fn, *iterables, **kwargs):
                tracer.counts.update(result.counts)
                tracer.rank_ms.extend(result.rank_ms)
                yield result

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    evaluation.ProcessPoolExecutor = TracedPool


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced process, and the protocol time no layer claims.

    The protocol layers' self times partition the root span, so the second
    value is zero up to float rounding when every span below the root is a
    known layer.
    """
    own = tracer.self_seconds()
    layers = {**SETUP_LAYERS, **PROTOCOL_LAYERS}
    out = {metric: own.get(span, 0.0) for span, metric in layers.items()}
    counts = tracer.counts
    requested = counts["weighting.weights_requested"]
    computed = counts["weighting.weights_computed"]
    rank_ms = np.asarray(tracer.rank_ms) if tracer.rank_ms else np.zeros(1)
    out.update(
        {
            "data.build_matrix.calls": counts["data.build_matrix.calls"],
            "weighting.weights_for.calls": counts["weighting.weights_for.calls"],
            "weighting.weights_requested": requested,
            "weighting.weights_computed": computed,
            "weighting.memo_hit_ratio": (1.0 - computed / requested) if requested else 0.0,
            "cf.rank_candidates.calls": counts["cf.rank_candidates.calls"],
            "cf.rank_candidates_ms.p50": float(np.percentile(rank_ms, 50)),
            "cf.rank_candidates_ms.p99": float(np.percentile(rank_ms, 99)),
            "cf.candidates_scored": counts["cf.candidates_scored"],
            "cf.predict.calls": counts["cf.predict.calls"],
            "cf.neighbors_used": counts["cf.neighbors_used"],
        }
    )
    root = tracer.names.index(ROOT)
    protocol_s = sum(
        e - s for n, s, e in zip(tracer.name_of, tracer.starts, tracer.ends) if n == root
    )
    out["trace.protocol_s"] = protocol_s
    return out, protocol_s - sum(out[m] for m in PROTOCOL_LAYERS.values())
