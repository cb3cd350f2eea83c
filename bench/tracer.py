"""Spans and counts around the calls into each affgraph layer.

The tracer replaces module attributes that callers look up at call time
(for example ``affgraph.pipeline.build_semantic_depth_map``, which
``compute_frame_relations`` resolves from its module globals) with wrappers
that record a span per call, and puts the originals back on ``restore``.
Nothing inside the program is edited: a span starts when the caller enters
the public function and ends when it returns.

Spans live in memory as ``[name, start, end, parent, value]`` lists; ``value``
is what the hook derived from the call (an item count, or the canonical form
for distinct-form counting).  ``Tracer.dump`` writes them out at exit.

Which end-to-end metric each layer's figures should move, and where:

    layer        metrics                          moves                 on
    synth        synth.*                          setup_s               embed-60
    scene, convexity, qsr, temporal, graphlet     run_s                 embed-60 (a small
                 (scene.*, convexity.*, ...)                            share of the op)
    embedding    embedding.*                      run_s                 embed-60 only
    clustering   clustering.*                     run_s, peak_rss_mb    cluster-300; a
                                                                        little of embed-60
    evaluation   evaluation.s                     nothing expected      both
    pipeline     pipeline.io_s, .artifact_bytes,  run_s                 embed-60, cluster-300
                 .self_s

Layer times are inclusive, except ``pipeline.io_s`` (the artifact writes
and read-backs, less the canonical forms computed inside them) and
``pipeline.self_s`` (the op less every wrapped call: CLI and
``run_pipeline`` glue, and the writes they do inline).  A layer the
workload never enters reports 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Optional


def _len(result, args, kwargs) -> int:
    return len(result)


def _train_pairs(result, args, kwargs) -> int:
    # train(corpus_ids, corpus_tokens, vocab, cfg): one (graph, token) pair per
    # token occurrence, visited once per epoch
    corpus_tokens = kwargs["corpus_tokens"] if "corpus_tokens" in kwargs else args[1]
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return sum(sum(c.values()) for c in corpus_tokens) * cfg.epochs


def _frames(result, args, kwargs) -> int:
    return result.scene.frame_count


def _form(result, args, kwargs) -> str:
    return result


# (module, attribute, span name, hook deriving the span's value).  The
# attribute is the name the caller resolves, so the module is the caller's.
WRAPPED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("affgraph.synth", "generate_synthetic", "synth.generate", _frames),
    ("affgraph.cli", "load_scene", "scene.load", None),
    ("affgraph.pipeline", "build_semantic_depth_map", "scene.depth_map", None),
    ("affgraph.pipeline", "deep_region", "convexity", None),
    ("affgraph.pipeline", "object_convexity", "convexity", None),
    ("affgraph.pipeline", "track_convexity", "convexity", None),
    ("affgraph.pipeline", "convexity_depth", "convexity", None),
    ("affgraph.pipeline", "disr", "qsr", lambda r, a, k: 2),
    ("affgraph.pipeline", "rcc2", "qsr", lambda r, a, k: 1),
    ("affgraph.pipeline", "rcc5_on", "qsr", lambda r, a, k: 1),
    ("affgraph.pipeline", "extract_episodes", "temporal", _len),
    ("affgraph.pipeline", "build_agraphlets", "graphlet.build", _len),
    ("affgraph.pipeline", "canonical_form", "graphlet.canonical", _form),
    ("affgraph.pipeline", "save_graphlet_corpus", "pipeline.io", None),
    ("affgraph.pipeline", "load_graphlet_corpus", "pipeline.io", None),
    ("affgraph.pipeline", "parse_canonical", "pipeline.io", None),
    ("affgraph.pipeline", "v_measure", "evaluation", None),
    ("affgraph.cli", "v_measure", "evaluation", None),
    ("affgraph.embedding", "wl_tokens", "embedding.wl", None),
    ("affgraph.embedding", "build_vocabulary", "embedding.vocab", _len),
    ("affgraph.embedding", "train", "embedding.train", _train_pairs),
    ("affgraph.embedding", "save_vocabulary", "pipeline.io", None),
    ("affgraph.embedding", "save_embeddings", "pipeline.io", None),
    ("affgraph.embedding", "load_embeddings", "pipeline.io", None),
    ("affgraph.clustering", "pairwise_cosine_costs", "clustering.distance", None),
    ("affgraph.clustering", "hierarchical_cluster", "clustering.linkage", None),
    ("affgraph.clustering", "select_threshold", "clustering.select", None),
    ("affgraph.clustering", "cut", "clustering.cut", None),
    ("affgraph.clustering", "export_dendrogram_json", "pipeline.io", None),
)


def module_state() -> dict[str, dict[str, Any]]:
    """Every attribute of every loaded affgraph module, by identity."""
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "affgraph" or name.startswith("affgraph.")
    }


def changed_attributes(before: dict, after: dict) -> list[str]:
    """``module.attr`` names whose object differs between two snapshots."""
    out = []
    for mod in sorted(set(before) | set(after)):
        a, b = before.get(mod, {}), after.get(mod, {})
        out.extend(f"{mod}.{k}" for k in sorted(set(a) | set(b))
                   if k not in a or k not in b or a[k] is not b[k])
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself (one op, one setup)."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, orig: Callable, name: str, hook: Optional[Callable]) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.spans[idx][4] = hook(result, args, kwargs)
            return result
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, hook in WRAPPED:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, hook))

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- derived figures ---------------------------------------------------

    def under(self, root: int) -> list[int]:
        """Indices of the spans nested inside span ``root``."""
        end = self.spans[root][2]
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][1] >= end:
                break
            out.append(i)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, indices: list[int], own: list[float]) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds, self seconds, values."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "values": []})
        for i in indices:
            name, start, end, _, value = self.spans[i]
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += own[i]
            if value is not None:
                row["values"].append(value)
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans and their per-name self times as JSON."""
        own = self.self_times()
        table = self.summary(list(range(len(self.spans))), own)
        payload = dict(extra)
        payload["by_name"] = {
            name: {"calls": r["calls"], "s": r["s"], "self_s": r["self_s"]}
            for name, r in sorted(table.items())
        }
        payload["spans"] = [
            [name, start, end, parent] for name, start, end, parent, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _vsum(row: dict):
    return sum(row["values"])


def layer_figures(tracer: Tracer, op: int) -> dict[str, float]:
    """Per-layer figures for one traced op (span index ``op``)."""
    own = tracer.self_times()
    t = tracer.summary(tracer.under(op), own)
    forms = t["graphlet.canonical"]["values"]
    train_s = t["embedding.train"]["s"]
    pairs = _vsum(t["embedding.train"])
    return {
        "scene.load_s": t["scene.load"]["s"],
        "scene.depth_map_s": t["scene.depth_map"]["s"],
        "scene.depth_map.calls": t["scene.depth_map"]["calls"],
        "convexity.s": t["convexity"]["s"],
        "convexity.calls": t["convexity"]["calls"],
        "qsr.s": t["qsr"]["s"],
        "qsr.relations": _vsum(t["qsr"]),
        "temporal.s": t["temporal"]["s"],
        "temporal.episodes": _vsum(t["temporal"]),
        "graphlet.build_s": t["graphlet.build"]["s"],
        "graphlet.canonical_s": t["graphlet.canonical"]["s"],
        "graphlet.count": _vsum(t["graphlet.build"]),
        "graphlet.distinct_ratio": len(set(forms)) / len(forms) if forms else 0.0,
        "embedding.wl_s": t["embedding.wl"]["s"],
        "embedding.vocab_size": _vsum(t["embedding.vocab"]),
        "embedding.train_s": train_s,
        "embedding.train_pairs": pairs,
        "embedding.train_pairs_per_s": pairs / train_s if train_s > 0 else 0.0,
        "clustering.distance_s": t["clustering.distance"]["s"],
        "clustering.linkage_s": t["clustering.linkage"]["s"],
        "clustering.select_s": t["clustering.select"]["s"],
        "clustering.cut_s": t["clustering.cut"]["s"],
        "clustering.cut.calls": t["clustering.cut"]["calls"],
        "evaluation.s": t["evaluation"]["s"],
        "pipeline.io_s": t["pipeline.io"]["self_s"],
        "pipeline.self_s": own[op],
    }


def setup_figures(tracer: Tracer, setup: int) -> dict[str, float]:
    t = tracer.summary(tracer.under(setup), tracer.self_times())
    return {
        "synth.generate_s": t["synth.generate"]["s"],
        "synth.frames": _vsum(t["synth.generate"]),
    }


def median_figures(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
