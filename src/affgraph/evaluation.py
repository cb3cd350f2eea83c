"""Clustering quality metrics against groundtruth labels, plus PCA export."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def _entropy(counts: Counter, total: int) -> float:
    return -sum((c / total) * math.log(c / total) for c in counts.values() if c)


def v_measure(
    truth: dict[str, list[str]], predicted: dict[str, int]
) -> tuple[float, float, float]:
    """(homogeneity, completeness, V) of the ``predicted`` cluster ids against
    the ``truth`` label lists, both keyed by graph id.

    Each label of a graph is one (label, cluster) datapoint; a graph without
    labels, or without a cluster, is left out.
    """
    pairs = [(label, predicted[gid]) for gid in sorted(truth) if gid in predicted
             for label in truth[gid]]
    if not pairs:
        raise ValueError("no labeled datapoints to evaluate")
    n = len(pairs)
    class_counts = Counter(label for label, _ in pairs)
    cluster_counts = Counter(cluster for _, cluster in pairs)
    joint = Counter(pairs)

    h_class = _entropy(class_counts, n)
    h_cluster = _entropy(cluster_counts, n)
    h_class_given_cluster = 0.0
    h_cluster_given_class = 0.0
    for (label, cluster), c in joint.items():
        p = c / n
        h_class_given_cluster -= p * math.log(c / cluster_counts[cluster])
        h_cluster_given_class -= p * math.log(c / class_counts[label])

    # Conditional entropy never exceeds the marginal; clamp the rounding
    # (independent labels give 1 - x/x = -2e-16) back into [0, 1].
    h = 1.0 if h_class == 0 else min(1.0, max(0.0, 1.0 - h_class_given_cluster / h_class))
    c = 1.0 if h_cluster == 0 else min(1.0, max(0.0, 1.0 - h_cluster_given_class / h_cluster))
    v = 0.0 if h + c == 0 else 2.0 * h * c / (h + c)
    return h, c, v


def pca_project(vectors: np.ndarray, k: int) -> np.ndarray:
    """Mean-centered projection onto the top-k principal components.

    Component signs are fixed by making each component's largest-magnitude
    coordinate positive. Degenerate directions are zero-padded.
    """
    x = np.asarray(vectors, dtype=float)
    n, dim = x.shape
    if k > dim:
        raise ValueError(f"k={k} exceeds embedding dimension {dim}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} points for k={k}")
    centered = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    comps = vt[:k].copy()
    for i in range(min(k, rank)):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    proj = centered @ comps.T
    if rank < k:
        proj[:, rank:] = 0.0
    return proj


def metrics_report(h: float, c: float, v: float) -> str:
    return (f"homogeneity  {h:.4f}\n"
            f"completeness {c:.4f}\n"
            f"v_measure    {v:.4f}\n")
