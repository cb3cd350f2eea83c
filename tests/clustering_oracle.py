"""Reference clustering: the straightforward loop versions of the stage functions.

``affgraph.clustering`` computes the same results with dense-matrix and
single-sweep algorithms; the tests compare the two on random and tied inputs.
Here the cosine matrix is one ``cosine_cost`` call per pair, agglomeration
scans every active pair for the minimum key at each step (O(n^3)), ``cut``
recomputes each subtree's largest internal height recursively, and
``select_threshold`` cuts and rescores the whole tree at every candidate.
``sed_distance`` builds both graphlets' label profiles and counts the
symmetric difference per pair, where ``sed_matrix`` takes one L1 distance
over label-count matrices.  ``root``, ``children``, ``height`` and
``leaves_under`` walk a ``Dendrogram``'s merge tree, and ``labels_for`` lists a
flat clustering's labels in a given id order, for these references and for
the tests.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from affgraph.clustering import Dendrogram, Merge, _VAR_FLOOR
from affgraph.graphlet import AGraphlet
from affgraph.temporal import Calculus


def cosine_cost(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity, in [0, 2]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine cost undefined for a zero vector")
    return float(1.0 - np.dot(a, b) / (na * nb))


def root(dend: Dendrogram) -> int:
    return dend.n_leaves + len(dend.merges) - 1


def children(dend: Dendrogram, node: int) -> Optional[tuple[int, int]]:
    if node < dend.n_leaves:
        return None
    m = dend.merges[node - dend.n_leaves]
    return m.left, m.right


def height(dend: Dendrogram, node: int) -> float:
    if node < dend.n_leaves:
        return 0.0
    return dend.merges[node - dend.n_leaves].height


def leaves_under(dend: Dendrogram, node: int) -> list[int]:
    stack = [node]
    out: list[int] = []
    while stack:
        cur = stack.pop()
        kids = children(dend, cur)
        if kids is None:
            out.append(cur)
        else:
            stack.extend(kids)
    return sorted(out)


def labels_for(assignment: dict[str, int], ids: list[str]) -> list[int]:
    """The cluster of each id, in the order of ``ids``."""
    return [assignment[i] for i in ids]


def pairwise_cosine_costs(vectors: np.ndarray) -> np.ndarray:
    n = len(vectors)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = cosine_cost(vectors[i], vectors[j])
    return dist


def hierarchical_cluster(dist: np.ndarray, leaf_ids: Optional[list[str]] = None) -> Dendrogram:
    """Agglomerate a precomputed distance matrix into a full merge tree under
    average linkage.

    Ties at the minimum break toward the pair whose clusters contain the
    lowest leaf ids, making the merge sequence deterministic.
    """
    n = len(dist)
    if n < 2:
        raise ValueError("need at least 2 points")
    dist = np.asarray(dist, dtype=float)
    active: dict[int, int] = {i: 1 for i in range(n)}  # node -> size
    rep = {i: i for i in range(n)}  # node -> smallest leaf id underneath
    d = {}
    for i in range(n):
        for j in range(i + 1, n):
            d[(i, j)] = float(dist[i, j])
    dend = Dendrogram(n_leaves=n, leaf_ids=leaf_ids or [str(i) for i in range(n)])
    next_node = n
    while len(active) > 1:
        best_key = None
        best = (math.inf, math.inf, math.inf)
        for (i, j), cost in d.items():
            key = (cost, min(rep[i], rep[j]), max(rep[i], rep[j]))
            if key < best:
                best = key
                best_key = (i, j)
        i, j = best_key
        cost = d[(i, j)]
        size = active[i] + active[j]
        dend.merges.append(Merge(left=i, right=j, height=cost, size=size))
        new = next_node
        next_node += 1
        for k in list(active):
            if k in (i, j):
                continue
            dik = d[(min(i, k), max(i, k))]
            djk = d[(min(j, k), max(j, k))]
            d[(k, new)] = (active[i] * dik + active[j] * djk) / size
        for key in [k for k in d if i in k or j in k]:
            del d[key]
        rep[new] = min(rep[i], rep[j])
        del active[i]
        del active[j]
        active[new] = size
    return dend


def cut(dend: Dendrogram, threshold: float) -> dict[str, int]:
    """Clusters are maximal subtrees whose internal merge heights are all < threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")

    def max_internal(node: int) -> float:
        kids = children(dend, node)
        if kids is None:
            return -math.inf
        return max(height(dend, node), max_internal(kids[0]), max_internal(kids[1]))

    clusters: list[list[int]] = []

    def walk(node: int) -> None:
        if max_internal(node) < threshold:
            clusters.append(leaves_under(dend, node))
            return
        kids = children(dend, node)
        if kids is None:
            clusters.append([node])
            return
        walk(kids[0])
        walk(kids[1])

    walk(root(dend))
    clusters.sort(key=lambda leaves: leaves[0])
    assignment: dict[str, int] = {}
    for ci, leaves in enumerate(clusters):
        for leaf in leaves:
            assignment[dend.leaf_ids[leaf]] = ci
    return assignment


def _bic_score(vectors: np.ndarray, labels: list[int]) -> float:
    """BIC under a spherical-Gaussian shared-variance model (lower is better).

    The variance is shared across clusters and fixed to the global data
    variance, so the likelihood stays bounded when clusters shrink to
    duplicates and BIC cannot degenerate into all-singletons.
    """
    n, dim = vectors.shape
    clusters = sorted(set(labels))
    k = len(clusters)
    labels_arr = np.asarray(labels)
    centered = vectors - vectors.mean(axis=0)
    var = max(float((centered ** 2).sum()) / (n * dim), _VAR_FLOOR)
    log_lik = 0.0
    for c in clusters:
        nc = int((labels_arr == c).sum())
        pts = vectors[labels_arr == c]
        mu = pts.mean(axis=0)
        sq = float(((pts - mu) ** 2).sum())
        log_lik += (nc * math.log(nc / n)
                    - 0.5 * nc * dim * math.log(2 * math.pi * var)
                    - 0.5 * sq / var)
    params = k * dim + (k - 1) + 1
    return params * math.log(n) - 2.0 * log_lik


def select_threshold(dend: Dendrogram, vectors: np.ndarray) -> float:
    """Scan cut thresholds at the merge heights and pick the BIC minimum.

    Candidates are each distinct merge height plus a value above the root so
    the single-cluster solution is reachable; ties go to the smaller threshold.
    """
    if len(vectors) < 2:
        raise ValueError("need at least 2 points")
    heights = sorted({m.height for m in dend.merges})
    top = heights[-1] if heights else 0.0
    candidates = heights + [top + max(1e-9, abs(top) * 1e-9 + 1e-9)]
    best_t = candidates[0]
    best_score = math.inf
    ids = dend.leaf_ids
    for t in candidates:
        labels = labels_for(cut(dend, t), ids)
        score = _bic_score(np.asarray(vectors, dtype=float), labels)
        if score < best_score - 1e-12:
            best_score = score
            best_t = t
    return float(best_t)


def sed_distance(
    g_a: AGraphlet, g_b: AGraphlet, c_spat: float = 0.5, k_spat: float = 0.5
) -> float:
    """Weighted label-multiset symmetric difference over four vertex classes.

    Classes: DiSR spatial, temporal attached to DiSR episodes, RCC2 spatial,
    temporal attached to RCC2 episodes. Temporal weights are the complements
    of the corresponding spatial weights.
    """
    if not (0.0 <= c_spat <= 1.0 and 0.0 <= k_spat <= 1.0):
        raise ValueError("weights must be in [0,1]")
    c_temp = 1.0 - c_spat
    k_temp = 1.0 - k_spat

    def profile(g: AGraphlet) -> dict[str, list[str]]:
        classes: dict[str, list[str]] = {
            "disr_spat": [], "disr_temp": [], "rcc2_spat": [], "rcc2_temp": [],
        }
        adj = g.neighbors()
        for v, (layer, label) in enumerate(zip(g.vertex_layers, g.vertex_labels)):
            if layer == "spatial":
                # a spatial label is "<calculus>:<relation>"
                calc = label.split(":")[0]
                key = "rcc2_spat" if calc == Calculus.RCC2.value else "disr_spat"
                classes[key].append(label)
            elif layer == "temporal":
                calcs = {
                    g.vertex_labels[u].split(":")[0]
                    for u in adj[v] if g.vertex_layers[u] == "spatial"
                }
                # temporal vertices touching an RCC2 episode count as RCC2-attached
                key = "rcc2_temp" if Calculus.RCC2.value in calcs else "disr_temp"
                classes[key].append(label)
        return classes

    pa = profile(g_a)
    pb = profile(g_b)

    def symdiff(xs: list[str], ys: list[str]) -> int:
        from collections import Counter

        ca, cb = Counter(xs), Counter(ys)
        return sum(abs(ca[t] - cb[t]) for t in set(ca) | set(cb))

    return (c_spat * symdiff(pa["disr_spat"], pb["disr_spat"])
            + c_temp * symdiff(pa["disr_temp"], pb["disr_temp"])
            + k_spat * symdiff(pa["rcc2_spat"], pb["rcc2_spat"])
            + k_temp * symdiff(pa["rcc2_temp"], pb["rcc2_temp"]))
