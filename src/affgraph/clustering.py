"""Agglomerative clustering under the cosine cost, dendrogram cuts, and sED."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphlet import SPATIAL, TEMPORAL, AGraphlet
from .scene import parse_json


@dataclass
class Merge:
    left: int
    right: int
    height: float
    size: int


@dataclass
class Dendrogram:
    """Binary merge tree. Leaves are 0..n-1; merge i creates node n+i."""

    n_leaves: int
    merges: list[Merge] = field(default_factory=list)
    leaf_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_leaves": self.n_leaves,
            "leaf_ids": self.leaf_ids,
            "merges": [[m.left, m.right, m.height, m.size] for m in self.merges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Dendrogram":
        """Read ``to_dict`` output; anything but a well-formed merge tree
        raises KeyError, TypeError or ValueError.  Counts, node ids and sizes
        must be ints and heights ints or floats, never bools, and leaf ids
        strings: nothing is converted, so nothing is truncated."""
        def exact(what: str, value, *types: type):
            if type(value) not in types:
                names = " or ".join(t.__name__ for t in types)
                raise TypeError(f"{what} {value!r} is not {names}")
            return value

        leaf_ids = exact("leaf_ids", data["leaf_ids"], list)
        for leaf in leaf_ids:
            exact("leaf id", leaf, str)
        dend = cls(
            n_leaves=exact("n_leaves", data["n_leaves"], int),
            leaf_ids=leaf_ids,
            merges=[Merge(exact("child", l, int), exact("child", r, int),
                          float(exact("height", h, int, float)), exact("size", s, int))
                    for l, r, h, s in data["merges"]],
        )
        if len(dend.leaf_ids) != dend.n_leaves:
            raise ValueError(f"{len(dend.leaf_ids)} leaf ids for {dend.n_leaves} leaves")
        sizes, merged = [1] * dend.n_leaves, set()
        for i, m in enumerate(dend.merges):
            for child in (m.left, m.right):
                if not 0 <= child < len(sizes) or child in merged:
                    raise ValueError(f"merge {i}: child {child} is not an unmerged node")
                merged.add(child)
            if not math.isfinite(m.height):
                raise ValueError(f"merge {i}: height {m.height} is not finite")
            if m.size != sizes[m.left] + sizes[m.right]:
                raise ValueError(f"merge {i}: size {m.size} is not the sum of its children's")
            sizes.append(m.size)
        return dend


def pairwise_cosine_costs(vectors: np.ndarray) -> np.ndarray:
    """All-pairs cosine cost (1 - cosine similarity) as ``1 - Xn @ Xn.T``,
    clipped to [0, 2], zero diagonal."""
    x = np.asarray(vectors, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("cosine cost undefined for a non-finite vector")
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        raise ValueError("cosine cost undefined for a zero vector")
    xn = x / norms[:, None]
    dist = np.clip(1.0 - xn @ xn.T, 0.0, 2.0)
    np.fill_diagonal(dist, 0.0)
    return dist


def hierarchical_cluster(dist: np.ndarray, leaf_ids: Optional[list[str]] = None,
                         rows: Optional[list[int]] = None) -> Dendrogram:
    """Agglomerate a precomputed distance matrix into a full merge tree under
    average linkage.

    ``rows[i]`` is leaf i's row of ``dist``, an integer (row i by default),
    rows numbered by first leaf.  Leaves sharing a row merge first, at height
    0.0, row by row in leaf order; the rows then agglomerate, sized by leaf counts.

    Each step merges the active pair with the smallest key
    ``(cost, min rep, max rep)``, where a cluster's rep is the lowest leaf id
    it contains: ties at the minimum break toward the lowest leaf ids, making
    the merge sequence deterministic.  Only the upper triangle of ``dist`` is
    read, and it must be finite.

    Each cluster lives in the row of its rep, so the key's tie-break is a row
    and column order.  Every row caches the minimum of its entries right of
    the diagonal (lowest column on ties); a merge rewrites the survivor's row
    by the Lance-Williams update and recomputes only the rows whose cached
    minimum it touched, so a step costs O(n) plus O(n) per such row.
    """
    dist = np.asarray(dist, dtype=float)
    n = len(dist)
    rows = range(n) if rows is None else rows
    if len(rows) < 2:
        raise ValueError("need at least 2 points")
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    dend = Dendrogram(n_leaves=len(rows), leaf_ids=leaf_ids or [str(i) for i in range(len(rows))])
    if (len(dend.leaf_ids) != len(rows) or list(dict.fromkeys(rows)) != list(range(n))
            or not all(isinstance(r, (int, np.integer)) and not isinstance(r, bool)
                       for r in rows)):
        raise ValueError("rows must map every leaf to an integer row, numbered by first leaf, "
                         "none empty")
    d = np.where(np.tri(n, dtype=bool), dist.T, dist)
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    np.fill_diagonal(d, math.inf)  # inf marks the diagonal and merged-away rows
    node, size = [-1] * n, [0] * n  # row -> its cluster's tree node and leaf count
    for r, leaf in sorted(zip(rows, range(len(rows)))):
        if size[r]:
            dend.merges.append(Merge(*sorted((node[r], leaf)), height=0.0, size=size[r] + 1))
        node[r] = dend.n_leaves + len(dend.merges) - 1 if size[r] else leaf
        size[r] += 1
    row_min = np.full(n, math.inf)
    row_arg = np.full(n, -1)

    def refresh(k: int) -> None:
        row = d[k, k + 1:]
        if row.size:
            j = int(row.argmin())
            row_min[k], row_arg[k] = row[j], k + 1 + j

    for k in range(n):
        refresh(k)
    for _ in range(n - 1):
        a = int(row_min.argmin())
        b = int(row_arg[a])
        na, nb = size[a], size[b]
        dend.merges.append(Merge(*sorted((node[a], node[b])), height=float(d[a, b]), size=na + nb))
        new = (na * d[a] + nb * d[b]) / (na + nb)
        new[a] = new[b] = math.inf
        d[a] = d[:, a] = new
        d[b] = d[:, b] = math.inf
        node[a], size[a] = dend.n_leaves + len(dend.merges) - 1, na + nb
        row_min[b], row_arg[b] = math.inf, -1
        # rows whose cached minimum sat in a merged column start over; rows
        # above a otherwise only compare against their new column-a entry
        stale = (row_arg[:b] == b)
        stale[:a] |= row_arg[:a] == a
        stale[a] = False  # refreshed below in any case
        col, mins, args = new[:a], row_min[:a], row_arg[:a]
        better = ~stale[:a] & ((col < mins) | ((col == mins) & (a < args)))
        mins[better] = col[better]
        args[better] = a
        refresh(a)
        for k in np.flatnonzero(stale):
            refresh(int(k))
    return dend


def _effective_heights(dend: Dendrogram) -> list[float]:
    """Per node, the largest merge height in its subtree (-inf for a leaf)."""
    eff = [-math.inf] * (dend.n_leaves + len(dend.merges))
    for i, m in enumerate(dend.merges):
        eff[dend.n_leaves + i] = max(m.height, eff[m.left], eff[m.right])
    return eff


def cut(dend: Dendrogram, threshold: float) -> dict[str, int]:
    """``{leaf id: cluster}``, where clusters are maximal subtrees whose internal
    merge heights are all < threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    eff = _effective_heights(dend)
    # top-down from the root: a node below a subtree that qualifies joins it
    top = list(range(len(eff)))
    for i in range(len(dend.merges) - 1, -1, -1):
        node = dend.n_leaves + i
        if eff[node] < threshold:
            m = dend.merges[i]
            top[m.left] = top[m.right] = top[node]
    # clusters are numbered in order of their lowest leaf
    number: dict[int, int] = {}
    return {gid: number.setdefault(top[leaf], len(number))
            for leaf, gid in enumerate(dend.leaf_ids)}


_VAR_FLOOR = 1e-12


def select_threshold(dend: Dendrogram, vectors: np.ndarray) -> float:
    """Scan cut thresholds at the merge heights and pick the BIC minimum.

    Candidates are each distinct merge height plus a value above the root so
    the single-cluster solution is reachable; ties go to the smaller threshold.

    Each candidate is scored under a spherical-Gaussian model (lower is
    better).  The variance is shared across clusters and fixed to the global
    data variance, so the likelihood stays bounded when clusters shrink to
    duplicates and BIC cannot degenerate into all-singletons.

    One sweep applies the merges in order of effective height, keeping each
    cluster's size and vector sum, the running sum of ``nc * log(nc)`` and the
    within-cluster sum of squares (grown by Ward's increment
    ``na * nb / (na + nb) * |mu_a - mu_b|^2``), so the flat clustering ``cut``
    gives at a candidate is scored in O(1) without cutting.
    """
    x = np.asarray(vectors, dtype=float)
    n, dim = x.shape
    if n < 2:
        raise ValueError("need at least 2 points")
    if n != dend.n_leaves:
        raise ValueError(f"{n} vectors for {dend.n_leaves} leaves")
    heights = sorted({m.height for m in dend.merges})
    top = heights[-1] if heights else 0.0
    candidates = heights + [top + max(1e-9, abs(top) * 1e-9 + 1e-9)]

    centered = x - x.mean(axis=0)
    var = max(float((centered ** 2).sum()) / (n * dim), _VAR_FLOOR)
    log_norm = 0.5 * n * dim * math.log(2 * math.pi * var) + n * math.log(n)

    eff = _effective_heights(dend)
    order = sorted(range(len(dend.merges)), key=lambda i: (eff[n + i], i))
    count = [1] * len(eff)
    total = np.empty((len(eff), dim))
    total[:n] = x
    k, n_log_n, within = n, 0.0, 0.0
    applied = 0
    best_t, best_score = candidates[0], math.inf
    for t in candidates:
        # the flat clustering at t joins exactly the merges with eff < t
        while applied < len(order) and eff[n + order[applied]] < t:
            i = order[applied]
            m = dend.merges[i]
            na, nb = count[m.left], count[m.right]
            nc = na + nb
            diff = total[m.left] / na - total[m.right] / nb
            within += na * nb / nc * float(diff @ diff)
            n_log_n += nc * math.log(nc) - na * math.log(na) - nb * math.log(nb)
            count[n + i] = nc
            total[n + i] = total[m.left] + total[m.right]
            k -= 1
            applied += 1
        log_lik = n_log_n - log_norm - 0.5 * within / var
        score = (k * dim + k) * math.log(n) - 2.0 * log_lik
        if score < best_score - 1e-12:
            best_score = score
            best_t = t
    return float(best_t)


def l1_matrix(counts: np.ndarray) -> np.ndarray:
    """All-pairs L1 distances between the rows of ``counts``, one column at a time."""
    return sum((np.abs(col[:, None] - col) for col in counts.T), np.zeros((len(counts),) * 2))


def sed_matrix(graphlets: list[AGraphlet], c_spat: float = 0.5,
               k_spat: float = 0.5) -> tuple[np.ndarray, list[int]]:
    """Set edit distance, a weighted label-multiset symmetric difference over
    four vertex classes, between the distinct label profiles of ``graphlets``.
    Returns ``(dist, rows)``, graphlet i in row ``rows[i]`` of ``dist``, rows
    numbered by first graphlet.  Graphlets share a row exactly when their label
    counts match in every class of non-zero weight.

    Classes, in order, with their weights: spatial vertices not labelled
    ``RCC2:`` (DiSR, or the RCC5On baseline) ``c_spat``; temporal vertices
    attached only to those ``1 - c_spat``; RCC2 spatial vertices ``k_spat``;
    temporal vertices touching an RCC2 spatial vertex ``1 - k_spat``.

    The symmetric difference of two label multisets is the L1 distance
    between their label-count vectors, so each class is one ``l1_matrix`` of a
    (profiles x labels) count matrix, exact in integers.  Each is scaled by its
    weight and added in class order, so every entry equals the per-pair sum.
    """
    if not (0.0 <= c_spat <= 1.0 and 0.0 <= k_spat <= 1.0):
        raise ValueError("weights must be in [0,1]")
    columns: list[dict[str, int]] = [{}, {}, {}, {}]  # per class: label -> column
    cells: list[list[tuple[int, int]]] = [[], [], [], []]  # per class: (graphlet, column)
    for i, g in enumerate(graphlets):
        rcc2 = {v for v, label in enumerate(g.vertex_labels) if label.startswith("RCC2:")}
        attached = {w for u, v in g.edges for s, w in ((u, v), (v, u)) if s in rcc2}
        for v, (layer, label) in enumerate(zip(g.vertex_layers, g.vertex_labels)):
            if layer == SPATIAL:
                k = 2 if v in rcc2 else 0
            elif layer == TEMPORAL:
                k = 3 if v in attached else 1
            else:
                continue
            cells[k].append((i, columns[k].setdefault(label, len(columns[k]))))
    weights = (c_spat, 1.0 - c_spat, k_spat, 1.0 - k_spat)
    counts = [np.zeros((len(graphlets), len(cols))) for cols in columns]
    for c, ij in zip(counts, cells):
        np.add.at(c, tuple(np.array(ij, dtype=int).reshape(-1, 2).T), 1.0)
    first: dict[bytes, int] = {}  # profile -> its row
    rows = [first.setdefault(p.tobytes(), len(first))
            for p in np.hstack([c for w, c in zip(weights, counts) if w])]
    pick = np.unique(rows, return_index=True)[1]  # each row's first graphlet
    return sum((w * l1_matrix(c[pick]) for w, c in zip(weights, counts)),
               np.zeros((len(pick),) * 2)), rows


def export_dendrogram_json(dend: Dendrogram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dend.to_dict(), sort_keys=True))


def load_dendrogram_json(path: str) -> Dendrogram:
    with open(path, "r", encoding="utf-8") as fh:
        return Dendrogram.from_dict(parse_json(fh.read()))
