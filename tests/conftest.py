"""Shared builders for randomized graphlets, synthetic corpora and masks."""

from __future__ import annotations

import numpy as np
import pytest

from affgraph.graphlet import (ENTITY, SPATIAL, TEMPORAL, AGraphlet, canonical_form,
                               parse_canonical)
from affgraph.scene import MaskRLE

DISR_LABELS = ["DiSR:Sup", "DiSR:Supi", "DiSR:Cont", "DiSR:Conti", "DiSR:Adj", "DiSR:NI"]
RCC2_LABELS = ["RCC2:C", "RCC2:DC"]
ALLEN_LABELS = ["<", ">", "m", "mi", "o", "oi", "s", "si", "d", "di", "f", "fi", "="]


def random_graphlet(rng: np.random.Generator, max_spatial: int = 4,
                    max_temporal: int = 4) -> AGraphlet:
    """Random valid 3-layer graphlet: entity roles, spatial episodes, Allen links."""
    g = AGraphlet(anchor="a", partner_object="b", human_part="h",
                  scene_id=f"rand_{rng.integers(1 << 30)}")
    v_anchor = g.add_vertex(ENTITY, "anchor")
    v_partner = g.add_vertex(ENTITY, "partner")
    v_human = g.add_vertex(ENTITY, "human")
    spatial: list[int] = []
    for _ in range(int(rng.integers(1, max_spatial + 1))):
        if rng.random() < 0.5:
            v = g.add_vertex(SPATIAL, DISR_LABELS[rng.integers(len(DISR_LABELS))])
            g.add_edge(v_anchor, v)
            g.add_edge(v_partner, v)
        else:
            v = g.add_vertex(SPATIAL, RCC2_LABELS[rng.integers(len(RCC2_LABELS))])
            g.add_edge(v_anchor, v)
            g.add_edge(v_human, v)
        spatial.append(v)
    if len(spatial) >= 2:
        for _ in range(int(rng.integers(0, max_temporal + 1))):
            i, j = rng.choice(len(spatial), size=2, replace=False)
            v = g.add_vertex(TEMPORAL, ALLEN_LABELS[rng.integers(len(ALLEN_LABELS))])
            g.add_edge(spatial[i], v)
            g.add_edge(spatial[j], v)
    return g


def forms_of(gs: list[AGraphlet]) -> list[tuple[list[str], list[tuple[int, int]]]]:
    """One parsed canonical form per graphlet, as ``sed_matrix`` reads them."""
    return [parse_canonical(canonical_form(g)) for g in gs]


def label_multiset(g: AGraphlet, layer: str) -> list[str]:
    """The sorted labels of ``g``'s vertices in ``layer``."""
    return sorted(lbl for lay, lbl in zip(g.vertex_layers, g.vertex_labels) if lay == layer)


def permute_vertices(labels: list[str], edges: list[tuple[int, int]],
                     perm: list[int]) -> tuple[list[str], list[tuple[int, int]]]:
    """Relabel vertex ids: vertex v becomes perm[v]."""
    n = len(labels)
    new_labels = [""] * n
    for v, lbl in enumerate(labels):
        new_labels[perm[v]] = lbl
    new_edges = [(perm[u], perm[v]) for u, v in edges]
    return new_labels, new_edges


def permute_graphlet(g: AGraphlet, perm: list[int]) -> AGraphlet:
    labels, edges = permute_vertices(g.vertex_labels, g.edges, perm)
    layers, _ = permute_vertices(g.vertex_layers, [], perm)
    out = AGraphlet(anchor=g.anchor, partner_object=g.partner_object,
                    human_part=g.human_part, scene_id=g.scene_id,
                    vertex_layers=layers, vertex_labels=labels, edges=edges)
    return out


def mask_from_array(arr: np.ndarray) -> MaskRLE:
    """Run-length encode a boolean (height, width) array."""
    flat = np.asarray(arr, dtype=bool).ravel()
    runs = [0]
    if flat.size:
        bounds = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        runs = np.diff(np.concatenate(([0], bounds, [flat.size]))).tolist()
        if flat[0]:
            runs.insert(0, 0)  # the first run is background, here empty
    return MaskRLE(width=arr.shape[1], height=arr.shape[0], runs=tuple(runs))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
