"""Graphlet construction from episodes and canonical serialization."""

import itertools
import sys
import tracemalloc
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import affgraph.graphlet as graphlet_mod
from affgraph.graphlet import (
    ENTITY,
    SPATIAL,
    TEMPORAL,
    AGraphlet,
    build_agraphlets,
    canonical_form,
    parse_canonical,
)
from affgraph.temporal import Calculus, Episode, Interval

import graphlet_oracle
from conftest import label_multiset, permute_graphlet, random_graphlet


def _check_layers(g: AGraphlet) -> None:
    """Raise ValueError unless every edge joins adjacent layers."""
    order = {ENTITY: 0, SPATIAL: 1, TEMPORAL: 2}
    for u, v in g.edges:
        du = order[g.vertex_layers[u]]
        dv = order[g.vertex_layers[v]]
        if abs(du - dv) != 1:
            raise ValueError(f"edge ({u},{v}) joins non-adjacent layers")


def _ep(pair, calc, rel, start, end):
    return Episode(pair=pair, calculus=calc, relation=rel,
                   interval=Interval(start, end))


def test_validate_rejects_layer_violations():
    g = AGraphlet(anchor="a", partner_object="b", human_part=None, scene_id="s")
    v0 = g.add_vertex(ENTITY, "anchor")
    v1 = g.add_vertex(ENTITY, "partner")
    v2 = g.add_vertex(TEMPORAL, "<")
    g.add_edge(v0, v1)  # entity-entity
    with pytest.raises(ValueError):
        _check_layers(g)
    g.edges = [(v0, v2)]  # entity-temporal skips the spatial layer
    with pytest.raises(ValueError):
        _check_layers(g)


def test_build_smallest_graphlet():
    eps = [
        _ep(("a", "b"), Calculus.DISR, "Sup", 0, 9),
        _ep(("a", "hand"), Calculus.RCC2, "C", 2, 5),
    ]
    gs = build_agraphlets("scene", eps)
    assert len(gs) == 1
    g = gs[0]
    assert g.id == "scene/a/b"
    assert g.human_part == "hand"
    assert label_multiset(g, ENTITY) == ["anchor", "human", "partner"]
    assert label_multiset(g, SPATIAL) == ["DiSR:Sup", "RCC2:C"]
    # one temporal vertex for the single episode pair: C during Sup
    assert label_multiset(g, TEMPORAL) == ["di"]
    _check_layers(g)
    # the temporal vertex joins exactly the two spatial vertices
    adj = g.neighbors()
    t = g.vertex_layers.index(TEMPORAL)
    assert {g.vertex_layers[v] for v in adj[t]} == {SPATIAL}
    assert len(adj[t]) == 2


def test_build_skips_ni_only_pairs():
    eps = [_ep(("a", "b"), Calculus.DISR, "NI", 0, 9)]
    assert build_agraphlets("scene", eps) == []


@pytest.mark.parametrize("calculus, quiet, active", [
    (Calculus.RCC5ON, "DR", "PO"),
    (Calculus.DISR, "NI", "Adj"),
])
def test_build_reads_non_interaction_from_the_episode_calculus(calculus, quiet, active):
    # the pair is `quiet` in every frame: its calculus' token for no interaction
    eps = [
        _ep(("a", "b"), calculus, quiet, 0, 9),
        _ep(("a", "hand"), Calculus.RCC2, "C", 2, 5),
    ]
    assert build_agraphlets("s", eps) == []
    eps.append(_ep(("a", "b"), calculus, active, 10, 14))
    (g,) = build_agraphlets("s", eps)
    assert g.id == "s/a/b"
    assert label_multiset(g, SPATIAL) == sorted(
        [f"{calculus.value}:{quiet}", f"{calculus.value}:{active}", "RCC2:C"])


def test_build_one_graphlet_per_interacting_pair():
    eps = [
        _ep(("a", "b"), Calculus.DISR, "Sup", 0, 5),
        _ep(("a", "c"), Calculus.DISR, "Adj", 0, 5),
        _ep(("b", "c"), Calculus.DISR, "NI", 0, 5),
    ]
    gs = build_agraphlets("scene", eps)
    assert sorted(g.id for g in gs) == ["scene/a/b", "scene/a/c"]
    # no human episodes -> no human vertex
    assert all(g.human_part is None for g in gs)
    assert all(label_multiset(g, ENTITY) == ["anchor", "partner"] for g in gs)


def test_build_picks_most_connected_human_part():
    eps = [
        _ep(("a", "b"), Calculus.DISR, "Cont", 0, 20),
        _ep(("a", "left"), Calculus.RCC2, "C", 0, 2),
        _ep(("a", "right"), Calculus.RCC2, "C", 5, 15),
    ]
    (g,) = build_agraphlets("scene", eps)
    assert g.human_part == "right"
    assert label_multiset(g, SPATIAL) == ["DiSR:Cont", "RCC2:C"]


def test_build_temporal_cap_prefers_closest_pairs():
    eps = [
        _ep(("a", "b"), Calculus.DISR, "NI", 0, 4),
        _ep(("a", "b"), Calculus.DISR, "Adj", 5, 9),
        _ep(("a", "b"), Calculus.DISR, "NI", 10, 30),
    ]
    with mock.patch.object(graphlet_mod, "TEMPORAL_CAP", 2):
        (g,) = build_agraphlets("scene", eps)
    # three episode pairs exist; the cap keeps the two adjacent-in-time ones
    assert len(label_multiset(g, TEMPORAL)) == 2
    assert label_multiset(g, TEMPORAL) == ["m", "m"]
    assert graphlet_mod.TEMPORAL_CAP == 256
    (g_full,) = build_agraphlets("scene", eps)
    assert sorted(label_multiset(g_full, TEMPORAL)) == ["<", "m", "m"]


def test_build_holds_memory_for_the_cap_not_for_every_pair():
    # 600 alternating one-frame episodes make 179,700 episode pairs
    eps = [_ep(("a", "b"), Calculus.RCC5ON, ("PO", "DR")[i % 2], i, i) for i in range(600)]
    tracemalloc.start()
    try:
        (g,) = build_agraphlets("scene", eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(label_multiset(g, TEMPORAL)) == graphlet_mod.TEMPORAL_CAP == 256


# -- canonical form -----------------------------------------------------------

def _to_nx(labels, edges):
    G = nx.Graph()
    for v, lbl in enumerate(labels):
        G.add_node(v, label=lbl)
    G.add_edges_from(edges)
    return G


def _graphlet_nx(g: AGraphlet):
    labels = [f"{lay}|{lbl}" for lay, lbl in zip(g.vertex_layers, g.vertex_labels)]
    return _to_nx(labels, g.edges)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_canonical_form_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    g = random_graphlet(rng)
    perm = list(rng.permutation(g.vertex_count()))
    assert canonical_form(g) == canonical_form(permute_graphlet(g, perm))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_canonical_form_decides_isomorphism(seed):
    # equal canonical forms <=> label-preserving isomorphism (networkx oracle)
    rng = np.random.default_rng(seed)
    g1 = random_graphlet(rng, max_spatial=3, max_temporal=3)
    g2 = random_graphlet(rng, max_spatial=3, max_temporal=3)
    same = canonical_form(g1) == canonical_form(g2)
    nm = nx.algorithms.isomorphism.categorical_node_match("label", None)
    iso = nx.is_isomorphic(_graphlet_nx(g1), _graphlet_nx(g2), node_match=nm)
    assert same == iso


def test_canonical_form_label_sensitive():
    def make(label):
        g = AGraphlet(anchor="a", partner_object="b", human_part=None, scene_id="s")
        v0 = g.add_vertex(ENTITY, "anchor")
        v1 = g.add_vertex(ENTITY, "partner")
        v = g.add_vertex(SPATIAL, label)
        g.add_edge(v0, v)
        g.add_edge(v1, v)
        return g

    assert canonical_form(make("DiSR:Sup")) != canonical_form(make("DiSR:Cont"))


def test_canonical_form_symmetric_ties():
    # two interchangeable spatial vertices force the individualization search
    g = AGraphlet(anchor="a", partner_object="b", human_part=None, scene_id="s")
    v0 = g.add_vertex(ENTITY, "anchor")
    v1 = g.add_vertex(ENTITY, "partner")
    for _ in range(2):
        v = g.add_vertex(SPATIAL, "DiSR:Adj")
        g.add_edge(v0, v)
        g.add_edge(v1, v)
    form = canonical_form(g)
    for perm in itertools.permutations(range(4)):
        assert canonical_form(permute_graphlet(g, list(perm))) == form


def test_parse_canonical_round_trip(rng):
    g = random_graphlet(rng)
    form = canonical_form(g)
    labels, edges = parse_canonical(form)
    assert len(labels) == g.vertex_count()
    assert len(edges) == len(g.edges)
    assert sorted(labels) == sorted(
        f"{lay}|{lbl}" for lay, lbl in zip(g.vertex_layers, g.vertex_labels))
    # decoded graph is isomorphic to the original
    nm = nx.algorithms.isomorphism.categorical_node_match("label", None)
    assert nx.is_isomorphic(_to_nx(labels, edges), _graphlet_nx(g), node_match=nm)


def test_parse_canonical_rejects_malformed():
    with pytest.raises(ValueError):
        parse_canonical("not a form")
    with pytest.raises(ValueError, match="does not list"):
        parse_canonical("V[a;b]E[0-5]")


def test_graphlets_are_object_agnostic():
    # two scenes with different entity names but identical episode structure
    # produce identical canonical forms
    def eps(obj, hand):
        return [
            _ep(("x", obj), Calculus.DISR, "Sup", 0, 9),
            _ep(("x", hand), Calculus.RCC2, "C", 2, 5),
        ]

    (g1,) = build_agraphlets("s1", eps("cup", "lh"))
    (g2,) = build_agraphlets("s2", eps("bowl", "rh"))
    form1, form2 = canonical_form(g1), canonical_form(g2)
    assert form1 == form2
    # no entity name leaks into the serialization
    for name in ("cup", "bowl", "lh", "rh", "x", "s1", "s2"):
        assert name not in form1.replace("anchor", "").replace("partner", "")


@pytest.mark.parametrize("n_spatial", [8, 9])
def test_canonical_form_search_budget(monkeypatch, n_spatial):
    # n identical spatial vertices tie under refinement: n! leaves without the
    # budget, which stops the search after exactly _MAX_LEAVES of them
    g = AGraphlet(anchor="a", partner_object="b", human_part=None, scene_id="s")
    v_anchor = g.add_vertex(ENTITY, "anchor")
    v_partner = g.add_vertex(ENTITY, "partner")
    for _ in range(n_spatial):
        v = g.add_vertex(SPATIAL, "DiSR:Sup")
        g.add_edge(v_anchor, v)
        g.add_edge(v_partner, v)
    leaves = []
    serialize = graphlet_mod._serialize
    monkeypatch.setattr(graphlet_mod, "_serialize",
                        lambda *args: leaves.append(1) or serialize(*args))
    form = canonical_form(g)
    assert len(leaves) == graphlet_mod._MAX_LEAVES == 10_000
    labels, edges = parse_canonical(form)
    assert sorted(labels) == sorted(f"{lay}|{lbl}" for lay, lbl
                                    in zip(g.vertex_layers, g.vertex_labels))
    assert len(edges) == len(g.edges)
    perm = np.random.default_rng(n_spatial).permutation(g.vertex_count()).tolist()
    assert canonical_form(permute_graphlet(g, perm)) == form


def _tied_graphlet(n_spatial: int) -> AGraphlet:
    """Anchor and partner joined by ``n_spatial`` identical spatial vertices."""
    g = AGraphlet(anchor="a", partner_object="b", human_part=None, scene_id="s")
    v_anchor = g.add_vertex(ENTITY, "anchor")
    v_partner = g.add_vertex(ENTITY, "partner")
    for _ in range(n_spatial):
        v = g.add_vertex(SPATIAL, "DiSR:Sup")
        g.add_edge(v_anchor, v)
        g.add_edge(v_partner, v)
    return g


def test_canonical_form_of_a_run_of_ties_deeper_than_the_recursion_limit(monkeypatch):
    # each tie individualizes one vertex, so the first leaf lies this deep
    g = _tied_graphlet(sys.getrecursionlimit() + 100)
    monkeypatch.setattr(graphlet_mod, "_MAX_LEAVES", 1)
    labels, edges = parse_canonical(canonical_form(g))
    assert len(labels) == g.vertex_count()
    assert len(edges) == len(g.edges)


def test_canonical_form_of_the_empty_graphlet():
    g = AGraphlet(anchor="a", partner_object="b", human_part=None, scene_id="s")
    assert canonical_form(g) == graphlet_oracle.canonical_form(g, 1) == "V[]E[]"


@pytest.mark.parametrize("budget", [1, 2, 7, 10_000])
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_canonical_form_matches_recursive_oracle_under_budget(budget, seed):
    # one or two labels per layer tie many vertices, so small budgets cut the search
    rng = np.random.default_rng(seed)
    g = random_graphlet(rng, max_spatial=7, max_temporal=6)
    k = int(rng.integers(1, 3))
    g.vertex_labels = [lbl if lay == ENTITY else f"{lay}:{rng.integers(k)}"
                       for lay, lbl in zip(g.vertex_layers, g.vertex_labels)]
    with mock.patch.object(graphlet_mod, "_MAX_LEAVES", budget):
        assert canonical_form(g) == graphlet_oracle.canonical_form(g, budget)


@pytest.mark.parametrize("seed", range(6))
def test_canonical_form_cut_search_branches_in_index_order(seed):
    # a 6-cycle and two triangles of temporal links over 12 identical spatial
    # vertices: refinement ties all 12, yet they are not all alike, so the
    # leaves a cut search keeps depend on the order it branches in
    g = _tied_graphlet(12)
    for ring in ([2, 3, 4, 5, 6, 7], [8, 9, 10], [11, 12, 13]):
        for u, v in zip(ring, ring[1:] + ring[:1]):
            t = g.add_vertex(TEMPORAL, "<")
            g.add_edge(u, t)
            g.add_edge(v, t)
    perm = np.random.default_rng(seed).permutation(g.vertex_count()).tolist()
    g = permute_graphlet(g, perm)
    for budget in (1, 2, 7):
        with mock.patch.object(graphlet_mod, "_MAX_LEAVES", budget):
            assert canonical_form(g) == graphlet_oracle.canonical_form(g, budget)
