"""Cosine agglomeration, dendrogram cuts, threshold selection, and sED."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from affgraph.clustering import (
    Dendrogram,
    cut,
    export_dendrogram_json,
    hierarchical_cluster,
    l1_matrix,
    load_dendrogram_json,
    pairwise_cosine_costs,
    sed_matrix,
    select_threshold,
)
from affgraph.graphlet import ENTITY, SPATIAL, TEMPORAL, AGraphlet
from affgraph.qsr import Rcc5OnRelation
from affgraph.temporal import Calculus

import clustering_oracle as oracle
from clustering_oracle import cosine_cost, labels_for, leaves_under
from conftest import random_graphlet


# -- cosine cost --------------------------------------------------------------

def test_cosine_cost_exact_values():
    assert cosine_cost([1, 0], [1, 0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_cost([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_cost([1, 0], [-1, 0]) == pytest.approx(2.0, abs=1e-12)
    assert cosine_cost([1, 1], [1, 0]) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)


def test_cosine_cost_scale_invariant_and_errors():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([-2.0, 0.5, 1.0])
    assert cosine_cost(a, b) == pytest.approx(cosine_cost(10 * a, 0.3 * b), abs=1e-12)
    with pytest.raises(ValueError):
        cosine_cost(a, np.zeros(3))
    with pytest.raises(ValueError):
        cosine_cost(a, np.ones(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_cosine_cost_bounds_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    c = cosine_cost(a, b)
    assert 0.0 - 1e-12 <= c <= 2.0 + 1e-12
    assert c == pytest.approx(cosine_cost(b, a), abs=1e-12)


# -- agglomeration ------------------------------------------------------------

def test_two_point_merge():
    dist = np.array([[0.0, 0.3], [0.3, 0.0]])
    dend = hierarchical_cluster(dist)
    assert len(dend.merges) == 1
    assert dend.merges[0].height == pytest.approx(0.3)
    assert dend.merges[0].size == 2


def test_three_point_average_linkage():
    # points 0,1 close (0.1); 2 far (0.8 from 0, 0.6 from 1)
    dist = np.array([[0.0, 0.1, 0.8],
                     [0.1, 0.0, 0.6],
                     [0.8, 0.6, 0.0]])
    dend = hierarchical_cluster(dist)
    assert dend.merges[0].height == pytest.approx(0.1)
    assert dend.merges[1].height == pytest.approx(0.7)  # mean of 0.8, 0.6


def _naive_average_linkage(dist):
    """Oracle: O(n^3) agglomeration tracking explicit member lists."""
    n = len(dist)
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for i in sorted(clusters):
            for j in sorted(clusters):
                if i >= j:
                    continue
                cost = float(np.mean([[dist[a, b] for b in clusters[j]]
                                      for a in clusters[i]]))
                key = (cost, min(clusters[i] + clusters[j]),
                       max(min(clusters[i]), min(clusters[j])))
                if best is None or key < best[0]:
                    best = (key, i, j)
        (cost, _, _), i, j = best
        merges.append((cost, sorted(clusters[i] + clusters[j])))
        clusters[next_id] = clusters.pop(i) + clusters.pop(j)
        next_id += 1
    return merges


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_average_linkage_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = rng.uniform(0.0, 1.0, size=(n, n))
    dist = (m + m.T) / 2
    np.fill_diagonal(dist, 0.0)
    dend = hierarchical_cluster(dist)
    oracle = _naive_average_linkage(dist)
    got = [(m.height, sorted(leaves_under(dend, dend.n_leaves + k)))
           for k, m in enumerate(dend.merges)]
    for (h1, leaves1), (h2, leaves2) in zip(got, oracle):
        assert h1 == pytest.approx(h2, abs=1e-9)
        assert leaves1 == leaves2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_average_linkage_heights_monotone(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    m = rng.uniform(0.0, 1.0, size=(n, n))
    dist = (m + m.T) / 2
    np.fill_diagonal(dist, 0.0)
    heights = [mg.height for mg in hierarchical_cluster(dist).merges]
    assert all(h1 <= h2 + 1e-12 for h1, h2 in zip(heights, heights[1:]))


def test_hierarchical_cluster_rejects_single_point():
    with pytest.raises(ValueError):
        hierarchical_cluster(np.zeros((1, 1)))


def test_hierarchical_cluster_rejects_bad_matrices():
    with pytest.raises(ValueError):
        hierarchical_cluster(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hierarchical_cluster(np.array([[0.0, np.nan], [np.nan, 0.0]]))


@pytest.mark.parametrize("n_rows, leaf_ids, rows", [
    (2, ["a", "b", "c"], [0, 1]),  # fewer rows entries than leaves
    (2, ["a", "b"], [0, 1, 1]),  # more rows entries than leaves
    (2, None, [0, 2]),  # past the last row
    (2, None, [0, -1]),  # before the first row
    (3, None, [0, 1, 1]),  # row 2 has no leaf
    (3, None, [0, 0]),  # rows 1 and 2 have no leaf
    (2, None, [1, 0]),  # not numbered by first leaf
    (3, None, [0, 2, 1]),
    (2, None, [0, 1.0]),  # equals a row, but is no integer
    (2, None, [0, True]),
], ids=["short", "long", "above", "negative", "empty-last", "empty-two",
        "unordered", "unordered-late", "float", "bool"])
def test_hierarchical_cluster_rejects_malformed_rows(n_rows, leaf_ids, rows):
    # an empty row would start at size 0, and its first merge divide 0 by 0
    dist = 1.0 - np.eye(n_rows)
    with pytest.raises(ValueError, match="rows"):
        hierarchical_cluster(dist, leaf_ids, rows)


def test_pairwise_cosine_costs_matrix():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dist = pairwise_cosine_costs(vecs)
    assert dist.shape == (3, 3)
    assert np.allclose(dist, dist.T)
    assert np.allclose(np.diag(dist), 0.0)
    assert dist[0, 1] == pytest.approx(1.0)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            pairwise_cosine_costs(np.array([[1.0, 0.0], [bad, bad]]))


# -- equivalence with the loop reference (tests/clustering_oracle.py) --------

def _random_distances(rng, n, grid):
    """Symmetric, zero diagonal; on the 0.5 grid most pairs tie, as under sED."""
    if grid:
        m = 0.5 * rng.integers(0, 7, size=(n, n))
    else:
        m = rng.uniform(0.0, 1.0, size=(n, n))
    upper = np.triu(m, 1)
    return upper + upper.T


@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_clustering_matches_oracle(grid, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    vecs = rng.normal(size=(n, 3))
    assert np.allclose(pairwise_cosine_costs(vecs), oracle.pairwise_cosine_costs(vecs),
                       rtol=0.0, atol=1e-12)
    dist = _random_distances(rng, n, grid)
    dend = hierarchical_cluster(dist)
    assert dend.to_dict() == oracle.hierarchical_cluster(dist).to_dict()
    top = dend.merges[-1].height
    for t in [0.0, top + 1.0] + [m.height for m in dend.merges]:
        assert cut(dend, t) == oracle.cut(dend, t)
    assert select_threshold(dend, vecs) == oracle.select_threshold(dend, vecs)


# -- cuts ---------------------------------------------------------------------

def _n_clusters(assignment):
    return len(set(assignment.values()))


def _chain_dendrogram(heights):
    """Leaves 0..n merged left-to-right at the given heights."""
    from affgraph.clustering import Merge

    n = len(heights) + 1
    dend = Dendrogram(n_leaves=n, leaf_ids=[f"p{i}" for i in range(n)])
    for k, h in enumerate(heights):
        left = 0 if k == 0 else n + k - 1
        dend.merges.append(Merge(left=left, right=k + 1, height=h, size=k + 2))
    return dend


def test_cut_deep_chain():
    # a recursive subtree walk exceeds Python's recursion limit here
    dend = _chain_dendrogram([0.001 * k for k in range(1, 1500)])
    assert dend.n_leaves == 1500
    assert _n_clusters(cut(dend, 2.0)) == 1
    assert _n_clusters(cut(dend, 0.0)) == 1500


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_non_monotone_tree_matches_oracle(seed):
    # a random merge order with heights drawn apart from it: a merge may sit
    # below its children, and then the highest merge in a subtree governs it
    from affgraph.clustering import Merge

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    dend = Dendrogram(n_leaves=n, leaf_ids=[f"p{i}" for i in range(n)])
    active = {i: 1 for i in range(n)}
    for k in range(n - 1):
        left, right = sorted(rng.choice(sorted(active), size=2, replace=False))
        size = active.pop(left) + active.pop(right)
        height = 0.1 * int(rng.integers(0, 6))
        dend.merges.append(Merge(int(left), int(right), height, size))
        active[n + k] = size
    vecs = rng.normal(size=(n, 2))
    for t in {0.0, 0.05, 0.15, 0.25, 0.35, 1.0} | {m.height for m in dend.merges}:
        assert cut(dend, t) == oracle.cut(dend, t)
    assert select_threshold(dend, vecs) == oracle.select_threshold(dend, vecs)


def test_select_threshold_rejects_vector_count_mismatch():
    dend = _chain_dendrogram([0.1, 0.2])
    with pytest.raises(ValueError):
        select_threshold(dend, np.ones((2, 2)))


def test_cut_examples():
    dend = _chain_dendrogram([0.01, 0.05])
    # threshold 0: every leaf is its own cluster (strict < comparison)
    assert _n_clusters(cut(dend, 0.0)) == 3
    # above the root: one cluster
    assert _n_clusters(cut(dend, 1.0)) == 1
    # between the merge heights: {p0,p1} and {p2}
    flat = cut(dend, 0.02)
    assert _n_clusters(flat) == 2
    assert flat["p0"] == flat["p1"]
    assert flat["p0"] != flat["p2"]
    # threshold equal to a height excludes that merge (strict <)
    assert _n_clusters(cut(dend, 0.01)) == 3
    with pytest.raises(ValueError):
        cut(dend, -0.1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_cut_nesting(seed):
    # raising the threshold only merges clusters, never splits them
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    m = rng.uniform(0.0, 1.0, size=(n, n))
    dist = (m + m.T) / 2
    np.fill_diagonal(dist, 0.0)
    dend = hierarchical_cluster(dist)
    ids = dend.leaf_ids
    t1, t2 = sorted(rng.uniform(0.0, 1.2, size=2))
    fine = labels_for(cut(dend, t1), ids)
    coarse = labels_for(cut(dend, t2), ids)
    mapping = {}
    for f, c in zip(fine, coarse):
        assert mapping.setdefault(f, c) == c


# -- threshold selection ------------------------------------------------------

def _blobs(rng, centers, per, spread=0.01):
    pts = []
    for c in centers:
        pts.extend(rng.normal(loc=c, scale=spread, size=(per, len(c))))
    return np.array(pts)


def test_select_threshold_two_blobs():
    rng = np.random.default_rng(0)
    vecs = _blobs(rng, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], per=8)
    dend = hierarchical_cluster(pairwise_cosine_costs(vecs))
    t = select_threshold(dend, vecs)
    assert _n_clusters(cut(dend, t)) == 2


def test_select_threshold_single_blob():
    rng = np.random.default_rng(1)
    vecs = _blobs(rng, [(1.0, 1.0, 0.5)], per=12, spread=0.005)
    dend = hierarchical_cluster(pairwise_cosine_costs(vecs))
    t = select_threshold(dend, vecs)
    assert _n_clusters(cut(dend, t)) == 1


def test_select_threshold_recovers_five_groups():
    rng = np.random.default_rng(2)
    eye = np.eye(5)
    vecs = _blobs(rng, [tuple(row) for row in eye], per=20, spread=0.02)
    dend = hierarchical_cluster(pairwise_cosine_costs(vecs))
    t = select_threshold(dend, vecs)
    flat = cut(dend, t)
    assert _n_clusters(flat) == 5
    labels = labels_for(flat, dend.leaf_ids)
    for g in range(5):
        assert len({labels[g * 20 + i] for i in range(20)}) == 1


def test_select_threshold_handles_duplicate_points():
    # exact duplicates produce zero-height merges; BIC must not
    # degenerate into all-singletons
    vecs = np.array([[1.0, 0.0]] * 20 + [[0.0, 1.0]] * 20)
    dend = hierarchical_cluster(pairwise_cosine_costs(vecs))
    t = select_threshold(dend, vecs)
    assert _n_clusters(cut(dend, t)) == 2


# -- sED ----------------------------------------------------------------------

def _graphlet_from_labels(disr_spat=(), disr_temp=(), rcc2_spat=(), rcc2_temp=()):
    g = AGraphlet(anchor="a", partner_object="b", human_part="h", scene_id="s")
    va = g.add_vertex(ENTITY, "anchor")
    vp = g.add_vertex(ENTITY, "partner")
    vh = g.add_vertex(ENTITY, "human")
    disr_vs, rcc2_vs = [], []
    for lbl in disr_spat:
        v = g.add_vertex(SPATIAL, lbl)
        g.add_edge(va, v)
        g.add_edge(vp, v)
        disr_vs.append(v)
    for lbl in rcc2_spat:
        v = g.add_vertex(SPATIAL, lbl)
        g.add_edge(va, v)
        g.add_edge(vh, v)
        rcc2_vs.append(v)
    for lbl in disr_temp:
        v = g.add_vertex(TEMPORAL, lbl)
        g.add_edge(disr_vs[0], v)
        g.add_edge(disr_vs[1], v)
    for lbl in rcc2_temp:
        v = g.add_vertex(TEMPORAL, lbl)
        g.add_edge(rcc2_vs[0], v)
        g.add_edge(disr_vs[0], v)  # mixed endpoints count as RCC2-attached
    return g


def _expanded_sed(graphlets, *args, **kwargs):
    """``sed_matrix`` as a graphlets x graphlets matrix: each graphlet's row
    of the profile matrix, expanded."""
    dist, rows = sed_matrix(graphlets, *args, **kwargs)
    return dist[np.ix_(rows, rows)]


def test_sed_self_distance_zero():
    g = _graphlet_from_labels(disr_spat=("DiSR:Sup", "DiSR:NI"), disr_temp=("m",),
                              rcc2_spat=("RCC2:C", "RCC2:DC"), rcc2_temp=("d",))
    assert _expanded_sed([g, g])[0, 1] == 0.0


def test_sed_one_extra_spatial_vertex():
    a = _graphlet_from_labels(disr_spat=("DiSR:Sup", "DiSR:NI"))
    b = _graphlet_from_labels(disr_spat=("DiSR:Sup", "DiSR:NI", "DiSR:NI"))
    assert _expanded_sed([a, b])[0, 1] == pytest.approx(0.5)  # c_spat * 1


def test_sed_one_swapped_temporal_label():
    a = _graphlet_from_labels(disr_spat=("DiSR:Sup", "DiSR:NI"), disr_temp=("di",))
    b = _graphlet_from_labels(disr_spat=("DiSR:Sup", "DiSR:NI"), disr_temp=("o",))
    # symmetric difference 2 at temporal weight 0.5
    assert _expanded_sed([a, b])[0, 1] == pytest.approx(1.0)


def test_sed_weights_and_validation():
    a = _graphlet_from_labels(rcc2_spat=("RCC2:C",))
    b = _graphlet_from_labels(rcc2_spat=("RCC2:DC",))
    assert _expanded_sed([a, b], k_spat=0.3)[0, 1] == pytest.approx(0.6)
    with pytest.raises(ValueError):
        sed_matrix([a, b], c_spat=1.5)


def _sed_oracle(g_a, g_b, c_spat=0.5, k_spat=0.5):
    """Brute-force reclassification of every vertex, then weighted symdiff."""
    from collections import Counter

    def classify(g):
        out = {"ds": Counter(), "dt": Counter(), "ks": Counter(), "kt": Counter()}
        adj = g.neighbors()
        for v, (lay, lbl) in enumerate(zip(g.vertex_layers, g.vertex_labels)):
            if lay == SPATIAL:
                if lbl.split(":")[0] == Calculus.DISR.value:
                    out["ds"][lbl] += 1
                else:
                    out["ks"][lbl] += 1
            elif lay == TEMPORAL:
                ends = [u for u in adj[v] if g.vertex_layers[u] == SPATIAL]
                if all(g.vertex_labels[u].split(":")[0] == Calculus.DISR.value
                       for u in ends):
                    out["dt"][lbl] += 1
                else:
                    out["kt"][lbl] += 1
        return out

    ca, cb = classify(g_a), classify(g_b)

    def sd(x, y):
        return sum(abs(x[t] - y[t]) for t in set(x) | set(y))

    return (c_spat * sd(ca["ds"], cb["ds"]) + (1 - c_spat) * sd(ca["dt"], cb["dt"])
            + k_spat * sd(ca["ks"], cb["ks"]) + (1 - k_spat) * sd(ca["kt"], cb["kt"]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_sed_matches_multiset_oracle_and_is_pseudometric(seed):
    rng = np.random.default_rng(seed)
    ga = random_graphlet(rng)
    gb = random_graphlet(rng)
    gc = random_graphlet(rng)
    dab = _expanded_sed([ga, gb])[0, 1]
    assert dab == pytest.approx(_sed_oracle(ga, gb), abs=1e-12)
    assert dab == pytest.approx(_expanded_sed([gb, ga])[0, 1], abs=1e-12)
    assert _expanded_sed([ga, ga])[0, 1] == 0.0
    assert dab <= _expanded_sed([ga, gc])[0, 1] + _expanded_sed([gc, gb])[0, 1] + 1e-12


def _rcc5_on_graphlet(spatial, temporal):
    """Object-pair episodes under the RCC5On baseline, with temporal vertices
    linking the first two."""
    g = AGraphlet(anchor="a", partner_object="b", human_part=None, scene_id="s")
    va = g.add_vertex(ENTITY, "anchor")
    vp = g.add_vertex(ENTITY, "partner")
    vs = []
    for lbl in spatial:
        v = g.add_vertex(SPATIAL, lbl)
        g.add_edge(va, v)
        g.add_edge(vp, v)
        vs.append(v)
    for lbl in temporal:
        v = g.add_vertex(TEMPORAL, lbl)
        g.add_edge(vs[0], v)
        g.add_edge(vs[1], v)
    return g


@pytest.mark.parametrize("c_spat", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("k_spat", [0.0, 0.5])
def test_sed_weighs_rcc5_on_episodes_by_c_spat(c_spat, k_spat):
    # RCC5On takes DiSR's place between objects; none of its vertices is RCC2's
    base = _rcc5_on_graphlet(("RCC5On:PO", "RCC5On:DR"), ("m",))
    other_spatial = _rcc5_on_graphlet(("RCC5On:PO", "RCC5On:On"), ("m",))
    other_temporal = _rcc5_on_graphlet(("RCC5On:PO", "RCC5On:DR"), ("o",))
    assert _expanded_sed([base, other_spatial], c_spat, k_spat)[0, 1] == c_spat * 2
    assert _expanded_sed([base, other_temporal], c_spat, k_spat)[0, 1] == (1.0 - c_spat) * 2


def _with_rcc5_on(g, rng):
    """``g`` with about half its DiSR episodes relabelled as RCC5On ones."""
    for v, label in enumerate(g.vertex_labels):
        if label.startswith(f"{Calculus.DISR.value}:") and rng.random() < 0.5:
            members = list(Rcc5OnRelation)
            g.vertex_labels[v] = f"RCC5On:{members[rng.integers(len(members))].value}"
    return g


_weights = st.one_of(st.just(0.5), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 25), _weights, _weights)
def test_sed_matrix_matches_per_pair_oracle_bit_for_bit(seed, n, c_spat, k_spat):
    rng = np.random.default_rng(seed)
    pool = [_with_rcc5_on(random_graphlet(rng), rng) for _ in range(rng.integers(1, n + 1))]
    gs = [pool[i] for i in rng.integers(len(pool), size=n)]  # with duplicates
    dist, rows = sed_matrix(gs, c_spat, k_spat)
    got = dist[np.ix_(rows, rows)]
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            want[i, j] = want[j, i] = oracle.sed_distance(gs[i], gs[j], c_spat, k_spat)
    assert np.array_equal(got, want)
    assert np.array_equal(got, got.T)
    assert not got.diagonal().any()
    # one row per profile, numbered by first graphlet
    assert np.array_equal(want == 0.0, np.equal.outer(rows, rows))
    assert list(dict.fromkeys(rows)) == list(range(len(dist)))


_dyadic_weights = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 30), _dyadic_weights, _dyadic_weights)
def test_row_level_tree_is_the_graphlet_level_tree(seed, n, c_spat, k_spat):
    rng = np.random.default_rng(seed)
    pool = [_with_rcc5_on(random_graphlet(rng), rng) for _ in range(rng.integers(1, n + 1))]
    gs = [pool[i] for i in rng.integers(len(pool), size=n)]  # with duplicates
    dist, rows = sed_matrix(gs, c_spat, k_spat)
    ids = [f"g{i}" for i in range(n)]
    dend = hierarchical_cluster(dist, ids, rows)
    want = oracle.hierarchical_cluster(dist[np.ix_(rows, rows)], ids)
    assert json.dumps(dend.to_dict()) == json.dumps(want.to_dict())


def test_sed_rows_ignore_object_pair_labels_at_zero_c_spat():
    a = _graphlet_from_labels(disr_spat=("DiSR:Sup", "DiSR:NI"), rcc2_spat=("RCC2:C",))
    b = _graphlet_from_labels(disr_spat=("DiSR:Cont", "DiSR:Adj", "DiSR:NI"),
                              rcc2_spat=("RCC2:C",))
    c = _rcc5_on_graphlet(("RCC5On:PO", "RCC5On:DR"), ())
    dist, rows = sed_matrix([a, b, c], c_spat=0.0)
    assert rows == [0, 0, 1]
    assert dist.shape == (2, 2) and dist[0, 1] == 0.5  # k_spat * one RCC2 vertex
    dist, rows = sed_matrix([a, b, c], c_spat=0.25)
    assert rows == [0, 1, 2]


def test_alike_graphlets_share_one_row_and_merge_at_zero():
    g = _graphlet_from_labels(disr_spat=("DiSR:Sup", "DiSR:NI"), disr_temp=("m",),
                              rcc2_spat=("RCC2:C",), rcc2_temp=("d",))
    n = 5
    dist, rows = sed_matrix([g] * n)
    assert rows == [0] * n and dist.shape == (1, 1) and dist[0, 0] == 0.0
    dend = hierarchical_cluster(dist, rows=rows)
    assert [(m.height, m.size) for m in dend.merges] == [(0.0, k) for k in range(2, n + 1)]
    assert hierarchical_cluster(dist, rows=list(np.array(rows))).merges == dend.merges
    assert dend.to_dict() == oracle.hierarchical_cluster(np.zeros((n, n))).to_dict()
    assert len(set(cut(dend, 1e-9).values())) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.integers(0, 40), st.integers(0, 50), st.integers(0, 100_000))
@example(300, 40, 50, 0)
@example(2, 0, 0, 0)
def test_l1_matrix_is_scipys_cityblock_bit_for_bit(n, labels, most, seed):
    # count matrices as sed_matrix builds them: integer-valued floats
    counts = np.random.default_rng(seed).integers(0, most + 1, (n, labels)).astype(float)
    want = cdist(counts, counts, "cityblock")
    got = l1_matrix(counts)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# -- persistence --------------------------------------------------------------

def test_dendrogram_json_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.uniform(0.0, 1.0, size=(6, 6))
    dist = (m + m.T) / 2
    np.fill_diagonal(dist, 0.0)
    dend = hierarchical_cluster(dist, leaf_ids=[f"g{i}" for i in range(6)])
    path = tmp_path / "dend.json"
    export_dendrogram_json(dend, str(path))
    loaded = load_dendrogram_json(str(path))
    assert loaded.to_dict() == dend.to_dict()
    assert cut(loaded, 0.5) == cut(dend, 0.5)


def test_exported_dendrograms_load(tmp_path):
    """Every tree the agglomeration writes passes ``Dendrogram.from_dict``'s
    checks, tied costs included."""
    rng = np.random.default_rng(11)
    path = tmp_path / "dend.json"
    for n in (2, 3, 9):
        dist = rng.integers(0, 3, size=(n, n)).astype(float)  # many tied costs
        dist = dist + dist.T
        np.fill_diagonal(dist, 0.0)
        dend = hierarchical_cluster(dist, leaf_ids=[f"g{i}" for i in range(n)])
        export_dendrogram_json(dend, str(path))
        assert load_dendrogram_json(str(path)).to_dict() == dend.to_dict()


def _export_dendrogram_json_streaming(dend, path):
    """The streaming writer ``export_dendrogram_json`` used before: ``json.dump``
    runs the pure-Python encoder, since CPython keeps the C one for ``json.dumps``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dend.to_dict(), fh, sort_keys=True)


@pytest.mark.parametrize("seed", range(6))
def test_export_dendrogram_json_matches_streaming_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    dist = _random_distances(rng, n, grid=seed % 2 == 1)
    leaf_ids = [f"scene_{i:03d}/obj_\u00e9/{i}" for i in range(n)]
    dend = hierarchical_cluster(dist, leaf_ids=leaf_ids)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    export_dendrogram_json(dend, str(new))
    _export_dendrogram_json_streaming(dend, str(old))
    assert new.read_bytes() == old.read_bytes()
