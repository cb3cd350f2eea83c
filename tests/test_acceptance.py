"""Acceptance suite: one test per release criterion.

Each test line in ``pytest -v`` is the pass/fail record for its criterion.
The end-to-end tests share one 60-scene synthetic corpus fixture.
"""

import itertools
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from affgraph import embedding as emb
from affgraph.clustering import hierarchical_cluster
from affgraph.convexity import ConcavityBounds, ConvexityType, convexity_depth, surviving_holes
from affgraph.evaluation import v_measure
from affgraph.graphlet import canonical_form, parse_canonical
from affgraph.pipeline import PipelineConfig, load_graphlet_corpus, run_pipeline
from affgraph.qsr import DisrRelation, disr
from affgraph.synth import SyntheticScript, generate_synthetic
from affgraph.temporal import AllenRelation, Interval, allen

from clustering_oracle import cosine_cost, leaves_under
from conftest import permute_vertices, random_graphlet
from test_convexity import flood_fill_hole_count
from test_evaluation import _v_oracle
from test_qsr import CONVERSE, _state
from test_temporal import _holds, allen_converse


# -- criterion: Allen relations are jointly exhaustive and pairwise disjoint --

def test_allen_jepd_and_converse_coherence():
    start = time.perf_counter()
    intervals = [Interval(a, b) for a in range(7) for b in range(a, 7)]
    for a, b in itertools.product(intervals, repeat=2):
        rel = allen(a, b)
        assert [r for r in AllenRelation if _holds(a, b, r)] == [rel]
        assert allen(b, a) is allen_converse(rel)
    assert time.perf_counter() - start < 1.0


# -- criterion: depth-informed spatial relations match a 30-case fixture -----

SURFACE = ConvexityType.SURFACE
CONVEX = ConvexityType.CONVEX
CONCAVE = ConvexityType.CONCAVE
BAND = ConcavityBounds(dc_min=14.0, dc_max=22.0)


def _disr_fixture_cases():
    """25 interaction cases (every relation, both directions) + 5 occlusions."""
    table = _state((0, 0, 40, 40), (10.0, 22.0), None, SURFACE)
    ball_near = _state((10, 10, 20, 20), (8.0, 14.0), None, CONVEX)
    ball_low = _state((12, 8, 22, 18), (9.0, 12.0), None, CONVEX)
    bowl = _state((0, 0, 30, 30), (10.0, 22.0), BAND, CONCAVE)
    ball_in = _state((5, 5, 25, 25), (15.0, 20.0), None, CONVEX)
    ball_in2 = _state((8, 6, 22, 20), (16.0, 20.0), None, CONVEX)
    plain = _state((0, 0, 40, 40))
    topper = _state((5, 0, 15, 20))
    left = _state((0, 0, 20, 20), (10.0, 18.0), None, CONVEX)
    right = _state((10, 0, 30, 20), (14.0, 22.0), None, CONVEX)
    right2 = _state((8, 4, 28, 24), (13.0, 21.0), None, CONVEX)
    far = _state((40, 0, 50, 10), (10.0, 12.0), None, CONVEX)
    near = _state((0, 0, 10, 10), (10.0, 12.0), None, CONVEX)
    shallow = _state((5, 5, 25, 25), (2.0, 6.0), None, CONVEX)
    table2 = _state((4, 4, 44, 44), (12.0, 24.0), None, SURFACE)
    ball2 = _state((14, 14, 24, 24), (10.0, 16.0), None, CONVEX)
    bowl2 = _state((10, 10, 34, 34), (10.0, 22.0), BAND, CONCAVE)
    ball_in3 = _state((14, 14, 30, 30), (17.0, 21.0), None, CONVEX)
    near2 = _state((0, 20, 10, 30), (15.0, 17.0), None, CONVEX)
    far2 = _state((20, 20, 30, 30), (15.0, 17.0), None, CONVEX)

    interactions = [
        (table, ball_near, DisrRelation.SUP),   # depth-overlap support, surface
        (table, ball_low, DisrRelation.SUP),    # second support geometry
        (plain, topper, DisrRelation.SUP),      # 2-D On fallback, no depth
        (table2, ball2, DisrRelation.SUP),      # third support geometry
        (bowl, ball_in, DisrRelation.CONT),     # inside the concavity band
        (bowl, ball_in2, DisrRelation.CONT),    # second containment geometry
        (bowl2, ball_in3, DisrRelation.CONT),   # third containment geometry
        (left, right, DisrRelation.ADJ),        # overlapping at similar depth
        (left, right2, DisrRelation.ADJ),       # second adjacency geometry
        (near, far, DisrRelation.NI),           # spatially disjoint
        (bowl, shallow, DisrRelation.NI),       # inside the box, above the band
        (table, far, DisrRelation.NI),          # disjoint from the surface
        (near2, far2, DisrRelation.NI),         # disjoint at matching depth
    ]
    cases = []
    for a, b, rel in interactions:
        cases.append((a, b, rel))
        cases.append((b, a, CONVERSE[rel]))
    # strict-converse pairs double-count Adj/NI symmetric geometry; trim to 25
    cases = cases[:25]
    # occlusion: overlapping boxes, depth-separated ranges, On false -> NI
    occluders = [
        (_state((0, 0, 20, 20), (10.0, 12.0), None, CONVEX),
         _state((10, 5, 30, 25), (30.0, 40.0), None, CONVEX)),
        (_state((5, 5, 25, 25), (8.0, 10.0), None, CONVEX),
         _state((15, 10, 35, 30), (20.0, 25.0), None, CONVEX)),
        (_state((0, 4, 16, 20), (5.0, 6.0), None, CONVEX),
         _state((8, 8, 24, 24), (18.0, 22.0), None, CONVEX)),
        (_state((2, 2, 22, 22), (11.0, 13.0), None, SURFACE),
         _state((12, 6, 32, 26), (25.0, 28.0), None, CONVEX)),
        (_state((0, 6, 14, 20), (9.0, 10.0), None, CONVEX),
         _state((6, 10, 20, 24), (30.0, 31.0), None, CONCAVE)),
    ]
    for a, b in occluders:
        cases.append((a, b, DisrRelation.NI))
    return cases


def test_disr_thirty_case_fixture_table():
    cases = _disr_fixture_cases()
    assert len(cases) == 30
    for i, (a, b, expected) in enumerate(cases):
        rel_ab, rel_ba = disr(a, b)
        assert rel_ab is expected, f"case {i}: got {rel_ab}, want {expected}"
        assert rel_ba is CONVERSE[expected], f"case {i}: converse mismatch"


# -- criterion: concavity band matches direct substitution -------------------

def test_concavity_band_direct_substitution_1000_tuples():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        dmin = float(rng.uniform(0.0, 100.0))
        dmax = dmin + float(rng.uniform(0.0, 50.0))
        h = int(rng.integers(2, 12))
        n = int(rng.integers(1, h))
        bounds = convexity_depth(dmin, dmax, CONCAVE, h=h, n=n)
        expect_min = dmax - n * ((dmax - dmin) / h)
        assert bounds.dc_min == expect_min  # exact substitution, no tolerance
        assert bounds.dc_max == dmax
        assert dmin <= bounds.dc_min <= bounds.dc_max


# -- criterion: contour hole counts match a flood-fill oracle ----------------

def test_contour_hole_count_matches_flood_fill_200_grids():
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = int(rng.integers(2, 65))
        w = int(rng.integers(2, 65))
        grid = rng.random((h, w)) < rng.uniform(0.25, 0.85)
        assert surviving_holes(grid) == flood_fill_hole_count(grid)


# -- criterion: WL token multisets invariant under vertex permutation --------

def test_wl_tokens_permutation_invariant_100_graphlets():
    rng = np.random.default_rng(21)
    for _ in range(100):
        g = random_graphlet(rng)
        labels = [f"{lay}|{lbl}" for lay, lbl in zip(g.vertex_layers, g.vertex_labels)]
        perm = list(rng.permutation(g.vertex_count()))
        p_labels, p_edges = permute_vertices(labels, g.edges, perm)
        depth = int(rng.integers(0, 6))
        assert emb.wl_tokens(labels, g.edges, depth) == \
            emb.wl_tokens(p_labels, p_edges, depth)


# -- criterion: agglomerative merges match a naive O(n^3) reference ----------

def _naive_merge_sequence(dist):
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
                cost = float(dist[np.ix_(clusters[i], clusters[j])].mean())
                reps = (min(clusters[i][0], clusters[j][0]),
                        max(clusters[i][0], clusters[j][0]))
                key = (cost, reps[0], reps[1])
                if best is None or key < best[0]:
                    best = (key, i, j)
        (cost, _, _), i, j = best
        merged = sorted(clusters[i] + clusters[j])
        merges.append((cost, merged))
        clusters[next_id] = merged
        del clusters[i], clusters[j]
        next_id += 1
    return merges


def test_agglomeration_matches_naive_reference_50_instances():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.uniform(0.0, 1.0, size=(20, 20))
        dist = (m + m.T) / 2
        np.fill_diagonal(dist, 0.0)
        dend = hierarchical_cluster(dist)
        oracle = _naive_merge_sequence(dist)
        for k, merge in enumerate(dend.merges):
            assert merge.height == pytest.approx(oracle[k][0], abs=1e-9)
            assert sorted(leaves_under(dend, dend.n_leaves + k)) == oracle[k][1]


# -- criterion: V-measure matches brute-force conditional entropies ----------

def test_v_measure_matches_brute_force_500_labelings():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        labels = [str(rng.integers(0, 4)) for _ in range(n)]
        clusters = [int(rng.integers(0, 4)) for _ in range(n)]
        got = v_measure({f"g{i}": [labels[i]] for i in range(n)},
                        {f"g{i}": clusters[i] for i in range(n)})
        want = _v_oracle(labels, clusters)
        assert got == pytest.approx(want, abs=1e-9)


# -- criterion: cosine cost contract -----------------------------------------

def test_cosine_cost_contract():
    rng = np.random.default_rng(43)
    for _ in range(100):
        a = rng.normal(size=8)
        assert abs(cosine_cost(a, a)) < 1e-12
        assert abs(cosine_cost(a, -a) - 2.0) < 1e-12
        b = rng.normal(size=8)
        s, t = rng.uniform(0.1, 10.0, size=2)
        assert abs(cosine_cost(s * a, t * b) - cosine_cost(a, b)) < 1e-12
    assert abs(cosine_cost([1, 0, 0], [0, 1, 0]) - 1.0) < 1e-12


# -- shared 60-scene synthetic corpus ----------------------------------------

CLASS_LABELS = ("can-contain", "containable", "can-support", "supportable",
                "adjacent-interaction")


@pytest.fixture(scope="module")
def synthetic_experiment(tmp_path_factory):
    scenes = {}
    truth = {}
    specs = (
        [("put-into", 100 + i, True) for i in range(20)]
        + [("place-on", 300 + i, False) for i in range(20)]
        + [("push-adjacent", 400 + i, False) for i in range(10)]
        + [("occlude-pass-behind", 500 + i, False) for i in range(10)]
    )
    for i, (kind, seed, early) in enumerate(specs):
        name = f"scene_{i:03d}"
        gen = generate_synthetic(
            SyntheticScript(kind=kind, early_release=early), seed=seed)
        scenes[name] = gen.scene
        for (a, b), labels in gen.labels.items():
            truth[f"{name}/{a}/{b}"] = labels
    # the corpus carries 20 labeled graphlets per affordance class
    counts = Counter(lbl for labels in truth.values() for lbl in labels)
    assert counts == {lbl: 20 for lbl in CLASS_LABELS}

    out_emb = tmp_path_factory.mktemp("e2e_embedding")
    cfg = PipelineConfig(seed=7, cut_threshold=None)
    start = time.perf_counter()
    report_emb = run_pipeline(scenes, cfg, str(out_emb), groundtruth=truth)
    elapsed = time.perf_counter() - start

    out_sed = tmp_path_factory.mktemp("e2e_sed")
    cfg_sed = PipelineConfig(seed=7, mode="sed")
    report_sed = run_pipeline(scenes, cfg_sed, str(out_sed), groundtruth=truth)

    return {
        "truth": truth,
        "embedding_report": report_emb,
        "sed_report": report_sed,
        "elapsed": elapsed,
        "out_emb": out_emb,
        "cfg": cfg,
    }


# -- criterion: end-to-end synthetic experiment ------------------------------

def test_end_to_end_recovers_affordance_classes(synthetic_experiment):
    report = synthetic_experiment["embedding_report"]
    assert report.n_graphlets == 100
    assert report.v_measure >= 0.90
    assert report.homogeneity >= 0.95
    assert synthetic_experiment["elapsed"] < 300.0


# -- criterion: set-edit-distance baseline scores strictly lower -------------

def test_sed_baseline_strictly_below_embedding(synthetic_experiment):
    v_emb = synthetic_experiment["embedding_report"].v_measure
    v_sed = synthetic_experiment["sed_report"].v_measure
    assert v_sed < v_emb


# -- criterion: training sanity on the synthetic corpus ----------------------

def test_training_loss_decreases_and_identical_graphlets_converge(synthetic_experiment):
    out = synthetic_experiment["out_emb"]
    cfg = synthetic_experiment["cfg"]
    records = load_graphlet_corpus(str(out / "graphlets.jsonl"))
    # identical graphlets end close together in the run's own embeddings
    table = emb.load_embeddings(str(out / "embeddings.tsv"))
    by_form = {}
    for rec in records:
        by_form.setdefault(rec["form"], []).append(rec["id"])
    identical_pairs = [(ids[0], ids[1]) for ids in by_form.values() if len(ids) >= 2]
    assert identical_pairs, "corpus must contain structurally identical graphlets"
    row = {gid: i for i, gid in enumerate(table.graph_ids)}
    for ga, gb in identical_pairs:
        assert cosine_cost(table.vectors[row[ga]], table.vectors[row[gb]]) < 0.05

    # the loss falls every epoch at the benchmark's budget (25 epochs at lr 4.0),
    # and by more than a third in all
    train_cfg = replace(cfg.train, epochs=25, learning_rate=4.0)
    tokens = [emb.wl_tokens(*parse_canonical(rec["form"]), train_cfg.wl_depth)
              for rec in records]
    vocab = emb.build_vocabulary(tokens)
    history = emb.train([rec["id"] for rec in records], tokens, vocab, train_cfg,
                        cfg.seed).loss_history
    assert all(b < a for a, b in zip(history, history[1:])), history
    assert history[-1] < history[0] * 2 / 3, history
