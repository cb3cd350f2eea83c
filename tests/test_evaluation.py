"""Homogeneity / completeness / V and the PCA export."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgraph.evaluation import metrics_report, pca_project, v_measure


def _corpus(truth_labels, clusters):
    """``v_measure``'s (truth, predicted) arguments, one graph per label."""
    truth = {f"g{i}": [lbl] for i, lbl in enumerate(truth_labels)}
    predicted = {f"g{i}": c for i, c in enumerate(clusters)}
    return truth, predicted


def test_perfect_clustering():
    corpus = _corpus(["a", "a", "b", "b", "c"], [0, 0, 1, 1, 2])
    assert v_measure(*corpus) == (1.0, 1.0, 1.0)


def test_single_cluster_is_complete_not_homogeneous():
    corpus = _corpus(["a", "a", "b", "b"], [0, 0, 0, 0])
    h, c, v = v_measure(*corpus)
    assert (h, c, v) == (0.0, 1.0, 0.0)


def test_singletons_are_homogeneous_not_complete():
    corpus = _corpus(["a", "a", "b", "b"], [0, 1, 2, 3])
    h, c, v = v_measure(*corpus)
    assert h == 1.0
    # H(cluster|class) = log 2, H(cluster) = log 4
    assert c == pytest.approx(0.5)
    assert v == pytest.approx(2 / 3)


def test_hand_computed_split_class():
    # class a split across two pure clusters: h=1, c<1
    corpus = _corpus(["a", "a", "b", "b"], [0, 1, 2, 2])
    h, c, v = v_measure(*corpus)
    assert h == pytest.approx(1.0)
    # H(cluster)=1.5 ln2 bits-nats, H(cluster|class)=0.5 ln2
    expect_c = 1.0 - (0.5 * math.log(2)) / (1.5 * math.log(2))
    assert c == pytest.approx(expect_c)
    assert v == pytest.approx(2 * h * c / (h + c))


def test_independent_labels_score_exactly_zero():
    # every cluster holds the classes in the same proportion: I(class; cluster)
    # is 0, and rounding must not push h or c below 0
    corpus = _corpus(["a", "a", "a", "b", "b", "b"], [0, 1, 1, 0, 1, 1])
    assert v_measure(*corpus) == (0.0, 0.0, 0.0)


def _entropy_oracle(xs):
    n = len(xs)
    return -sum((k / n) * math.log(k / n) for k in Counter(xs).values())


def _v_oracle(labels, clusters):
    n = len(labels)
    h_cls = _entropy_oracle(labels)
    h_clu = _entropy_oracle(clusters)
    joint = Counter(zip(labels, clusters))
    clu_tot = Counter(clusters)
    cls_tot = Counter(labels)
    h_cls_given = -sum((c / n) * math.log(c / clu_tot[cl])
                       for (lb, cl), c in joint.items())
    h_clu_given = -sum((c / n) * math.log(c / cls_tot[lb])
                       for (lb, cl), c in joint.items())
    h = 1.0 if h_cls == 0 else 1.0 - h_cls_given / h_cls
    c = 1.0 if h_clu == 0 else 1.0 - h_clu_given / h_clu
    v = 0.0 if h + c == 0 else 2 * h * c / (h + c)
    return h, c, v


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 3)),
                min_size=1, max_size=30))
def test_v_measure_matches_contingency_oracle(points):
    labels = [p[0] for p in points]
    clusters = [p[1] for p in points]
    h, c, v = v_measure(*_corpus(labels, clusters))
    oh, oc, ov = _v_oracle(labels, clusters)
    assert (h, c, v) == pytest.approx((oh, oc, ov))
    assert 0.0 <= h <= 1.0 and 0.0 <= c <= 1.0
    assert min(h, c) - 1e-12 <= v <= max(h, c) + 1e-12
    # relabeling clusters leaves every metric unchanged
    remap = {cl: 9 - cl for cl in set(clusters)}
    h2, c2, v2 = v_measure(*_corpus(labels, [remap[cl] for cl in clusters]))
    assert (h2, c2, v2) == pytest.approx((h, c, v))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 3)),
                min_size=1, max_size=30))
def test_h_c_swap_under_role_exchange(points):
    labels = [p[0] for p in points]
    clusters = [str(p[1]) for p in points]
    h1, c1, v1 = v_measure(*_corpus(labels, [ord(c) for c in clusters]))
    # swapping the roles of classes and clusters swaps h and c
    h2, c2, v2 = v_measure(*_corpus(clusters, [ord(l) for l in labels]))
    assert h2 == pytest.approx(c1)
    assert c2 == pytest.approx(h1)
    assert v2 == pytest.approx(v1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=2, max_size=20),
       st.data())
def test_refining_clusters_never_decreases_homogeneity(labels, data):
    n = len(labels)
    coarse = [data.draw(st.integers(0, 2)) for _ in range(n)]
    # refine: split each coarse cluster by drawing sub-ids
    fine = [(c, data.draw(st.integers(0, 1))) for c in coarse]
    fine_ids = {f: i for i, f in enumerate(sorted(set(fine)))}
    h1, _, _ = v_measure(*_corpus(labels, coarse))
    h2, _, _ = v_measure(*_corpus(labels, [fine_ids[f] for f in fine]))
    assert h2 >= h1 - 1e-12


def test_multi_label_expansion():
    # one graph with two labels contributes two datapoints
    truth = {"g0": ["a", "b"], "g1": ["a"], "g2": []}
    predicted = {"g0": 0, "g1": 0, "g2": 1}
    expanded = v_measure(*_corpus(["a", "b", "a"], [0, 0, 0]))
    assert v_measure(truth, predicted) == expanded == (0.0, 1.0, 0.0)
    # unlabeled and unpredicted graphs are excluded, not errors
    truth["g3"] = ["c"]
    assert v_measure(truth, predicted) == expanded


def test_v_measure_requires_datapoints():
    with pytest.raises(ValueError):
        v_measure({}, {})


# -- PCA ----------------------------------------------------------------------

def test_pca_recovers_dominant_axis():
    rng = np.random.default_rng(0)
    t = rng.normal(size=50)
    x = np.stack([3.0 * t, 0.1 * rng.normal(size=50), 0.01 * rng.normal(size=50)], axis=1)
    proj = pca_project(x, 1)
    # first component correlates almost perfectly with the generating axis
    r = np.corrcoef(proj[:, 0], t)[0, 1]
    assert abs(r) > 0.999
    # sign convention makes the run deterministic
    np.testing.assert_array_equal(proj, pca_project(x, 1))


def test_pca_projection_preserves_pairwise_distances_at_full_rank():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 3))
    proj = pca_project(x, 3)
    d_orig = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
    d_proj = np.linalg.norm(proj[:, None] - proj[None, :], axis=-1)
    np.testing.assert_allclose(d_proj, d_orig, atol=1e-9)


def test_pca_degenerate_rank_zero_pads():
    x = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))  # rank 0 after centering
    proj = pca_project(x, 2)
    np.testing.assert_array_equal(proj, np.zeros((5, 2)))


def test_pca_validates_arguments():
    x = np.zeros((4, 3))
    with pytest.raises(ValueError):
        pca_project(x, 4)
    with pytest.raises(ValueError):
        pca_project(np.zeros((2, 3)), 2)


def test_metrics_report_format():
    text = metrics_report(1.0, 0.9207, 0.9587)
    assert "homogeneity  1.0000" in text
    assert "completeness 0.9207" in text
    assert "v_measure    0.9587" in text
