"""WL token extraction and graph-vector training."""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgraph.embedding import (
    _NEG_BLOCK,
    _NOISE_BUCKETS,
    MAX_EMBEDDING_DIM,
    MAX_ENTRY,
    MAX_NEGATIVES,
    MAX_WL_DEPTH,
    DivergenceError,
    TrainConfig,
    _noise_cdf,
    _noise_sampler,
    _scatter_adder,
    build_vocabulary,
    load_embeddings,
    save_embeddings,
    train,
    wl_tokens,
)

import embedding_oracle
from clustering_oracle import cosine_cost
from conftest import permute_vertices


def test_wl_tokens_depth_zero_is_label_multiset():
    tokens = wl_tokens(["L", "L", "M"], [(0, 1)], depth=0)
    assert tokens == Counter({"L": 2, "M": 1})


def test_wl_tokens_single_edge_depth_one():
    tokens = wl_tokens(["A", "B"], [(0, 1)], depth=1)
    assert tokens == Counter({"A": 1, "B": 1, "A(B)": 1, "B(A)": 1})


def test_wl_tokens_path_depth_two():
    # path A-B-C: iteration tokens built from the previous iteration's strings
    tokens = wl_tokens(["A", "B", "C"], [(0, 1), (1, 2)], depth=2)
    assert tokens["A(B)"] == 1
    assert tokens["B(A,C)"] == 1
    assert tokens["A(B)(B(A,C))"] == 1
    assert tokens["B(A,C)(A(B),C(B))"] == 1
    assert sum(tokens.values()) == 3 * 3


def test_wl_tokens_sorted_neighbor_order():
    # star with shuffled neighbor insertion: children appear sorted
    tokens = wl_tokens(["R", "C", "A", "B"], [(0, 3), (0, 1), (0, 2)], depth=1)
    assert tokens["R(A,B,C)"] == 1


@given(st.integers(0, 5))
def test_wl_tokens_count_is_vertices_times_depth(depth):
    labels = ["A", "B", "C", "D"]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    tokens = wl_tokens(labels, edges, depth)
    assert sum(tokens.values()) == len(labels) * (depth + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 4))
def test_wl_tokens_permutation_invariant(seed, depth):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    labels = [str(rng.integers(0, 3)) for _ in range(n)]
    edges = [tuple(sorted(rng.choice(n, 2, replace=False)))
             for _ in range(int(rng.integers(0, 2 * n)))] if n >= 2 else []
    perm = list(rng.permutation(n))
    p_labels, p_edges = permute_vertices(labels, [tuple(e) for e in edges], perm)
    assert wl_tokens(labels, edges, depth) == wl_tokens(p_labels, p_edges, depth)


def _subtree(adj, labels, v, depth):
    """Oracle: the rooted-subtree string the WL iteration should produce."""
    if depth == 0:
        return labels[v]
    prev = _subtree(adj, labels, v, depth - 1)
    kids = sorted(_subtree(adj, labels, u, depth - 1) for u in adj[v])
    return prev + "(" + ",".join(kids) + ")"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_wl_tokens_match_rooted_subtree_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    labels = [str(rng.integers(0, 3)) for _ in range(n)]
    edges = list({tuple(sorted(rng.choice(n, 2, replace=False)))
                  for _ in range(int(rng.integers(0, 2 * n)))}) if n >= 2 else []
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    expected = Counter(_subtree(adj, labels, v, d)
                       for v in range(n) for d in range(3))
    assert wl_tokens(labels, edges, depth=2) == expected


def test_vocabulary_counts_and_duplicates():
    vocab = build_vocabulary([Counter({"a": 2, "b": 1}), Counter({"b": 3, "c": 1})])
    assert len(vocab) == 3
    assert vocab.counts[vocab.index["a"]] == 2
    assert vocab.counts[vocab.index["b"]] == 4
    assert vocab.index == {"a": 0, "b": 1, "c": 2}  # first-seen order
    with pytest.raises(ValueError):
        build_vocabulary([])


def _toy_corpus():
    ids = [f"g{i}" for i in range(6)]
    tokens = [
        Counter({"x": 3, "y": 1}), Counter({"x": 3, "y": 1}),
        Counter({"y": 2, "z": 2}), Counter({"y": 2, "z": 2}),
        Counter({"x": 1, "z": 3}), Counter({"x": 1, "z": 3}),
    ]
    return ids, tokens, build_vocabulary(tokens)


def _same_bits(a, b) -> bool:
    """Equal shapes and bit patterns: unlike ``==``, -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_train_deterministic_bitwise():
    ids, tokens, vocab = _toy_corpus()
    cfg = TrainConfig(embedding_dim=8, epochs=20, batch_size=4, learning_rate=0.1)
    t1 = train(ids, tokens, vocab, cfg, 3)
    t2 = train(ids, tokens, vocab, cfg, 3)
    assert t1.graph_ids == t2.graph_ids
    assert _same_bits(t1.vectors, t2.vectors)
    assert _same_bits(t1.loss_history, t2.loss_history)


def test_train_loss_decreases_and_identical_graphs_converge():
    ids, tokens, vocab = _toy_corpus()
    cfg = TrainConfig(embedding_dim=16, epochs=120, batch_size=8, learning_rate=0.2)
    table = train(ids, tokens, vocab, cfg, 0)
    assert len(table.loss_history) == cfg.epochs
    assert table.loss_history[-1] < table.loss_history[0]
    # graphs with identical token multisets end up close in cosine
    g0, g1, g2, g3 = table.vectors[:4]
    assert ids == table.graph_ids
    assert cosine_cost(g0, g1) < 0.05
    assert cosine_cost(g2, g3) < 0.05


def test_train_divergence_guard():
    # the overflow on the way to the raise warns nothing
    ids, tokens, vocab = _toy_corpus()
    cfg = TrainConfig(embedding_dim=8, epochs=50, batch_size=2, learning_rate=5e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            train(ids, tokens, vocab, cfg, 0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(embedding_dim=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(wl_depth=-1).validate()
    with pytest.raises(ValueError):
        TrainConfig(negatives=0).validate()
    for name, high in (("embedding_dim", MAX_EMBEDDING_DIM),
                       ("negatives", MAX_NEGATIVES), ("wl_depth", MAX_WL_DEPTH)):
        TrainConfig(**{name: high}).validate()
        with pytest.raises(ValueError, match=f"{name} {high + 1} above {high}"):
            TrainConfig(**{name: high + 1}).validate()


def test_embeddings_round_trip(tmp_path):
    ids, tokens, vocab = _toy_corpus()
    cfg = TrainConfig(embedding_dim=8, epochs=5, batch_size=4, learning_rate=0.1)
    table = train(ids, tokens, vocab, cfg, 1)
    path = tmp_path / "emb.tsv"
    save_embeddings(table, str(path))
    loaded = load_embeddings(str(path))
    assert loaded.graph_ids == table.graph_ids
    np.testing.assert_array_equal(loaded.vectors, table.vectors)


# signed zeros and subnormals, whose sums show any change of order or sign
_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, -(2.0 ** -1060)])


def _with_specials(rng, a, share):
    pick = rng.random(a.shape) < share
    a[pick] = rng.choice(_SPECIALS, size=int(pick.sum()))
    return a


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.booleans(), st.integers(1, 3000),
       st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 100_000))
def test_scatter_add_matches_add_at(n_rows, half_dim, odd, n_values, share, seed):
    # few target rows and many values: every row is hit again and again; an
    # even width scatters through complex lanes, an odd one element-wise
    dim = 2 * half_dim - odd
    rng = np.random.default_rng(seed)
    target = _with_specials(rng, rng.normal(size=(n_rows, dim)), share)
    rows = rng.integers(0, n_rows, size=n_values)
    values = _with_specials(rng, rng.normal(size=(n_values, dim)), share)
    expected = target.copy()
    np.add.at(expected, rows, values)
    _scatter_adder(target)(rows, values)
    assert _same_bits(target, expected)


@pytest.mark.parametrize("view", [
    lambda a: a.T,
    lambda a: a[:, :2],
], ids=["transposed", "column-slice"])
def test_scatter_add_rejects_target_without_flat_view(view):
    base = np.zeros((4, 3))
    with pytest.raises(AttributeError):
        _scatter_adder(view(base))(np.array([0, 1]), np.ones((2, view(base).shape[1])))
    assert not base.any()


@pytest.mark.parametrize("counts", [
    [3],
    [1, 40],
    [10_000 // r for r in range(1, 1481)],  # Zipf-like, as a WL vocabulary is
    list(range(1, 3 * _NOISE_BUCKETS)),  # more tokens than buckets
], ids=["one", "two", "skewed-1480", "above-buckets"])
def test_noise_sampler_matches_searchsorted(counts):
    cdf = _noise_cdf(counts)
    assert cdf[-1] == 1.0
    keys = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
        np.arange(_NOISE_BUCKETS + 1) / _NOISE_BUCKETS,
        np.random.default_rng(len(counts)).random(5000),
    ])
    keys = keys[keys <= 1.0]
    np.testing.assert_array_equal(_noise_sampler(cdf)(keys),
                                  cdf.searchsorted(keys, side="right"))


def _train_or_divergence(fn, *args):
    try:
        return fn(*args)
    except DivergenceError as exc:
        return str(exc)


@st.composite
def _train_cases(draw):
    n_graphs = draw(st.integers(1, 8))
    names = [f"t{i}" for i in range(draw(st.integers(1, 6)))]
    # token counts up to 20: a batch holds the same rows many times over
    tokens = [Counter({tok: draw(st.integers(1, 20))
                       for tok in draw(st.lists(st.sampled_from(names), min_size=1,
                                                max_size=len(names), unique=True))})
              for _ in range(n_graphs)]
    cfg = TrainConfig(
        embedding_dim=draw(st.integers(1, 16)),
        learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
        batch_size=draw(st.integers(1, 64)),
        negatives=draw(st.integers(1, 6)),
        epochs=draw(st.integers(1, 3)),
        min_lr_factor=draw(st.sampled_from([1e-4, 0.25, 1.0])),
    )
    return [f"g{i}" for i in range(n_graphs)], tokens, cfg, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_train_cases())
def test_train_matches_oracle_bitwise(case):
    ids, tokens, cfg, seed = case
    vocab = build_vocabulary(tokens)
    got = _train_or_divergence(train, ids, tokens, vocab, cfg, seed)
    want = _train_or_divergence(embedding_oracle.train, ids, tokens, vocab, cfg, seed)
    if isinstance(want, str):
        assert got == want
        return
    assert got.graph_ids == want.graph_ids
    assert _same_bits(got.vectors, want.vectors)
    assert _same_bits(got.loss_history, want.loss_history)


def test_train_matches_oracle_on_ragged_batches():
    # 6 graphs x 10 token occurrences = 60 pairs: batches of 7 leave a short last one
    ids, tokens, vocab = _toy_corpus()
    cfg = TrainConfig(embedding_dim=5, epochs=4, batch_size=7, negatives=3,
                      learning_rate=0.2, min_lr_factor=0.5)
    got = train(ids, tokens, vocab, cfg, 9)
    want = embedding_oracle.train(ids, tokens, vocab, cfg, 9)
    assert _same_bits(got.vectors, want.vectors)
    assert _same_bits(got.loss_history, want.loss_history)


@pytest.mark.parametrize("batch_size", [40, 150, 321, 322, 10**12])
def test_train_matches_oracle_across_negative_blocks(batch_size):
    # 40 rows fit in one negative-sampling block; 150 rows end in a short
    # block; both leave each epoch a short last batch.  From 321, the pair
    # count, one batch holds every pair and ends in a 1-row block, and the
    # step's workspace has as many rows as there are pairs: one sized by a
    # batch_size of 10**12 would not fit in memory.
    rng = np.random.default_rng(11)
    tokens = [Counter({f"t{j}": int(c) for j, c in enumerate(rng.integers(0, 5, 20)) if c})
              for _ in range(8)]
    ids, vocab = [f"g{i}" for i in range(8)], build_vocabulary(tokens)
    n_pairs = sum(sum(c.values()) for c in tokens)
    assert n_pairs == 321 and min(batch_size, n_pairs) % _NEG_BLOCK
    assert batch_size >= n_pairs or n_pairs % batch_size
    cfg = TrainConfig(embedding_dim=12, epochs=3, batch_size=batch_size, negatives=4,
                      learning_rate=0.3)
    got = train(ids, tokens, vocab, cfg, 5)
    want = embedding_oracle.train(ids, tokens, vocab, cfg, 5)
    assert _same_bits(got.vectors, want.vectors)
    assert _same_bits(got.loss_history, want.loss_history)


def test_train_holds_no_full_negative_array():
    # 800 pairs, so the first batch is full; one (batch, negatives, dim)
    # float64 array would be 10.5 MB
    tokens = [Counter({f"t{j}": 1 for j in range(i, i + 100)}) for i in range(8)]
    cfg = TrainConfig(embedding_dim=64, epochs=1, batch_size=512, negatives=40)
    full = cfg.batch_size * cfg.negatives * cfg.embedding_dim * 8
    vocab = build_vocabulary(tokens)
    tracemalloc.start()
    try:
        train([f"g{i}" for i in range(8)], tokens, vocab, cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full


def test_train_peak_holds_one_workspace():
    # the same 800 pairs over 2 epochs: a batch of 512, then a short one of
    # 288.  The draws, scores, scatter indices and tables a step also holds
    # come to less than one more workspace; a trainer that allocates its
    # (batch, dim) arrays each step holds the last step's while it makes the
    # next step's, and goes past that
    tokens = [Counter({f"t{j}": 1 for j in range(i, i + 100)}) for i in range(8)]
    cfg = TrainConfig(embedding_dim=64, epochs=2, batch_size=512, negatives=40)
    rows = cfg.batch_size * cfg.embedding_dim * 8  # one (batch, dim) float64 array
    block = _NEG_BLOCK * cfg.negatives * cfg.embedding_dim * 8  # one negative block
    workspace = 3 * rows + block  # graph rows, token rows, graph gradient, negatives
    vocab = build_vocabulary(tokens)
    np.random.default_rng(0)  # numpy imports numpy.random on first use: not train's
    tracemalloc.start()
    try:
        train([f"g{i}" for i in range(8)], tokens, vocab, cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * workspace


def test_load_embeddings_reads_values_bit_for_bit(tmp_path):
    values = [-0.0, 5e-324, -MAX_ENTRY, 0.1, 1 / 3, 2.0 ** -1074 * 3, 123456789.0]
    path = tmp_path / "emb.tsv"
    path.write_text(f"g0\t{len(values)}\t{' '.join(map(repr, values))}\n"
                    f"g1\t{len(values)}\t{' '.join(map(repr, values[::-1]))}\n")
    loaded = load_embeddings(str(path))
    assert loaded.vectors.dtype == np.float64
    assert loaded.vectors.tobytes() == np.array([values, values[::-1]]).tobytes()
    path.write_text("g0\t2\t1.0 x\n")
    with pytest.raises(ValueError, match="^line 1: could not convert string to float: 'x'$"):
        load_embeddings(str(path))
    beyond = math.nextafter(-MAX_ENTRY, -math.inf)  # the next double past the bound
    path.write_text(f"g0\t2\t1.0 0.0\ng1\t2\t0.0 {beyond!r}\n")
    with pytest.raises(ValueError, match="^line 2: non-finite value or one beyond 1e"):
        load_embeddings(str(path))
