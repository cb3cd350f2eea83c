"""Reference trainer: the straightforward version of ``embedding.train``,
which learns one vector per graph by skip-gram with negative sampling over
its WL tokens.

``affgraph.embedding.train`` runs the same float operations in the same
order on the same random stream, and the tests compare the two bit for bit.
Here every scatter is a 2-D ``np.add.at``, negatives come from
``Generator.choice(p=...)``, outer products are broadcast and each gradient
is scaled into a fresh array.  The product instead scatters into the flat
view, two entries per ``complex128`` lane when the width is even, with each
row's indices tabled once; it draws each negative from a bucket table over
the noise CDF and binary-searches only draws whose bucket holds a CDF step;
it forms outer products with ``einsum``; it runs the negatives in blocks of
rows; and it scales gradients in place.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from affgraph.embedding import (
    DivergenceError,
    EmbeddingTable,
    TrainConfig,
    Vocabulary,
    _sigmoid,
)


def train(
    corpus_ids: list[str],
    corpus_tokens: list[Counter],
    vocab: Vocabulary,
    cfg: TrainConfig,
    seed: int,
) -> EmbeddingTable:
    """Train per-graph vectors so each graph predicts its own WL tokens:
    skip-gram with negative sampling, deterministic under a fixed ``seed``."""
    cfg.validate()
    n_graphs = len(corpus_ids)
    n_vocab = len(vocab)
    if n_graphs == 0 or n_vocab == 0:
        raise ValueError("empty corpus or vocabulary")
    rng = np.random.default_rng(seed)
    dim = cfg.embedding_dim
    graph_vecs = (rng.random((n_graphs, dim)) - 0.5) / dim
    token_vecs = np.zeros((n_vocab, dim))

    pairs = np.array(
        [
            (gi, vocab.index[tok])
            for gi, tokens in enumerate(corpus_tokens)
            for tok, count in sorted(tokens.items())
            for _ in range(count)
        ],
        dtype=np.int64,
    )
    noise = np.asarray(vocab.counts, dtype=float) ** 0.75
    noise /= noise.sum()

    total_steps = cfg.epochs * max(1, (len(pairs) + cfg.batch_size - 1) // cfg.batch_size)
    step = 0
    initial_loss = None
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(pairs), cfg.batch_size):
            batch = pairs[order[start : start + cfg.batch_size]]
            frac = step / max(1, total_steps)
            lr = cfg.learning_rate * max(cfg.min_lr_factor, 1.0 - frac)
            step += 1
            g_idx = batch[:, 0]
            t_idx = batch[:, 1]
            g = graph_vecs[g_idx]
            neg_idx = rng.choice(n_vocab, size=(len(batch), cfg.negatives), p=noise)
            t = token_vecs[t_idx]
            pos_score = _sigmoid(np.einsum("bd,bd->b", g, t))
            neg = token_vecs[neg_idx]  # (b, k, d)
            neg_score = _sigmoid(np.einsum("bd,bkd->bk", g, neg))
            loss = float(
                -np.mean(np.log(pos_score + 1e-12)
                         + np.sum(np.log(1.0 - neg_score + 1e-12), axis=1))
            )
            grad_pos = (pos_score - 1.0)[:, None]  # d/d(g.t)
            grad_g = grad_pos * t + np.einsum("bk,bkd->bd", neg_score, neg)
            grad_t = grad_pos * g
            grad_neg = neg_score[:, :, None] * g[:, None, :]
            # batch SGD: average the accumulated per-pair gradients
            scale = lr / len(batch)
            np.add.at(graph_vecs, g_idx, -scale * grad_g)
            np.add.at(token_vecs, t_idx, -scale * grad_t)
            np.add.at(token_vecs, neg_idx.ravel(),
                      -scale * grad_neg.reshape(-1, dim))
            epoch_loss += loss
            n_batches += 1
        mean_loss = epoch_loss / max(1, n_batches)
        history.append(mean_loss)
        if not np.isfinite(mean_loss):
            raise DivergenceError(
                f"epoch {epoch}: non-finite mean loss; lower the learning rate"
            )
        if initial_loss is None:
            initial_loss = mean_loss
        elif mean_loss > abs(initial_loss) * 10:
            raise DivergenceError(
                f"epoch {epoch}: mean loss {mean_loss:.4f} exceeds 10x initial "
                f"{initial_loss:.4f}; lower the learning rate"
            )
    return EmbeddingTable(graph_ids=list(corpus_ids), vectors=graph_vecs,
                          loss_history=history)
