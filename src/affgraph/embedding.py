"""Graph embeddings: WL rooted-subgraph tokens and negative-sampling training."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

_HASH_ABOVE = 4096  # token strings longer than this are digest-compressed
_NEG_BLOCK = 64  # rows per negative-sampling block: no (batch, k, dim) array is held
_NOISE_BUCKETS = 1 << 14  # buckets of the negative draw's lookup table
# bounds of the training settings, far above the defaults (128, 5, 14): larger
# values ask for more memory or time than any corpus here needs
MAX_EMBEDDING_DIM, MAX_NEGATIVES, MAX_WL_DEPTH = 4096, 100, 64


def _compress(token: str) -> str:
    if len(token) <= _HASH_ABOVE:
        return token
    return "h:" + hashlib.sha256(token.encode("utf-8")).hexdigest()


def wl_tokens(labels: list[str], edges: list[tuple[int, int]], depth: int) -> Counter:
    """Multiset of rooted-subgraph tokens over WL iterations 0..depth.

    Iteration 0 tokens are the raw vertex labels; each next iteration
    concatenates a vertex's token with the sorted tokens of its neighbors.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = len(labels)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    current = [_compress(t) for t in labels]
    tokens: Counter = Counter(current)
    for _ in range(depth):
        # compress each round so label length stays bounded across iterations
        current = [
            _compress(
                current[v] + "(" + ",".join(sorted(current[u] for u in adj[v])) + ")"
            )
            for v in range(n)
        ]
        tokens.update(current)
    return tokens


@dataclass
class Vocabulary:
    index: dict[str, int] = field(default_factory=dict)
    counts: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.index)


def build_vocabulary(corpus_tokens: list[Counter]) -> Vocabulary:
    """Index every distinct token across the corpus, recording counts."""
    if not corpus_tokens:
        raise ValueError("empty corpus")
    vocab = Vocabulary()
    for tokens in corpus_tokens:
        for tok, count in sorted(tokens.items()):
            if tok not in vocab.index:
                vocab.index[tok] = len(vocab.counts)
                vocab.counts.append(0)
            vocab.counts[vocab.index[tok]] += count
    return vocab


@dataclass
class TrainConfig:
    embedding_dim: int = 128
    learning_rate: float = 0.5
    batch_size: int = 512
    wl_depth: int = 14
    negatives: int = 5
    epochs: int = 200
    min_lr_factor: float = 1e-4

    def validate(self) -> None:
        if self.embedding_dim <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("embedding_dim, batch_size, epochs must be positive")
        if not (self.learning_rate > 0 and 0 <= self.min_lr_factor <= 1):
            raise ValueError("learning_rate must be positive, min_lr_factor in [0, 1]")
        if self.wl_depth < 0 or self.negatives <= 0:
            raise ValueError("wl_depth must be >= 0, negatives positive")
        for name, high in (("embedding_dim", MAX_EMBEDDING_DIM),
                           ("negatives", MAX_NEGATIVES), ("wl_depth", MAX_WL_DEPTH)):
            if getattr(self, name) > high:
                raise ValueError(f"{name} {getattr(self, name)} above {high}")


class DivergenceError(RuntimeError):
    """Raised when the training loss blows up past the divergence guard."""


@dataclass
class EmbeddingTable:
    graph_ids: list[str]
    vectors: np.ndarray  # (n_graphs, dim)
    loss_history: list[float] = field(default_factory=list)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _scatter_adder(target: np.ndarray):
    """Return ``add(rows, values)``, which is ``np.add.at(target, rows, values)``
    for the 2-D ``target``, but faster.

    It scatters element-wise into the flat view, numpy's fast 1-D ``ufunc.at``
    path.  When the rows have an even width, each pair of elements goes as one
    ``complex128`` lane: a complex add is two independent double adds, and
    there are half as many indices.  Every element still receives its values
    in row order, so each sum is the same.  Each row's flat indices are
    tabled once.  A ``target`` that has no flat view raises rather than
    updating a copy.
    """
    flat = target.view()
    flat.shape = (-1,)
    width = target.shape[1]
    if width % 2 == 0:
        flat = flat.view(np.complex128)
        width //= 2
    index = np.arange(flat.size).reshape(-1, width)  # index[r] = r*width + arange(width)

    def add(rows: np.ndarray, values: np.ndarray) -> None:
        np.add.at(flat, index[rows].ravel(), values.ravel().view(flat.dtype))

    return add


def _noise_cdf(counts: list[int]) -> np.ndarray:
    """The cumulative unigram^0.75 noise distribution, ending at exactly 1."""
    noise = np.asarray(counts, dtype=float) ** 0.75
    noise /= noise.sum()
    # Generator.choice(p=noise) draws exactly this way, minus its per-call
    # check of p: the same samples, and the same generator state after.
    cdf = noise.cumsum()
    cdf /= cdf[-1]
    return cdf


def _noise_sampler(cdf: np.ndarray):
    """Return ``draw(u)``, which is ``cdf.searchsorted(u, side="right")`` for
    keys ``u`` in [0, 1], but faster.

    [0, 1) is cut into ``_NOISE_BUCKETS`` equal buckets, and 1 has one of its
    own.  A bucket that holds no ``cdf`` entry strictly inside it (its lower
    edge may be one) gives one answer for each of its keys, looked up in a
    table; only keys in the other buckets are searched.  The bucket count is
    a power of two, so ``int(u * _NOISE_BUCKETS)`` is exact.
    """
    edges = np.arange(_NOISE_BUCKETS + 2) / _NOISE_BUCKETS
    lo = cdf.searchsorted(edges[:-1], side="right")  # entries <= the bucket's start
    hi = cdf.searchsorted(edges[1:], side="left")  # entries < the next bucket's start
    table = np.where(lo == hi, lo, -1)

    def draw(u: np.ndarray) -> np.ndarray:
        idx = table[(u * _NOISE_BUCKETS).astype(np.intp)]
        miss = idx < 0
        if miss.any():
            idx[miss] = cdf.searchsorted(u[miss], side="right")
        return idx

    return draw


@np.errstate(over="ignore", invalid="ignore")  # a diverging run raises below
def train(
    corpus_ids: list[str],
    corpus_tokens: list[Counter],
    vocab: Vocabulary,
    cfg: TrainConfig,
    seed: int,
) -> EmbeddingTable:
    """Train per-graph vectors so each graph predicts its own WL tokens.

    Each (graph, token) occurrence is a positive pair, scored against
    ``cfg.negatives`` tokens drawn from the unigram^0.75 noise distribution
    (skip-gram with negative sampling).  Deterministic under a fixed ``seed``.
    """
    cfg.validate()
    n_graphs = len(corpus_ids)
    n_vocab = len(vocab)
    if n_graphs == 0 or n_vocab == 0:
        raise ValueError("empty corpus or vocabulary")
    rng = np.random.default_rng(seed)
    dim = cfg.embedding_dim
    graph_vecs = (rng.random((n_graphs, dim)) - 0.5) / dim
    token_vecs = np.zeros((n_vocab, dim))

    # one (graph, token) row per token occurrence, in sorted token order
    tok_ids, counts, sizes = [], [], []
    for tokens in corpus_tokens:
        items = sorted(tokens.items())
        tok_ids += [vocab.index[tok] for tok, _ in items]
        counts += [count for _, count in items]
        sizes.append(len(items))
    pairs = np.repeat(np.column_stack([np.repeat(np.arange(n_graphs), sizes),
                                       np.array(tok_ids, dtype=np.int64)]),
                      counts, axis=0)
    draw_negatives = _noise_sampler(_noise_cdf(vocab.counts))
    scatter_graphs = _scatter_adder(graph_vecs)
    scatter_tokens = _scatter_adder(token_vecs)

    # one step's working set, allocated once and written in place: graph
    # rows, token rows (then their gradient), graph gradient and one negative
    # block (then its gradient).  ``take`` with ``mode="clip"`` writes into
    # ``out`` directly, where "raise" would buffer a copy; no index is out of
    # range, as the pairs hold vocabulary ids and the noise CDF ends at 1.
    size = min(cfg.batch_size, len(pairs))
    g_buf, t_buf, grad_g_buf = (np.empty((size, dim)) for _ in range(3))
    neg_buf = np.empty((min(size, _NEG_BLOCK), cfg.negatives, dim))

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
            nb = len(batch)
            g_idx = batch[:, 0]
            t_idx = batch[:, 1]
            g = np.take(graph_vecs, g_idx, axis=0, out=g_buf[:nb], mode="clip")
            neg_idx = draw_negatives(rng.random((nb, cfg.negatives)))
            t = np.take(token_vecs, t_idx, axis=0, out=t_buf[:nb], mode="clip")
            pos_score = _sigmoid(np.einsum("bd,bd->b", g, t))
            grad_pos = pos_score - 1.0  # d/d(g.t)
            # einsum writes each product once, as broadcasting does, but
            # adds it to a zeroed output, so a -0.0 product comes out +0.0.
            # No vector entry is ever -0.0 (none starts so, and x + y is
            # -0.0 only when both are), so every scattered sum is the same.
            grad_g = np.einsum("b,bd->bd", grad_pos, t, out=grad_g_buf[:nb])
            neg_score = np.empty(neg_idx.shape)
            # every block reads token_vecs before any of them is updated; each
            # uses the negative workspace's first rows
            blocks = [(slice(i, i + _NEG_BLOCK), neg_buf[: nb - i])
                      for i in range(0, nb, _NEG_BLOCK)]
            for rows, block in blocks:
                neg = np.take(token_vecs, neg_idx[rows], axis=0, out=block,
                              mode="clip")  # (rows, k, d)
                neg_score[rows] = _sigmoid(np.einsum("bd,bkd->bk", g[rows], neg))
                grad_g[rows] += np.einsum("bk,bkd->bd", neg_score[rows], neg)
            loss = float(
                -np.mean(np.log(pos_score + 1e-12)
                         + np.sum(np.log(1.0 - neg_score + 1e-12), axis=1))
            )
            grad_t = np.einsum("b,bd->bd", grad_pos, g, out=t)
            # batch SGD: average the accumulated per-pair gradients
            scale = -lr / nb
            grad_g *= scale
            grad_t *= scale
            scatter_graphs(g_idx, grad_g)
            scatter_tokens(t_idx, grad_t)
            for rows, block in blocks:  # block order keeps the oracle's row order
                grad_neg = np.einsum("bk,bd->bkd", neg_score[rows], g[rows], out=block)
                grad_neg *= scale
                scatter_tokens(neg_idx[rows].ravel(), grad_neg)
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


def save_embeddings(table: EmbeddingTable, path: str) -> None:
    """Line-delimited export: graph id, dimension, decimal vector entries."""
    with open(path, "w", encoding="utf-8") as fh:
        for gid, vec in zip(table.graph_ids, table.vectors):
            values = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{gid}\t{len(vec)}\t{values}\n")


# Largest magnitude a loaded table entry may have: squared it is 1e200, so a
# sum of squares over any table that fits in memory stays finite.
MAX_ENTRY = 1e100


def load_embeddings(path: str) -> EmbeddingTable:
    """Read ``save_embeddings`` output, skipping blank lines; a malformed row,
    or an entry that is not finite or beyond ``MAX_ENTRY`` in magnitude, raises
    ``ValueError("line N: ...")``."""
    rows: dict[str, np.ndarray] = {}  # graph id -> vector, in file order
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != 3:
                    raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
                gid, dim, values = fields
                vec = np.array(list(map(float, values.split())))
                if len(vec) != int(dim):
                    raise ValueError(f"vector length mismatch for {gid}")
                width = len(next(iter(rows.values()), vec))
                if len(vec) != width:
                    raise ValueError(f"{gid} has {len(vec)} entries, the first row has {width}")
                if not (np.abs(vec) <= MAX_ENTRY).all():  # NaN fails this too
                    raise ValueError(f"non-finite value or one beyond {MAX_ENTRY:g} "
                                     f"in the vector for {gid}")
                if gid in rows:
                    raise ValueError(f"repeated id {gid!r}")
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from exc
            rows[gid] = vec
    if not rows:
        raise ValueError("no embedding rows")
    return EmbeddingTable(graph_ids=list(rows), vectors=np.vstack(list(rows.values())))


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok, idx in sorted(vocab.index.items(), key=lambda kv: kv[1]):
            fh.write(f"{idx}\t{vocab.counts[idx]}\t{tok}\n")
