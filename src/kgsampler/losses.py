"""Negative sampling and training objectives.

The base objective is the soft-margin (log-sigmoid) pair loss

    -1/2 [ log sigma(score(t) - margin) + E_neg log sigma(margin - score(neg)) ]

where the expectation over a positive's negatives is a uniform mean, or a
softmax-over-scores weighted mean when the adversarial temperature is
positive (weights are constants: no gradient flows through them).

The neighbor-aware variant adds, for every positive, the pair losses of the
training triples sharing an endpoint with it, the whole group scaled by
1 / (1 + number of neighbors) so a zero-neighbor positive reduces exactly
to the base loss.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph, neighbor_triple_ids
from .samplers import Minibatch
from .scorers import (EmbeddingStore, check_ids, query_rows, query_rows_backward,
                      query_score_grads, query_scores)

log = logging.getLogger(__name__)

_CORRUPT_RETRIES = 100   # redraw rounds before a colliding negative is marked invalid


@dataclass(frozen=True)
class LossConfig:
    margin: float = 6.0
    negatives_per_positive: int = 64
    adversarial_temperature: float = 1.0   # 0 disables reweighting
    filtered_negatives: bool = True
    neighbors_loss_enabled: bool = False
    neighbor_cap: int = 32

    def __post_init__(self):
        if self.negatives_per_positive < 1:
            raise ValueError("need at least one negative per positive")
        if not np.isfinite(self.margin):
            raise ValueError("margin must be finite")
        if self.adversarial_temperature < 0:
            raise ValueError("adversarial temperature must be >= 0")
        if self.neighbor_cap is None or self.neighbor_cap < 0:
            raise ValueError("neighbor_cap must be an integer >= 0")


@dataclass
class NegativeBatch:
    """Corrupted triples for a batch of positives.

    ``valid`` is False where filtered generation ran out of retries; such
    entries take no part in the loss.
    """

    triples: np.ndarray         # (m, n, 3)
    head_corrupted: np.ndarray  # (m, n) bool
    valid: np.ndarray           # (m, n) bool


@dataclass(frozen=True)
class RowGrads:
    """Summed gradient rows of one embedding table.

    ``ids`` are the sorted unique rows that received gradient and ``rows``
    their (len(ids), width) sums; ``len`` is the touched-row count.
    """

    ids: np.ndarray   # (n,) int64
    rows: np.ndarray  # (n, width) float64

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SparseGrads:
    """Gradients of a batch loss: one :class:`RowGrads` per embedding table.

    ``scored_rows`` counts the positives and valid negatives the loss
    scored, ``exhausted_negatives`` the negatives that filtered corruption
    could not draw (``~NegativeBatch.valid``).
    """

    entities: RowGrads
    relations: RowGrads
    scored_rows: int = 0
    exhausted_negatives: int = 0


# Rows per block of the loss's score and gradient passes: each block's
# per-row temporaries stay cache-sized instead of spanning the whole batch.
# 1024 read fastest of 512-4096 on a b=1024, 64-negative, K=64 RotatE batch.
BLOCK_ROWS = 1024


def _query_blocks(rows: np.ndarray, head: np.ndarray, fixed: np.ndarray,
                  rel: np.ndarray):
    """Walk ``rows``, row ids sorted by query, in blocks of at most ``BLOCK_ROWS``.

    A row's query is (side, fixed entity, relation); the tail-side rows
    (``head`` False) come first, and no block mixes the two sides. Yields
    ``(block, side, starts, group)``: the block's row ids, the side of the
    candidate (2 = object, 0 = subject), the offsets in ``block`` where a
    query starts and each row's query number within the block. A query that
    straddles a block boundary starts again in the next block.
    """
    h, f, r = head[rows], fixed[rows], rel[rows]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (h[1:] != h[:-1]) | (f[1:] != f[:-1]) | (r[1:] != r[:-1])
    n_tail = len(rows) - np.count_nonzero(h)
    for side, lo, hi in ((2, 0, n_tail), (0, n_tail, len(rows))):
        for i in range(lo, hi, BLOCK_ROWS):
            j = min(i + BLOCK_ROWS, hi)
            first = new[i:j].copy()
            first[0] = True
            yield rows[i:j], side, np.flatnonzero(first), np.cumsum(first) - 1


def _row_slots(n: int, width: int, *ids):
    """The sorted distinct ids in ``ids`` (arrays of ids in [0, n)), and their flat offsets.

    Returns ``(distinct, at)``: ``at[i]`` is the offset of id ``i``'s first
    entry in a flat accumulator of ``len(distinct)`` rows of ``width``.
    """
    seen = np.zeros(n, dtype=bool)
    for a in ids:
        seen[a] = True
    distinct = np.flatnonzero(seen)
    at = np.zeros(n, dtype=np.int64)
    at[distinct] = np.arange(0, len(distinct) * width, width)
    return distinct, at


def log_sigmoid(x):
    """log(sigma(x)), safe for the whole float64 range."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def sigmoid(x):
    return np.exp(log_sigmoid(x))


def corrupt_batch(g: KnowledgeGraph, positives: np.ndarray, n: int,
                  filtered: bool, rng) -> NegativeBatch:
    """Corrupt each positive n times by replacing head or tail (fair coin).

    Replacement entities are uniform over all entities except the original.
    With ``filtered`` on, candidates found among the known triples (the
    graph's ``spo_keys`` over train/valid/test) are re-drawn; entries still
    colliding after ``_CORRUPT_RETRIES`` rounds are marked invalid and a warning
    is logged.
    """
    if g.n_entities < 2:
        raise ValueError("corruption needs at least two entities")
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    m = len(positives)
    s = positives[:, 0][:, None]
    r = positives[:, 1][:, None]
    o = positives[:, 2][:, None]

    head_mask = rng.random((m, n)) < 0.5
    original = np.where(head_mask, s, o)

    def draw(shape, orig):
        cand = rng.integers(0, g.n_entities - 1, size=shape)
        return cand + (cand >= orig)

    cand = draw((m, n), original)
    triples = np.stack([np.where(head_mask, cand, s), np.broadcast_to(r, (m, n)),
                        np.where(head_mask, o, cand)], axis=2)
    valid = np.ones((m, n), dtype=bool)

    if filtered:
        # each round redraws and re-checks only the entries still colliding
        rows, cols = np.nonzero(g.contains_triples(triples))
        column = np.where(head_mask, 0, 2)
        for _ in range(_CORRUPT_RETRIES):
            if len(rows) == 0:
                break
            triples[rows, cols, column[rows, cols]] = draw((len(rows),), original[rows, cols])
            colliding = g.contains_triples(triples[rows, cols])
            rows, cols = rows[colliding], cols[colliding]
        if len(rows):
            valid[rows, cols] = False
            log.warning("filtered corruption exhausted retries for %d negatives", len(rows))

    return NegativeBatch(triples=triples, head_corrupted=head_mask, valid=valid)


def adversarial_weights(scores_of_negatives: np.ndarray, alpha: float,
                        valid: np.ndarray = None) -> np.ndarray:
    """softmax(alpha * scores) along the last axis; uniform when alpha is 0.

    With a ``valid`` mask the softmax runs over the valid entries only: the
    others get weight 0, and so does every entry of a row with none valid.
    """
    scores = np.asarray(scores_of_negatives, dtype=np.float64)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if valid is None:
        valid = np.ones(scores.shape, dtype=bool)
    z = np.where(valid, alpha * scores, -np.inf)
    zmax = z.max(axis=-1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.where(valid, np.exp(z - zmax), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    return np.divide(e, total, out=np.zeros_like(e), where=total > 0)


def softmargin_batch_loss_and_grads(
    store: EmbeddingStore,
    positives: np.ndarray,
    negatives: NegativeBatch,
    config: LossConfig,
    entry_weights: np.ndarray = None,
    frozen_weights: np.ndarray = None,
):
    """Soft-margin loss summed over positives, plus sparse gradients.

    ``entry_weights`` scales each positive's whole term (used by the
    neighbor-aware loss); ``frozen_weights`` overrides the adversarial
    weights (they are treated as constants either way).

    Every scored row is a pair (query, candidate): a positive or a
    tail-corrupted negative scores its object against the query built from
    (subject, relation), a head-corrupted negative its subject against the
    query built from (object, relation). Rows are sorted by query once, so a
    positive's negatives share one query row (see :func:`_query_blocks`).
    Two passes walk them in blocks. The score pass scores every row: the
    adversarial weights, and so every gradient coefficient, need all of a
    positive's negative scores. The gradient pass then runs over the
    positives and the negatives with a nonzero coefficient: candidate
    gradients are scattered per row, query gradients summed per query and
    mapped back to the fixed entity and the relation by
    :func:`scorers.query_rows_backward`.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    m, n = negatives.valid.shape
    if entry_weights is None:
        entry_weights = np.ones(m)
    gamma = config.margin

    spo = np.concatenate([positives, negatives.triples.reshape(-1, 3)])
    check_ids(store, spo)
    head = np.concatenate([np.zeros(m, dtype=bool), negatives.head_corrupted.reshape(-1)])
    fixed = np.where(head, spo[:, 2], spo[:, 0])
    cand = np.where(head, spo[:, 0], spo[:, 2])
    rel = spo[:, 1]
    order = np.lexsort((fixed, rel, head))

    scores = np.empty(len(spo))
    for block, side, starts, group in _query_blocks(order, head, fixed, rel):
        q = query_rows(store, spo[block[starts]], side)
        scores[block] = query_scores(store, q[group], store.entities[cand[block]])
    pos_scores = scores[:m]
    neg_scores = scores[m:].reshape(m, n)

    if frozen_weights is None:
        weights = adversarial_weights(neg_scores, config.adversarial_temperature,
                                      negatives.valid)
    else:
        weights = np.where(negatives.valid, frozen_weights, 0.0)

    pos_term = log_sigmoid(pos_scores - gamma)
    neg_term = (weights * log_sigmoid(gamma - neg_scores)).sum(axis=1)
    loss = float(np.dot(entry_weights, -0.5 * (pos_term + neg_term)))

    # d loss / d score, including the per-entry scaling
    dpos = entry_weights * (-0.5) * sigmoid(gamma - pos_scores)
    dneg = (entry_weights[:, None] * 0.5 * weights * sigmoid(neg_scores - gamma)).reshape(-1)
    coefs = np.concatenate([dpos, dneg])

    # Positives keep their rows even at coefficient 0; negatives only when
    # their weighted coefficient is nonzero.
    touched = np.concatenate([np.ones(m, dtype=bool), dneg != 0.0])
    rows = order[touched[order]]
    ew, rw = store.entities.shape[1], store.relations.shape[1]
    ent_ids, ent_at = _row_slots(store.n_entities, ew, fixed[rows], cand[rows])
    rel_ids, rel_at = _row_slots(store.n_relations, rw, rel[rows])
    ent_acc = np.zeros(len(ent_ids) * ew)
    rel_acc = np.zeros(len(rel_ids) * rw)
    ent_cols, rel_cols = np.arange(ew), np.arange(rw)
    for block, side, starts, group in _query_blocks(rows, head, fixed, rel):
        firsts = spo[block[starts]]
        q = query_rows(store, firsts, side)
        dq, de = query_score_grads(store, q[group], store.entities[cand[block]],
                                   coefs[block])
        d_fixed, d_rel = query_rows_backward(store, firsts, side,
                                             np.add.reduceat(dq, starts, axis=0))
        # 1-D np.add.at over flat offsets: the same sums as the 2-D form, faster
        np.add.at(ent_acc, (ent_at[cand[block], None] + ent_cols).ravel(), de.ravel())
        np.add.at(ent_acc, (ent_at[firsts[:, 2 - side], None] + ent_cols).ravel(),
                  d_fixed.ravel())
        np.add.at(rel_acc, (rel_at[firsts[:, 1], None] + rel_cols).ravel(), d_rel.ravel())
    grads = SparseGrads(entities=RowGrads(ent_ids, ent_acc.reshape(-1, ew)),
                        relations=RowGrads(rel_ids, rel_acc.reshape(-1, rw)),
                        scored_rows=m + int(np.count_nonzero(negatives.valid)),
                        exhausted_negatives=int(np.count_nonzero(~negatives.valid)))
    return loss, grads


def softmargin_loss_and_grads(store: EmbeddingStore, t, negatives, config: LossConfig,
                              frozen_weights=None):
    """Soft-margin loss of one positive against its negatives."""
    negatives = np.asarray(negatives, dtype=np.int64).reshape(1, -1, 3)
    if negatives.shape[1] == 0:
        raise ValueError("need at least one negative")
    batch = NegativeBatch(
        triples=negatives,
        head_corrupted=np.zeros(negatives.shape[:2], dtype=bool),
        valid=np.ones(negatives.shape[:2], dtype=bool),
    )
    fw = None if frozen_weights is None else np.asarray(frozen_weights).reshape(1, -1)
    return softmargin_batch_loss_and_grads(
        store, np.asarray(t).reshape(1, 3), batch, config, frozen_weights=fw
    )


def _capped_neighbors(g, t, cap, rng):
    """Neighbor triple ids, uniformly subsampled to the cap.

    Consumes randomness only when the cap actually truncates, so a cap of
    zero (or a neighbor set within the cap) is rng-neutral.
    """
    ids = neighbor_triple_ids(g, t)
    if len(ids) > cap:
        if cap == 0:
            return ids[:0]
        return np.sort(rng.choice(ids, size=cap, replace=False))
    return ids


def neighbors_loss_and_grads(g: KnowledgeGraph, store: EmbeddingStore,
                             m: Minibatch, config: LossConfig, rng):
    """Neighbor-aware loss of a minibatch, with sparse gradients.

    For each positive t the scaled group contains t itself and its (capped)
    neighbor triples, every member paired with its own fresh negatives. The
    1/(1+count) normalizer uses the post-cap neighbor count.
    """
    entries = []
    weights = []
    for row in m.positives:
        nbr_ids = _capped_neighbors(g, row, config.neighbor_cap, rng)
        w = 1.0 / (1.0 + len(nbr_ids))
        entries.append(row)
        weights.append(w)
        for i in nbr_ids:
            entries.append(g.train[i])
            weights.append(w)
    entries = np.asarray(entries, dtype=np.int64).reshape(-1, 3)
    weights = np.asarray(weights)
    negs = corrupt_batch(g, entries, config.negatives_per_positive,
                         config.filtered_negatives, rng)
    return softmargin_batch_loss_and_grads(store, entries, negs, config,
                                           entry_weights=weights)


def vanilla_loss_and_grads(g: KnowledgeGraph, store: EmbeddingStore,
                           m: Minibatch, config: LossConfig, rng):
    """Plain soft-margin loss of a minibatch (sum over its positives)."""
    negs = corrupt_batch(g, m.positives, config.negatives_per_positive,
                         config.filtered_negatives, rng)
    return softmargin_batch_loss_and_grads(store, m.positives, negs, config)


def minibatch_loss_and_grads(g, store, m, config: LossConfig, rng):
    """Dispatch between the plain and the neighbor-aware objective."""
    if config.neighbors_loss_enabled:
        return neighbors_loss_and_grads(g, store, m, config, rng)
    return vanilla_loss_and_grads(g, store, m, config, rng)
