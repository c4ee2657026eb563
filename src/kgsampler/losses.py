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
from .scorers import EmbeddingStore, score_gradients, score_triples

log = logging.getLogger(__name__)

_CORRUPT_RETRIES = 100   # redraw rounds before a colliding negative is marked invalid


@dataclass(frozen=True)
class LossConfig:
    margin: float = 6.0
    negatives_per_positive: int = 64
    adversarial_temperature: float = 1.0   # 0 disables reweighting
    filtered_negatives: bool = True
    neighbors_loss_enabled: bool = False
    neighbor_cap: int = 32                 # None = unlimited

    def __post_init__(self):
        if self.negatives_per_positive < 1:
            raise ValueError("need at least one negative per positive")
        if not np.isfinite(self.margin):
            raise ValueError("margin must be finite")
        if self.adversarial_temperature < 0:
            raise ValueError("adversarial temperature must be >= 0")


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
    """Gradients of a batch loss: one :class:`RowGrads` per embedding table."""

    entities: RowGrads
    relations: RowGrads


# Rows per block of the loss's score and gradient passes: each block's
# per-row temporaries stay cache-sized instead of spanning the whole batch.
# 1024 read fastest of 512-4096 on a b=1024, 64-negative, K=64 RotatE batch.
BLOCK_ROWS = 1024


def _blocked_scores(store: EmbeddingStore, spo: np.ndarray) -> np.ndarray:
    """score_triples over ``spo``, one block of rows at a time."""
    out = np.empty(len(spo))
    for i in range(0, len(spo), BLOCK_ROWS):
        out[i:i + BLOCK_ROWS] = score_triples(store, spo[i:i + BLOCK_ROWS])
    return out


def _scatter_add(acc: np.ndarray, inv: np.ndarray, rows: np.ndarray) -> None:
    """acc.reshape(-1, width)[inv] += rows, repeated indices summed in order.

    A 1-D ``np.add.at`` over flat offsets; it adds the same values in the
    same order as the 2-D form, and faster.
    """
    width = rows.shape[1]
    np.add.at(acc, (inv[:, None] * width + np.arange(width)).ravel(), rows.ravel())


def _blocked_gradients(store: EmbeddingStore, spo: np.ndarray,
                       coefs: np.ndarray) -> SparseGrads:
    """Sum ``coefs[i]`` times the score gradient of each row of ``spo``, per table.

    Rows are walked in blocks of ``BLOCK_ROWS``: each block's partials are
    scaled and scattered into flat per-table accumulators, so no partial of
    the whole row set is ever held at once. Every row keeps its ids, even at
    coefficient 0.
    """
    n = len(spo)
    ew, rw = store.entities.shape[1], store.relations.shape[1]
    # subjects occupy ent_inv[:n], objects ent_inv[n:]
    ent_ids, ent_inv = np.unique(np.concatenate([spo[:, 0], spo[:, 2]]),
                                 return_inverse=True)
    rel_ids, rel_inv = np.unique(spo[:, 1], return_inverse=True)
    ent_acc = np.zeros(len(ent_ids) * ew)
    rel_acc = np.zeros(len(rel_ids) * rw)
    for i in range(0, n, BLOCK_ROWS):
        j = min(i + BLOCK_ROWS, n)
        ds, dr, do = score_gradients(store, spo[i:j])
        coef = coefs[i:j, None]
        ds *= coef
        dr *= coef
        do *= coef
        _scatter_add(ent_acc, ent_inv[i:j], ds)
        _scatter_add(rel_acc, rel_inv[i:j], dr)
        _scatter_add(ent_acc, ent_inv[n + i:n + j], do)
    return SparseGrads(entities=RowGrads(ent_ids, ent_acc.reshape(-1, ew)),
                       relations=RowGrads(rel_ids, rel_acc.reshape(-1, rw)))


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
    valid = np.ones((m, n), dtype=bool)

    if filtered:
        def colliding():
            check = np.stack([
                np.where(head_mask, cand, np.broadcast_to(s, (m, n))),
                np.broadcast_to(r, (m, n)),
                np.where(head_mask, np.broadcast_to(o, (m, n)), cand),
            ], axis=2)
            return g.contains_triples(check)

        pending = colliding()
        for _ in range(_CORRUPT_RETRIES):
            rows, cols = np.nonzero(pending)
            if len(rows) == 0:
                break
            cand[rows, cols] = draw((len(rows),), original[rows, cols])
            pending &= colliding()
        if pending.any():
            valid &= ~pending
            log.warning("filtered corruption exhausted retries for %d negatives",
                        int(pending.sum()))

    neg_s = np.where(head_mask, cand, s)
    neg_o = np.where(head_mask, o, cand)
    triples = np.stack([neg_s, np.broadcast_to(r, (m, n)), neg_o], axis=2)
    return NegativeBatch(triples=triples.astype(np.int64),
                         head_corrupted=head_mask, valid=valid)


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

    Two passes, each over blocks of ``BLOCK_ROWS`` rows. The score pass
    scores every positive and negative: the adversarial weights, and so
    every gradient coefficient, need all of a positive's negative scores.
    The gradient pass then runs once over the positives and the negatives
    with a nonzero coefficient.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    m, n = negatives.valid.shape
    if entry_weights is None:
        entry_weights = np.ones(m)
    gamma = config.margin

    pos_scores = _blocked_scores(store, positives)
    flat_negs = negatives.triples.reshape(-1, 3)
    neg_scores = _blocked_scores(store, flat_negs).reshape(m, n)

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

    # Positives keep their rows even at coefficient 0; negatives only when
    # their weighted coefficient is nonzero.
    touched = dneg != 0.0
    grads = _blocked_gradients(store,
                               np.concatenate([positives, flat_negs[touched]]),
                               np.concatenate([dpos, dneg[touched]]))
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
    if cap is not None and len(ids) > cap:
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
