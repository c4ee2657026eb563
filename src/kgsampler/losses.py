"""Negative sampling and training objectives.

The base objective is the soft-margin (log-sigmoid) pair loss

    -1/2 [ log sigma(score(t) - margin) + E_neg log sigma(margin - score(neg)) ]

where the expectation over a positive's negatives is a uniform mean, or a
softmax-over-scores weighted mean when the adversarial temperature is
positive (weights are constants: no gradient flows through them).

The neighbor-aware variant adds, for every positive, the pair losses of the
training triples sharing an endpoint with it (at most ``neighbor_cap`` of
them, a uniform subset, from :func:`graph.neighbor_entries`), the whole
group scaled by 1 / (1 + number of kept neighbors) so a zero-neighbor
positive reduces exactly to the base loss. One pass over blocks of whole
positives scores every row and differentiates it from its own partials.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .graph import KnowledgeGraph, neighbor_entries, pack_triples
from .samplers import Minibatch
from .scorers import BLOCK_ROWS, EmbeddingStore, check_ids, query_rows, query_scores

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
        if not np.isfinite(self.adversarial_temperature) or self.adversarial_temperature < 0:
            raise ValueError("adversarial_temperature must be finite and >= 0")
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


def _row_slots(n: int, *ids):
    """The sorted distinct ids of the arrays ``ids`` (in [0, n)) and each id's rank among them."""
    seen = np.zeros(n, dtype=bool)
    for a in ids:
        seen[a] = True
    distinct = np.flatnonzero(seen)
    slot = np.zeros(n, dtype=np.int64)
    slot[distinct] = np.arange(len(distinct))
    return distinct, slot


def _scatter_rows(acc: np.ndarray, slots: np.ndarray, rows: np.ndarray):
    """``acc[slots[i]] += rows[i]``, repeated slots summed in order, by one 1-D ``np.add.at``.

    Flat offsets give the 2-D form's sums, faster; complex128 views of an
    even width add two float64 columns per offset, with half the offsets.
    """
    width = acc.shape[1]
    acc, rows = acc.reshape(-1), np.ascontiguousarray(rows).reshape(-1)
    if width % 2 == 0:
        acc, rows, width = acc.view(np.complex128), rows.view(np.complex128), width // 2
    np.add.at(acc, ((slots * width)[:, None] + np.arange(width)).reshape(-1), rows)


def _compact(ids: np.ndarray, distinct: np.ndarray, slot: np.ndarray, acc: np.ndarray):
    """:class:`RowGrads` of ``ids``, some of ``distinct``, from ``acc``'s rows for ``distinct``."""
    return RowGrads(ids, acc if len(ids) == len(distinct) else acc[slot[ids]])


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
    query built from (object, relation). One pass walks blocks of whole
    positives with all of their negatives (``BLOCK_ROWS``), sorted by query
    within a block, so a query row is built once per distinct query in it.
    A block's scores give its adversarial weights and coefficients, and the
    backward map of its :func:`scorers.query_scores` call gives the partials
    from the same difference rows (distance models) or gathered rows (dot
    models): candidate gradients are scattered per row, query gradients
    summed per query and mapped back by the backward map of its
    :func:`scorers.query_rows` call. The loss is summed from all scores
    and weights after the pass. A positive's rows always count as touched,
    a negative's only at a nonzero coefficient.
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
    per = max(1, BLOCK_ROWS // (n + 1))   # whole positives per block, at least one
    # one query key per row, ordered as (side, relation, fixed entity)
    key = pack_triples(head, rel, fixed, store.n_entities, store.n_relations)

    weights = (np.empty((m, n)) if frozen_weights is None
               else np.where(negatives.valid, frozen_weights, 0.0))
    scores = np.empty(len(spo))
    coefs = np.empty(len(spo))   # d loss / d score, including the per-entry scaling
    neg_scores, neg_coefs = scores[m:].reshape(m, n), coefs[m:].reshape(m, n)

    ew, rw = store.entities.shape[1], store.relations.shape[1]
    ent_ids, ent_slot = _row_slots(store.n_entities, fixed, cand)
    rel_ids, rel_slot = _row_slots(store.n_relations, rel)
    ent_acc, rel_acc = np.zeros((len(ent_ids), ew)), np.zeros((len(rel_ids), rw))
    for lo in range(0, m, per):
        hi = min(lo + per, m)
        # the block's positives, then their negatives: the stable sort keeps
        # that order among the rows of one query
        rows = np.r_[lo:hi, m + lo * n:m + hi * n]
        rows = rows[np.argsort(key[rows], kind="stable")]
        k = key[rows]
        first = np.concatenate([[True], k[1:] != k[:-1]])   # query starts
        starts = np.flatnonzero(first)
        firsts = spo[rows[starts]]
        sides = np.where(head[rows[starts]], 0, 2)
        q, rows_backward = query_rows(store, firsts, sides)
        qb, eb = q[np.cumsum(first) - 1], store.entities[cand[rows]]
        scores[rows], scores_backward = query_scores(store, qb, eb, out=qb)

        if frozen_weights is None:
            weights[lo:hi] = adversarial_weights(neg_scores[lo:hi], config.adversarial_temperature,
                                                 negatives.valid[lo:hi])
        w = entry_weights[lo:hi]
        coefs[lo:hi] = w * (-0.5) * sigmoid(gamma - scores[lo:hi])
        neg_coefs[lo:hi] = w[:, None] * 0.5 * weights[lo:hi] * sigmoid(neg_scores[lo:hi] - gamma)

        dq, de = scores_backward(coefs[rows])
        d_fixed, d_rel = rows_backward(np.add.reduceat(dq, starts, axis=0))
        _scatter_rows(ent_acc, ent_slot[cand[rows]], de)
        _scatter_rows(ent_acc, ent_slot[fixed[rows[starts]]], d_fixed)
        _scatter_rows(rel_acc, rel_slot[rel[rows[starts]]], d_rel)

    pos_term = log_sigmoid(scores[:m] - gamma)
    neg_term = (weights * log_sigmoid(gamma - neg_scores)).sum(axis=1)
    loss = float(np.dot(entry_weights, -0.5 * (pos_term + neg_term)))

    touched = coefs != 0.0
    touched[:m] = True
    ent_hit = _row_slots(store.n_entities, fixed[touched], cand[touched])[0]
    rel_hit = _row_slots(store.n_relations, rel[touched])[0]
    grads = SparseGrads(entities=_compact(ent_hit, ent_ids, ent_slot, ent_acc),
                        relations=_compact(rel_hit, rel_ids, rel_slot, rel_acc),
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


def minibatch_loss_and_grads(g, store, m, config: LossConfig, rng):
    """Loss of a minibatch with sparse gradients: plain, or neighbor-aware if enabled.

    The entries are the positives or, with ``config.neighbors_loss_enabled``,
    each positive followed by its kept neighbors (:func:`graph.neighbor_entries`),
    all scaled by 1/(1 + kept). Every entry gets its own fresh negatives.
    """
    entries, weights = m.positives, None
    if config.neighbors_loss_enabled:
        entries, weights = neighbor_entries(g, m.positives, config.neighbor_cap, rng)
    negs = corrupt_batch(g, entries, config.negatives_per_positive,
                         config.filtered_negatives, rng)
    return softmargin_batch_loss_and_grads(store, entries, negs, config,
                                           entry_weights=weights)


def neighbors_loss_and_grads(g: KnowledgeGraph, store: EmbeddingStore,
                             m: Minibatch, config: LossConfig, rng):
    """Neighbor-aware loss of a minibatch, with sparse gradients."""
    config = replace(config, neighbors_loss_enabled=True)
    return minibatch_loss_and_grads(g, store, m, config, rng)


def vanilla_loss_and_grads(g: KnowledgeGraph, store: EmbeddingStore,
                           m: Minibatch, config: LossConfig, rng):
    """Plain soft-margin loss of a minibatch (sum over its positives)."""
    config = replace(config, neighbors_loss_enabled=False)
    return minibatch_loss_and_grads(g, store, m, config, rng)
