"""Minibatch gradient-descent training loop and gradient-variance probe.

The loop ties together a sampling policy, the negative-sampling objective,
and an optimizer that updates only the embedding rows receiving gradient.
Runs are bitwise reproducible for a fixed seed under single-threaded
execution.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import KnowledgeGraph
from .losses import LossConfig, minibatch_loss_and_grads, SparseGrads
from .samplers import Minibatch, SamplerPolicy, epoch_iterator, sample_minibatch
from .scorers import EmbeddingStore
from .stats import expected_degree_of_batch

log = logging.getLogger(__name__)


class NumericalError(Exception):
    """Raised when a batch produces a non-finite loss."""

    def __init__(self, message, batch=None, epoch=None):
        super().__init__(message)
        self.batch = batch
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    optimizer: str = "adam"                # "adam" or "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    sampler_policy: SamplerPolicy = field(default_factory=SamplerPolicy)
    loss_config: LossConfig = field(default_factory=LossConfig)
    eval_every: int = 10
    seed: int = 0
    normalize_entities: bool = False       # project entity rows to the unit ball

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")


class SparseSgd:
    def __init__(self, store: EmbeddingStore, learning_rate: float):
        self.lr = learning_rate

    def step(self, store: EmbeddingStore, grads: SparseGrads):
        store.entities[grads.entities.ids] -= self.lr * grads.entities.rows
        store.relations[grads.relations.ids] -= self.lr * grads.relations.rows


class SparseAdam:
    """Adam with lazily updated moments: untouched rows never move or decay."""

    def __init__(self, store: EmbeddingStore, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.state = {}
        for name, arr in (("entities", store.entities), ("relations", store.relations)):
            self.state[name] = {
                "m": np.zeros_like(arr),
                "v": np.zeros_like(arr),
                "t": np.zeros(len(arr), dtype=np.int64),
            }

    def step(self, store: EmbeddingStore, grads: SparseGrads):
        for name, params, rowgrads in (("entities", store.entities, grads.entities),
                                       ("relations", store.relations, grads.relations)):
            st = self.state[name]
            ids, G = rowgrads.ids, rowgrads.rows
            t = st["t"][ids] + 1
            st["t"][ids] = t
            # in place, in the operation order of m = b1·m + (1-b1)·G,
            # v = b2·v + (1-b2)·G·G and lr·m̂ / (√v̂ + eps), so the bits are kept
            m, v = st["m"][ids], st["v"][ids]
            m *= self.b1
            m += G * (1 - self.b1)
            v *= self.b2
            v += (G * (1 - self.b2)) * G
            st["m"][ids], st["v"][ids] = m, v
            step = m / (1.0 - self.b1 ** t)[:, None]
            step *= self.lr
            v /= (1.0 - self.b2 ** t)[:, None]
            np.sqrt(v, out=v)
            v += self.eps
            step /= v
            params[ids] -= step


def make_optimizer(store: EmbeddingStore, config: TrainConfig):
    if config.optimizer == "adam":
        return SparseAdam(store, config.learning_rate, config.adam_beta1,
                          config.adam_beta2, config.adam_eps)
    return SparseSgd(store, config.learning_rate)


def _project_to_unit_ball(store: EmbeddingStore, ids: np.ndarray):
    rows = store.entities[ids]
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    scale = np.where(norms > 1.0, norms, 1.0)
    store.entities[ids] = rows / scale


def train(g: KnowledgeGraph, store: EmbeddingStore, config: TrainConfig,
          epoch_callback=None):
    """Run the training loop; returns the store and per-epoch log records.

    Each epoch draws its batches from the configured sampling policy,
    corrupts them, and applies one optimizer step per batch touching only
    the rows that received gradient. The logged ``mean_loss`` is the epoch
    loss per positive triple. Each record also counts the epoch's positives,
    its smallest and largest batch, and the entity and relation rows that
    received gradient and walk restarts, summed over batches, and the mean
    E[D] of the batches. A non-finite loss aborts with the offending batch
    attached to the raised :class:`NumericalError`.
    """
    optimizer = make_optimizer(store, config)
    ss = np.random.SeedSequence(config.seed)
    records = []
    for epoch in range(1, config.epochs + 1):
        sample_seed, corrupt_seed = ss.spawn(2)
        sample_rng = np.random.default_rng(sample_seed)
        corrupt_rng = np.random.default_rng(corrupt_seed)
        t0 = time.perf_counter()
        total_loss = 0.0
        batch_sizes = []
        entity_rows = relation_rows = restarts = degree_sum = 0
        for m in epoch_iterator(g, config.sampler_policy, rng=sample_rng):
            loss, grads = minibatch_loss_and_grads(g, store, m, config.loss_config,
                                                   corrupt_rng)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {len(batch_sizes)}",
                    batch=[tuple(map(int, row)) for row in m.positives],
                    epoch=epoch,
                )
            optimizer.step(store, grads)
            if config.normalize_entities:
                _project_to_unit_ball(store, grads.entities.ids)
            total_loss += loss
            batch_sizes.append(len(m))
            entity_rows += len(grads.entities)
            relation_rows += len(grads.relations)
            restarts += m.restarts
            degree_sum += expected_degree_of_batch(m)
        positives = sum(batch_sizes)
        record = {
            "epoch": epoch,
            "mean_loss": total_loss / max(positives, 1),
            "wall_time_s": time.perf_counter() - t0,
            "batches": len(batch_sizes),
            "positives": positives,
            "batch_size_min": min(batch_sizes, default=0),
            "batch_size_max": max(batch_sizes, default=0),
            "entity_rows": entity_rows,
            "relation_rows": relation_rows,
            "restarts": restarts,
            "expected_degree": degree_sum / max(len(batch_sizes), 1),
        }
        records.append(record)
        log.info("epoch %d: mean loss %.6f (%d batches, %.2fs)",
                 epoch, record["mean_loss"], record["batches"], record["wall_time_s"])
        if epoch_callback is not None:
            epoch_callback(epoch, store, record)
    return store, records


@dataclass
class GradientVarianceReport:
    """Per-entity stability of minibatch gradients under a sampling policy.

    For every batch in which an entity receives a nonzero gradient, the
    probe records that gradient divided by the number of batch positives
    incident to the entity (at least 1), i.e. the average gradient
    contribution per incident triple. ``grad_variances`` holds, per entity
    seen in at least two batches, the per-coordinate empirical variance of
    that quantity across batches, averaged over coordinates.
    ``batches_seen`` counts the batches with a nonzero gradient, whether it
    came from positive participation or from being drawn as a corruption.
    """

    entity_ids: np.ndarray
    graph_degrees: np.ndarray
    batches_seen: np.ndarray
    grad_variances: np.ndarray
    num_batches: int

    def _select(self, min_degree):
        return self.graph_degrees >= min_degree

    def median_variance(self, min_degree: int = 0) -> float:
        keep = self._select(min_degree)
        if not keep.any():
            raise ValueError("no entities at this degree threshold")
        return float(np.median(self.grad_variances[keep]))

    def median_batches_seen(self, min_degree: int = 0) -> float:
        keep = self._select(min_degree)
        return float(np.median(self.batches_seen[keep]))

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("entity_id,graph_degree,batches_seen,grad_variance\n")
            for e, d, b, v in zip(self.entity_ids, self.graph_degrees,
                                  self.batches_seen, self.grad_variances):
                fh.write(f"{e},{d},{b},{v!r}\n")


def _batch_corruption_rng(seed: int, m: Minibatch):
    """Content-addressed rng: identical batches get identical negatives."""
    digest = hashlib.blake2b(m.positives.tobytes(), digest_size=8).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest, "little")])
    )


def gradient_variance_probe(g: KnowledgeGraph, store: EmbeddingStore,
                            config: TrainConfig, num_batches: int,
                            sample_batch=None) -> GradientVarianceReport:
    """Measure per-entity gradient variance without updating the store.

    Draws ``num_batches`` minibatches under the configured policy, computes
    the loss gradients exactly as training would, and tracks for each
    entity appearing in a batch's positives the mean gradient contribution
    per incident positive. Negatives are derived from the batch content,
    so a stub sampler that repeats one batch measures zero variance.
    ``sample_batch`` overrides the sampler (for stubbing).
    """
    if num_batches < 2:
        raise ValueError("need at least two batches to estimate a variance")
    sample_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    # Welford accumulators per entity: (count, running mean, sum of squared
    # deviations). Welford keeps the variance exactly zero for identical
    # per-batch gradients.
    count = np.zeros(g.n_entities, dtype=np.int64)
    mean = np.zeros_like(store.entities)
    m2 = np.zeros_like(store.entities)

    for _ in range(num_batches):
        if sample_batch is not None:
            m = sample_batch()
        else:
            m = sample_minibatch(g, config.sampler_policy, rng=sample_rng)
        corrupt_rng = _batch_corruption_rng(config.seed, m)
        _, grads = minibatch_loss_and_grads(g, store, m, config.loss_config, corrupt_rng)
        incident = np.bincount(m.positives[:, [0, 2]].ravel(), minlength=g.n_entities)
        nonzero = np.any(grads.entities.rows != 0, axis=1)
        ids = grads.entities.ids[nonzero]
        vec = grads.entities.rows[nonzero] / np.maximum(incident[ids], 1)[:, None]
        count[ids] += 1
        delta = vec - mean[ids]
        mean[ids] += delta / count[ids][:, None]
        m2[ids] += delta * (vec - mean[ids])

    ids = np.flatnonzero(count >= 2)
    seen = count[ids]
    variances = np.mean(m2[ids] / (seen - 1)[:, None], axis=1)
    return GradientVarianceReport(
        entity_ids=ids,
        graph_degrees=g.degrees[ids],
        batches_seen=seen,
        grad_variances=variances,
        num_batches=num_batches,
    )
