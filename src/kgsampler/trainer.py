"""Minibatch gradient-descent training loop and gradient-variance probe.

The loop ties together a sampling policy, the negative-sampling objective,
and an optimizer that updates only the embedding rows receiving gradient.
Runs are bitwise reproducible for a fixed seed under single-threaded
execution.
"""

from __future__ import annotations

import hashlib
import logging
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .evaluation import evaluate_split
from .graph import KnowledgeGraph
from .losses import LossConfig, minibatch_loss_and_grads, SparseGrads
from .samplers import SamplerPolicy, epoch_iterator, fit_batch_size, sample_minibatch
from .scorers import EmbeddingStore
from .stats import expected_degree_of_batch, write_csv

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
    sampler_policy: SamplerPolicy = field(default_factory=SamplerPolicy)
    loss_config: LossConfig = field(default_factory=LossConfig)
    eval_every: int = 10
    seed: int = 0
    normalize_entities: bool = False       # project entity rows to the unit ball

    def __post_init__(self):
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        for name, least in (("learning_rate", 0), ("epochs", 0), ("eval_every", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")


# Rows per chunk of every row-wise update (Adam, SGD, unit-ball projection):
# a chunk's sorted ids keep its rows close in memory and its temporaries
# cache-sized, whatever share of the table a batch touches. With 0.99 of a
# 14,500 x 128 table's rows touched (one BLAS thread, interleaved medians of
# 12) an Adam step read 27-30 ms at 128 and 256 rows, 30-34, 32-38 and 38-41
# ms at 384, 512 and 1024, and one whole-table pass 46-52 ms; 256 rows take
# half the Python iterations of 128. With 0.01 touched a step read 0.7 ms.
ADAM_CHUNK_ROWS = 256

# Adam's moment decay rates and denominator offset: b1, b2 and eps below.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _chunks(n: int):
    """Consecutive slices of ``range(n)``, ``ADAM_CHUNK_ROWS`` long but the last."""
    return (slice(lo, lo + ADAM_CHUNK_ROWS) for lo in range(0, n, ADAM_CHUNK_ROWS))


class SparseSgd:
    def __init__(self, store: EmbeddingStore, learning_rate: float):
        self.lr = learning_rate

    def step(self, store: EmbeddingStore, grads: SparseGrads):
        for params, rowgrads in ((store.entities, grads.entities),
                                 (store.relations, grads.relations)):
            for c in _chunks(len(rowgrads)):
                params[rowgrads.ids[c]] -= self.lr * rowgrads.rows[c]


class SparseAdam:
    """Adam with lazily updated moments: untouched rows never move or decay.

    A step updates the touched rows in gathered copies, one chunk of
    ``ADAM_CHUNK_ROWS`` at a time, so no temporary grows with the table.
    """

    def __init__(self, store: EmbeddingStore, learning_rate: float):
        self.lr = learning_rate
        self.state = {}
        for name, arr in (("entities", store.entities), ("relations", store.relations)):
            self.state[name] = {
                "m": np.zeros_like(arr),
                "v": np.zeros_like(arr),
                "t": np.zeros(len(arr), dtype=np.int64),
            }

    def _step_rows(self, st, params, ids, G):
        """Step the distinct rows ``ids`` of ``params`` and of moments ``st`` by gradient rows ``G``.

        The operation order is that of m = b1·m + (1-b1)·G,
        v = b2·v + (1-b2)·G·G and p -= lr·m̂ / (√v̂ + eps). At most three
        row buffers live at once: the scratch product goes once the moments
        are stored, m turns into the step and v into its denominator.
        """
        st["t"][ids] += 1
        t = st["t"][ids]
        m, v = st["m"][ids], st["v"][ids]
        tmp = np.multiply(G, 1 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(G, 1 - ADAM_BETA2, out=tmp)
        tmp *= G
        v *= ADAM_BETA2
        v += tmp
        del tmp
        st["m"][ids], st["v"][ids] = m, v
        step = np.divide(m, (1.0 - ADAM_BETA1 ** t)[:, None], out=m)
        step *= self.lr
        denom = np.divide(v, (1.0 - ADAM_BETA2 ** t)[:, None], out=v)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        params[ids] -= step

    def step(self, store: EmbeddingStore, grads: SparseGrads):
        for name, params, rowgrads in (("entities", store.entities, grads.entities),
                                       ("relations", store.relations, grads.relations)):
            for c in _chunks(len(rowgrads)):
                self._step_rows(self.state[name], params, rowgrads.ids[c], rowgrads.rows[c])


def make_optimizer(store: EmbeddingStore, config: TrainConfig):
    if config.optimizer == "adam":
        return SparseAdam(store, config.learning_rate)
    return SparseSgd(store, config.learning_rate)


def _project_to_unit_ball(store: EmbeddingStore, ids: np.ndarray):
    for c in _chunks(len(ids)):
        rows = store.entities[ids[c]]
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        scale = np.where(norms > 1.0, norms, 1.0)
        store.entities[ids[c]] = rows / scale


def train(g: KnowledgeGraph, store: EmbeddingStore, config: TrainConfig,
          epoch_callback=None):
    """Run the training loop; returns the store and the per-epoch records.

    Each epoch draws its batches from the configured sampling policy,
    corrupts them, and applies one optimizer step per batch touching only
    the rows that received gradient. A record holds ``mean_loss``, the loss
    per positive triple; the epoch's positives, smallest and largest batch;
    summed over batches, the scored rows (positives plus valid negatives),
    the negatives filtered corruption could not draw, the entity and
    relation rows that received gradient and the walk restarts; the mean
    E[D] of the batches; every ``eval_every`` epochs, if the valid split is
    non-empty, its filtered metrics and their seconds; and the peak RSS.
    ``epoch_callback`` gets each record as made. A non-finite loss aborts
    with the offending batch attached to the raised :class:`NumericalError`.
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
        scored_rows = exhausted = 0
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
            scored_rows += grads.scored_rows
            exhausted += grads.exhausted_negatives
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
            "scored_rows": scored_rows,
            "exhausted_negatives": exhausted,
            "entity_rows": entity_rows,
            "relation_rows": relation_rows,
            "restarts": restarts,
            "expected_degree": degree_sum / max(len(batch_sizes), 1),
        }
        records.append(record)
        log.info("epoch %d: mean loss %.6f (%d batches, %.2fs)",
                 epoch, record["mean_loss"], record["batches"], record["wall_time_s"])
        if epoch % config.eval_every == 0 and len(g.valid):
            t0 = time.perf_counter()
            metrics = evaluate_split(g, store, "valid", "filtered")
            record["valid"], record["valid_s"] = metrics.as_record(), time.perf_counter() - t0
            log.info("epoch %d valid (%.2f s): %s", epoch, record["valid_s"],
                     metrics.as_json_line())
        # read after the validation pass, to cover it; KiB on Linux, bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["peak_rss_mb"] = peak / (2 ** 20 if sys.platform == "darwin" else 1024)
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

    def median_variance(self, min_degree: int = 0) -> float:
        keep = self.graph_degrees >= min_degree
        if not keep.any():
            raise ValueError("no entities at this degree threshold")
        return float(np.median(self.grad_variances[keep]))

    def write_csv(self, path: str) -> None:
        fields = ("entity_id", "graph_degree", "batches_seen", "grad_variance")
        columns = (self.entity_ids, self.graph_degrees, self.batches_seen, self.grad_variances)
        write_csv([dict(zip(fields, row)) for row in zip(*(c.tolist() for c in columns))],
                  path, fields)


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
    policy = fit_batch_size(g, config.sampler_policy)    # once, so one warning per probe
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
            m = sample_minibatch(g, policy, rng=sample_rng)
        # content-addressed rng: identical batches get identical negatives
        digest = hashlib.blake2b(m.positives.tobytes(), digest_size=8).digest()
        corrupt_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, int.from_bytes(digest, "little")]))
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
