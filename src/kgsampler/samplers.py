"""Minibatch sampling policies over the training graph.

Five policies are provided:

* ``sr``      -- uniformly random triples (the standard policy)
* ``rw``      -- random walk collecting one new incident triple per step
* ``rwr``     -- random walk with restarts to the start node (or a random
                 previously visited node)
* ``rwisg``   -- random walk, then the subgraph induced by its vertices
* ``rwisg_n`` -- induced subgraph plus randomly drawn extra incident
                 triples of the visited vertices

Walks traverse edges ignoring direction; sampled triples keep their stored
direction. All samplers are deterministic given a seed.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np

from .graph import (KnowledgeGraph, induced_ids, pack_triples, sorted_unique, uniform_subsets,
                    unpack_triples)

log = logging.getLogger(__name__)

SAMPLER_KINDS = ("sr", "rw", "rwr", "rwisg", "rwisg_n")
RESTART_TARGETS = ("start_node", "uniform_previous")
_WALK_TRIES = 8          # rejected slot draws before a walk step picks exactly
_UNIFORM_CHUNK = 1024    # uniforms a walk takes from its generator at a time


@dataclass(frozen=True)
class SamplerPolicy:
    """Which sampler to run and its knobs.

    ``batch_size`` is the target number of positive triples; the induced
    variants may exceed it because the closure adds triples.
    """

    kind: str = "sr"
    batch_size: int = 1024
    restart_probability: float = 0.15      # rwr only
    restart_target: str = "start_node"     # rwr only
    extra_neighbor_fraction: float = 0.5   # rwisg_n only
    extra_neighbor_cap: int = 32           # rwisg_n, per-vertex draw limit
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.restart_probability <= 1.0:
            raise ValueError("restart_probability must be in [0, 1]")
        if self.restart_target not in RESTART_TARGETS:
            raise ValueError(f"restart_target must be one of {RESTART_TARGETS}")
        if not 0.0 <= self.extra_neighbor_fraction <= 1.0:
            raise ValueError("extra_neighbor_fraction must be in [0, 1]")
        if self.extra_neighbor_cap < 0:
            raise ValueError("extra_neighbor_cap must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Minibatch:
    """A sampled set of positive training triples."""

    # (m, 3) int64, no duplicates: in draw order (sr), collection order (rw, rwr), train-id
    # order (rwisg, and rwisg_n without extras) or (s, r, o) order (rwisg_n with extras)
    positives: np.ndarray
    restarts: int = 0              # fresh-restart count of the underlying walk

    def __len__(self):
        return len(self.positives)

    @property
    def vertex_set(self) -> np.ndarray:
        """Sorted unique entity ids appearing in the positives."""
        return sorted_unique(self.positives[:, [0, 2]])


def _random_walk(g: KnowledgeGraph, b: int, rng,
                 restart_probability: float = 0.0,
                 restart_target: str = "start_node",
                 start_entity=None):
    """Collect b distinct triples by walking the undirected training graph.

    Each step picks uniformly among the open (not yet collected) triples
    incident to the current vertex, by rejection over its adjacency slots
    with an exact pick after ``_WALK_TRIES`` misses, and moves to the
    triple's other endpoint. A vertex with no open triple stalls the walk,
    which restarts from a uniform random entity that has one (rebasing the
    restart anchor). Returns (triple ids in collection order, visited vertex
    ids in first-visit order, number of fresh restarts).
    """
    draw = itertools.chain.from_iterable(    # uniforms on [0, 1), a chunk at a time
        rng.random(_UNIFORM_CHUNK).tolist() for _ in itertools.count()).__next__
    # zero-copy views: indexing them gives Python ints, not numpy scalars
    indptr, adj = memoryview(g.adj_indptr), memoryview(g.adj_indices)
    heads, tails = memoryview(g.train[:, 0]), memoryview(g.train[:, 2])
    remaining = memoryview(np.diff(g.adj_indptr))    # open incident triples per vertex
    collected = bytearray(g.n_train)
    seen = bytearray(g.n_entities)
    visited, order = [], []
    restarts = 0
    # -1: no start yet, so the first step takes a fresh start that is not counted
    current = anchor = -1 if start_entity is None else int(start_entity)
    if current >= 0 and remaining[current]:
        seen[current] = 1
        visited.append(current)

    for _ in range(b):                     # each step collects one triple
        if current < 0 or not remaining[current]:
            restarts += current >= 0
            for _ in range(200):
                current = int(draw() * g.n_entities)
                if remaining[current]:
                    break
            else:
                open_vertices = np.flatnonzero(remaining)
                current = int(open_vertices[int(draw() * len(open_vertices))])
            anchor = current
            if not seen[current]:
                seen[current] = 1
                visited.append(current)
        lo = indptr[current]
        n = indptr[current + 1] - lo
        ti = adj[lo + int(draw() * n)]
        if collected[ti]:
            for _ in range(_WALK_TRIES - 1):
                ti = adj[lo + int(draw() * n)]
                if not collected[ti]:
                    break
            else:
                incident = g.adj_indices[lo:lo + n]
                open_ids = incident[~np.frombuffer(collected, dtype=bool)[incident]]
                ti = int(open_ids[int(draw() * len(open_ids))])
        collected[ti] = 1
        order.append(ti)
        s, o = heads[ti], tails[ti]
        remaining[s] -= 1
        if o != s:                             # a self-loop holds one slot
            remaining[o] -= 1
        current = o if current == s else s     # the triple's other endpoint
        if not seen[current]:
            seen[current] = 1
            visited.append(current)
        if restart_probability > 0.0 and draw() < restart_probability:
            current = (anchor if restart_target == "start_node"
                       else visited[int(draw() * len(visited))])

    return np.asarray(order, dtype=np.int64), np.asarray(visited, dtype=np.int64), restarts


def _extra_ids(g: KnowledgeGraph, visited: np.ndarray, counts: np.ndarray, ids: np.ndarray,
               fraction: float, cap: int, rng) -> np.ndarray:
    """Ids of ``rwisg_n``'s extra triples, from the runs ``counts, ids`` of ``g.incident(visited)``.

    Visited vertex v gets a uniform subset of k = min(ceil(fraction * degree(v)), cap, run
    length) triples of its run, drawn by :func:`graph.uniform_subsets`.
    """
    if fraction == 0.0:
        return ids[:0]
    k = np.minimum(np.ceil(fraction * g.degrees[visited]), np.minimum(counts, cap)).astype(int)
    return ids[uniform_subsets(counts, k, rng)]


def sample_minibatch(g: KnowledgeGraph, policy: SamplerPolicy, rng=None,
                     start_entity=None) -> Minibatch:
    """Draw one minibatch with the sampler named by ``policy.kind``.

    ``sr`` takes b distinct train triples uniformly without replacement and
    ignores ``start_entity``. Every walk kind makes one ``_random_walk``
    (restarting only under ``rwr``): ``rw``/``rwr`` keep the walk's triples in
    collection order, ``rwisg`` the train subgraph induced by the visited
    vertices, and ``rwisg_n`` adds to that, for each visited vertex v,
    ceil(fraction * degree(v)) incident triples drawn without replacement up
    to the per-vertex cap. Positives with extras come sorted by (s, r, o).
    A ``start_entity`` outside [0, n_entities) is a ValueError for every kind.
    """
    if g.n_train == 0:
        raise ValueError("cannot sample from an empty train split")
    if start_entity is not None and not 0 <= start_entity < g.n_entities:
        raise ValueError(f"start_entity {start_entity} is not an entity id in [0, {g.n_entities})")
    rng = np.random.default_rng(policy.seed) if rng is None else rng
    policy = fit_batch_size(g, policy)
    b = policy.batch_size
    if policy.kind == "sr":
        return Minibatch(positives=g.train.take(rng.choice(g.n_train, b, replace=False), axis=0))
    p = policy.restart_probability if policy.kind == "rwr" else 0.0
    walk, visited, restarts = _random_walk(g, b, rng, p, policy.restart_target, start_entity)
    if policy.kind in ("rw", "rwr"):
        return Minibatch(positives=g.train.take(walk, axis=0), restarts=restarts)
    counts, runs = g.incident(visited)    # read once, for the induced rule and the extras
    ids = induced_ids(g, visited, counts, runs)
    if policy.kind == "rwisg_n":
        extra = _extra_ids(g, visited, counts, runs, policy.extra_neighbor_fraction,
                           policy.extra_neighbor_cap, rng)
        if len(extra):    # merged as keys read from the flat train array
            at, flat = 3 * np.concatenate([ids, extra]), g.train.reshape(-1)
            keys = pack_triples(*(flat.take(at + c) for c in range(3)), g.n_entities, g.n_relations)
            positives = unpack_triples(sorted_unique(keys), g.n_entities, g.n_relations)
            return Minibatch(positives=positives, restarts=restarts)
    return Minibatch(positives=g.train.take(ids, axis=0), restarts=restarts)


def fit_batch_size(g: KnowledgeGraph, policy: SamplerPolicy) -> SamplerPolicy:
    """``policy``, or, with one warning, a copy whose batch size is cut to ``g.n_train``."""
    if policy.batch_size <= g.n_train or g.n_train == 0:    # an empty split has no size to cut to
        return policy
    log.warning("batch_size %d exceeds train size %d; clamping", policy.batch_size, g.n_train)
    return replace(policy, batch_size=g.n_train)


def batches_per_epoch(g: KnowledgeGraph, policy: SamplerPolicy) -> int:
    return -(-g.n_train // policy.batch_size)


def epoch_iterator(g: KnowledgeGraph, policy: SamplerPolicy, rng=None):
    """Yield ceil(n_train / batch_size) minibatches.

    Under ``sr`` the epoch partitions one random permutation of the train
    split, so the union of the epoch's batches is exactly the train set.
    Walk-based policies yield independent samples and fix only the batch
    count. Deterministic given the policy seed (or the supplied rng).
    """
    rng = np.random.default_rng(policy.seed) if rng is None else rng
    policy = fit_batch_size(g, policy)    # once per epoch, so one warning per epoch
    n_batches = batches_per_epoch(g, policy)
    if policy.kind == "sr":
        b = policy.batch_size
        perm = rng.permutation(g.n_train)
        for i in range(n_batches):
            ids = perm[i * b:(i + 1) * b]
            yield Minibatch(positives=g.train[ids])
    else:
        for _ in range(n_batches):
            yield sample_minibatch(g, policy, rng=rng)


def to_dot(m: Minibatch, g: KnowledgeGraph = None) -> str:
    """Render a minibatch subgraph in DOT format.

    Entities become nodes, triples become directed edges labeled with the
    relation. Uses dictionary names when the graph is supplied, raw ids
    otherwise.
    """
    def ename(v):
        return g.entity_names[v] if g is not None else f"e{v}"

    def rname(r):
        return g.relation_names[r] if g is not None else f"r{r}"

    def quote(s):
        return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph minibatch {"]
    for v in m.vertex_set:
        lines.append(f"  n{v} [label={quote(ename(int(v)))}];")
    for s, r, o in m.positives:
        lines.append(f"  n{s} -> n{o} [label={quote(rname(int(r)))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
