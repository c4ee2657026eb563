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
from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph, _pack, concat_ranges, induced_subgraph

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


@dataclass
class Minibatch:
    """A sampled set of positive training triples."""

    positives: np.ndarray          # (m, 3) int64, in collection order, no duplicates
    restarts: int = 0              # fresh-restart count of the underlying walk

    def __len__(self):
        return len(self.positives)

    @property
    def vertex_set(self) -> np.ndarray:
        """Sorted unique entity ids appearing in the positives."""
        return np.unique(self.positives[:, [0, 2]])


def _clamp_batch_size(g: KnowledgeGraph, b: int) -> int:
    if b > g.n_train:
        log.warning("batch_size %d exceeds train size %d; clamping", b, g.n_train)
        return g.n_train
    return b


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
    indptr, adj = g.adj_indptr, g.adj_indices
    heads, tails = g.train[:, 0], g.train[:, 2]
    remaining = np.diff(indptr)            # open incident triples per vertex
    collected = bytearray(g.n_train)
    seen = bytearray(g.n_entities)
    visited, order = [], []
    restarts = 0
    # -1: no start yet, so the first step takes a fresh start that is not counted
    current = anchor = -1 if start_entity is None else int(start_entity)

    while len(order) < b:
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
        lo = int(indptr[current])
        n = int(indptr[current + 1]) - lo
        for _ in range(_WALK_TRIES):
            ti = int(adj[lo + int(draw() * n)])
            if not collected[ti]:
                break
        else:
            incident = adj[lo:lo + n]
            open_ids = incident[~np.frombuffer(collected, dtype=bool)[incident]]
            ti = int(open_ids[int(draw() * len(open_ids))])
        collected[ti] = 1
        order.append(ti)
        s, o = int(heads[ti]), int(tails[ti])
        remaining[s] -= 1
        remaining[o] -= o != s                 # a self-loop holds one slot
        for v in (current, o if current == s else s):
            if not seen[v]:
                seen[v] = 1
                visited.append(v)
        current = v                            # the triple's other endpoint
        if restart_probability > 0.0 and draw() < restart_probability:
            current = (anchor if restart_target == "start_node"
                       else visited[int(draw() * len(visited))])

    return np.asarray(order, dtype=np.int64), np.asarray(visited, dtype=np.int64), restarts


def _extra_slots(g: KnowledgeGraph, visited: np.ndarray, fraction: float, cap: int,
                 rng) -> np.ndarray:
    """Adjacency slots of ``rwisg_n``'s extra triples: a uniform k-subset per run.

    Visited vertex v gets the k = min(ceil(fraction * degree(v)), cap, run
    length) slots of its run with the smallest random keys. One argsort ranks
    every run at once, on int64 keys that pack (run index, random bits).
    """
    if fraction == 0.0:
        return np.empty(0, dtype=np.int64)
    lo = g.adj_indptr[visited]
    counts = g.adj_indptr[visited + 1] - lo
    k = np.minimum(np.ceil(fraction * g.degrees[visited]), np.minimum(counts, cap))
    slots = concat_ranges(lo, counts)
    bits = 63 - max(len(visited) - 1, 1).bit_length()
    run = np.repeat(np.arange(len(visited), dtype=np.int64), counts)
    by_key = np.argsort((run << bits) | rng.integers(0, 1 << bits, size=len(slots)))
    rank = concat_ranges(np.zeros_like(counts), counts)     # each slot's place in its run
    return slots[by_key[rank < np.repeat(k, counts)]]


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
    """
    if g.n_train == 0:
        raise ValueError("cannot sample from an empty train split")
    rng = np.random.default_rng(policy.seed) if rng is None else rng
    b = _clamp_batch_size(g, policy.batch_size)
    if policy.kind == "sr":
        return Minibatch(positives=g.train[rng.choice(g.n_train, size=b, replace=False)])
    p = policy.restart_probability if policy.kind == "rwr" else 0.0
    walk, visited, restarts = _random_walk(g, b, rng, p, policy.restart_target, start_entity)
    if policy.kind in ("rw", "rwr"):
        return Minibatch(positives=g.train[walk], restarts=restarts)
    positives = induced_subgraph(g, visited)
    if policy.kind == "rwisg_n":
        extra = g.adj_indices[_extra_slots(g, visited, policy.extra_neighbor_fraction,
                                           policy.extra_neighbor_cap, rng)]
        if len(extra):
            rows = np.concatenate([positives, g.train[extra]])
            keys = _pack(rows[:, 0], rows[:, 1], rows[:, 2], g.n_entities, g.n_relations)
            order = np.argsort(keys)
            positives = rows[order[np.diff(keys[order], prepend=-1) > 0]]   # keys are >= 0
    return Minibatch(positives=positives, restarts=restarts)


def batches_per_epoch(g: KnowledgeGraph, policy: SamplerPolicy) -> int:
    b = min(policy.batch_size, max(g.n_train, 1))
    return -(-g.n_train // b)


def epoch_iterator(g: KnowledgeGraph, policy: SamplerPolicy, rng=None):
    """Yield ceil(n_train / batch_size) minibatches.

    Under ``sr`` the epoch partitions one random permutation of the train
    split, so the union of the epoch's batches is exactly the train set.
    Walk-based policies yield independent samples and fix only the batch
    count. Deterministic given the policy seed (or the supplied rng).
    """
    rng = np.random.default_rng(policy.seed) if rng is None else rng
    n_batches = batches_per_epoch(g, policy)
    if policy.kind == "sr":
        b = min(policy.batch_size, g.n_train)
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
