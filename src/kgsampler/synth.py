"""Synthetic graphs for tests, probes, and desk-scale experiments."""

from __future__ import annotations

import os

import numpy as np

from .graph import (SPLIT_FILES, KnowledgeGraph, from_id_triples, pack_triples, sorted_unique,
                    unpack_triples)


def _holdout_graph(rows: np.ndarray, n_entities: int, n_relations: int,
                   holdout_fraction: float) -> KnowledgeGraph:
    """A graph of the shuffled (n, 3) ``rows``: the first round(fraction · n) are held out,
    their first half as valid and the rest as test, and the remaining rows train."""
    n_hold = int(round(holdout_fraction * len(rows)))
    half = n_hold // 2
    return from_id_triples(rows[n_hold:], n_entities, n_relations,
                           valid=rows[:half], test=rows[half:n_hold])


def planted_toy_graph(n_entities: int = 200, step: int = 7, holdout_fraction: float = 0.10,
                      seed: int = 0) -> KnowledgeGraph:
    """Cycle-group graph with planted symmetric and compositional relations.

    Entities sit on a ring of size n. Relation 0 links i to its antipode
    (self-inverse, hence symmetric), relation 1 advances by ``step``, and
    relation 2 advances by ``2 * step`` (the composition of relation 1 with
    itself). A random tenth of the triples is held out, split evenly into
    valid and test.
    """
    if n_entities % 2:
        raise ValueError("need an even entity count for the antipode relation")
    n = n_entities
    # rows (i, 0, i + n/2), (i, 1, i + step), (i, 2, i + 2·step) mod n, for each i in turn
    head, r = np.repeat(np.arange(n), 3), np.tile(np.arange(3), n)
    triples = np.stack([head, r, (head + np.array([n // 2, step, 2 * step])[r]) % n], axis=1)
    rng = np.random.default_rng(seed)
    return _holdout_graph(triples[rng.permutation(len(triples))], n, 3, holdout_fraction)


def random_graph(n_entities: int, n_relations: int, n_triples: int,
                 seed: int = 0, holdout_fraction: float = 0.0) -> KnowledgeGraph:
    """Uniformly random distinct triples without self-loops."""
    max_possible = n_entities * (n_entities - 1) * n_relations
    if n_triples > max_possible:
        raise ValueError("more triples requested than distinct triples exist")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)   # sorted, so in the rows' lexicographic order
    while len(keys) < n_triples:
        need = n_triples - len(keys)
        s = rng.integers(0, n_entities, size=2 * need)
        r = rng.integers(0, n_relations, size=2 * need)
        o = rng.integers(0, n_entities, size=2 * need)
        cand = pack_triples(s, r, o, n_entities, n_relations)[s != o]
        keys = sorted_unique(np.concatenate([keys, cand]))
    rows = unpack_triples(keys[rng.permutation(len(keys))[:n_triples]], n_entities, n_relations)
    return _holdout_graph(rows, n_entities, n_relations, holdout_fraction)


def planted_graph(n_entities: int = 2000, clusters: int = 20, relations: int = 8,
                  n_triples: int = 18000, inverse_p: float = 0.7, popularity_alpha: float = 1.2,
                  holdout_fraction: float = 0.10, seed: int = 0) -> KnowledgeGraph:
    """Clustered graph with heavy-tailed popularity and planted inverse relations.

    Entity e sits in cluster e * clusters // n_entities, with popularity
    1 + Pareto(``popularity_alpha``). Relation r maps cluster c to cluster
    perm_r[c], a random permutation per relation. Each of ``n_triples`` draws
    takes a subject by popularity, a uniform relation r < ``relations`` and
    an object by popularity within the subject's target cluster; a draw with
    subject == object is dropped. Each kept triple's inverse (o, r +
    ``relations``, s) is added with probability ``inverse_p``. Duplicates
    merge, and the shuffled rows are split as by :func:`_holdout_graph`.
    """
    if not 1 <= clusters <= n_entities:
        raise ValueError("need 1 <= clusters <= n_entities")
    rng = np.random.default_rng(seed)
    cluster = np.arange(n_entities) * clusters // n_entities
    bounds = np.searchsorted(cluster, np.arange(clusters + 1))    # cluster c: bounds[c:c + 2]
    cum = np.concatenate([[0.0], np.cumsum(rng.pareto(popularity_alpha, n_entities) + 1.0)])
    perm = rng.permuted(np.tile(np.arange(clusters), (relations, 1)), axis=1)

    def pick(lo, hi):    # one entity id in [lo, hi) per pair, drawn by popularity
        u = cum[lo] + rng.random(len(lo)) * (cum[hi] - cum[lo])
        return np.clip(np.searchsorted(cum, u, side="right") - 1, lo, hi - 1)

    s = pick(np.zeros(n_triples, dtype=np.int64), np.full(n_triples, n_entities))
    r = rng.integers(0, relations, n_triples)
    t = perm[r, cluster[s]]
    o = pick(bounds[t], bounds[t + 1])
    keep = s != o
    s, r, o = s[keep], r[keep], o[keep]
    inv = rng.random(len(s)) < inverse_p
    n_rel = 2 * relations
    keys = sorted_unique(np.concatenate([pack_triples(s, r, o, n_entities, n_rel),
                                         pack_triples(o[inv], r[inv] + relations, s[inv],
                                                      n_entities, n_rel)]))
    rows = unpack_triples(keys[rng.permutation(len(keys))], n_entities, n_rel)
    return _holdout_graph(rows, n_entities, n_rel, holdout_fraction)


def dense_sampler_graph(seed: int = 0) -> KnowledgeGraph:
    """5k-triple graph over 500 entities (mean degree 20) for sampler studies."""
    return random_graph(n_entities=500, n_relations=5, n_triples=5000, seed=seed)


def variance_probe_graph(seed: int = 0) -> KnowledgeGraph:
    """1000 entities at mean degree 12, the sparsity regime of large KGs."""
    return random_graph(n_entities=1000, n_relations=8, n_triples=6000, seed=seed)


def write_dataset(g: KnowledgeGraph, directory: str) -> None:
    """Write a graph as tab-separated train/valid/test triple files."""
    os.makedirs(directory, exist_ok=True)
    for split, fname in SPLIT_FILES.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            for s, r, o in g.split(split):
                fh.write(f"{g.entity_names[s]}\t{g.relation_names[r]}\t{g.entity_names[o]}\n")
