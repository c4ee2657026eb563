"""Knowledge graph loading, indexing, and structural queries.

A knowledge graph is a set of directed labeled edges (subject, relation,
object) over dense integer ids. The train split carries the adjacency
index used by the samplers. All three splits feed one index of known
triples, used for filtered ranking and filtered negative generation.

A set of triples is a sorted array of int64 keys (s·R + r)·E + o, where E
is the entity count and R the relation count. :func:`pack_triples` and
:func:`unpack_triples` are the only codec between rows and keys. The
largest key is E²·R − 1, so a graph with E²·R > 2⁶³ is rejected with
:class:`DataError` before anything sized by E or R is built.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

log = logging.getLogger(__name__)

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}


class DataError(Exception):
    """Raised for missing, malformed, or inconsistent dataset files."""


@dataclass
class KnowledgeGraph:
    """Immutable triple store with two indexes, both built at construction.

    ``adj_indptr``/``adj_indices`` map each entity to the sorted train-triple
    indices in which it appears as subject or object. A self-loop triple
    (s == o) appears once in its entity's list but contributes 2 to the
    entity's total degree.

    ``spo_keys`` and ``ors_keys`` index the known triples of train + valid +
    test: the sorted unique keys (s·R + r)·E + o and (o·R + r)·E + s. The
    known objects of (s, r) are then one contiguous run of ``spo_keys``,
    and the known subjects of (r, o) one run of ``ors_keys``.
    """

    entity_names: list[str]
    relation_names: list[str]
    train: np.ndarray          # (n_train, 3) int64
    valid: np.ndarray          # (n_valid, 3) int64
    test: np.ndarray           # (n_test, 3) int64
    adj_indptr: np.ndarray     # (|E| + 1,) int64
    adj_indices: np.ndarray    # (sum of incidence list lengths,) int64
    degrees: np.ndarray        # (|E|,) int64, in-degree + out-degree on train
    spo_keys: np.ndarray       # sorted unique (s·R + r)·E + o over all splits
    ors_keys: np.ndarray       # sorted unique (o·R + r)·E + s over all splits

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    @property
    def n_train(self) -> int:
        return len(self.train)

    def split(self, name: str) -> np.ndarray:
        if name not in SPLIT_FILES:
            raise KeyError(f"unknown split {name!r}; expected train/valid/test")
        return getattr(self, name)

    def incident(self, vertices: ArrayLike) -> tuple:
        """Incidence runs of ``vertices``, laid end to end, as ``(counts, ids)``.

        Run i holds the ids of the ``counts[i]`` train triples incident to
        ``vertices[i]``, in triple-id order; a self-loop appears once in its run.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        lo = self.adj_indptr[vertices]
        counts = self.adj_indptr[vertices + 1] - lo
        return counts, self.adj_indices[concat_ranges(lo, counts)]

    def filter_objects(self, s: int, r: int) -> np.ndarray:
        """Sorted ids of all known objects o with (s, r, o) in train+valid+test."""
        return self.filter_objects_batch([s], [r])[1]

    def filter_subjects(self, r: int, o: int) -> np.ndarray:
        """Sorted ids of all known subjects s with (s, r, o) in train+valid+test."""
        return self.filter_subjects_batch([r], [o])[1]

    def filter_objects_batch(self, s: ArrayLike, r: ArrayLike) -> tuple:
        """Known objects of every pair (s[i], r[i]), laid end to end, as ``(counts, ids)``.

        Run i holds the ``counts[i]`` objects of pair i, sorted, as in :meth:`incident`.
        """
        return self._key_runs(self.spo_keys, s, r)

    def filter_subjects_batch(self, r: ArrayLike, o: ArrayLike) -> tuple:
        """Known subjects of every pair (r[i], o[i]), as ``(counts, ids)``."""
        return self._key_runs(self.ors_keys, o, r)

    def _key_runs(self, keys: np.ndarray, head: ArrayLike, r: ArrayLike) -> tuple:
        """The runs of ``keys`` under every (head, r) pair: two searchsorted calls in all."""
        head = np.asarray(head, dtype=np.int64).reshape(-1)
        r = np.asarray(r, dtype=np.int64).reshape(-1)
        # An out-of-range id would alias another pair's run: give it an empty one.
        in_range = (head >= 0) & (head < self.n_entities) & (r >= 0) & (r < self.n_relations)
        base = pack_triples(np.where(in_range, head, 0), np.where(in_range, r, 0), 0,
                            self.n_entities, self.n_relations)
        # The run ends at base + E - 1; base + E overflows int64 when E²·R == 2⁶³.
        lo = keys.searchsorted(base)
        hi = np.where(in_range, keys.searchsorted(base + (self.n_entities - 1), side="right"), lo)
        counts = hi - lo
        return counts, keys[concat_ranges(lo, counts)] - np.repeat(base, counts)

    def contains_triples(self, spo: np.ndarray) -> np.ndarray:
        """Vectorized test: is each (s, r, o) row a known triple of train + valid + test?

        A row with an id outside [0, E) or [0, R) is unknown; its key could
        alias another triple's, so it is masked out after the lookup.
        """
        spo = np.asarray(spo, dtype=np.int64)
        s, r, o = spo[..., 0], spo[..., 1], spo[..., 2]
        in_range = ((spo >= 0).all(axis=-1) & (s < self.n_entities)
                    & (r < self.n_relations) & (o < self.n_entities))
        if len(self.spo_keys) == 0:
            return np.zeros(in_range.shape, dtype=bool)
        keys = pack_triples(s, r, o, self.n_entities, self.n_relations).reshape(-1)
        # searched in sorted order, consecutive lookups walk nearby index entries
        order = np.argsort(keys)
        keys = keys[order]
        idx = np.minimum(np.searchsorted(self.spo_keys, keys), len(self.spo_keys) - 1)
        found = np.empty(len(keys), dtype=bool)
        found[order] = self.spo_keys[idx] == keys
        return found.reshape(in_range.shape) & in_range


def pack_triples(head, r, tail, n_entities: int, n_relations: int):
    """The key (head·R + r)·E + tail: distinct per in-range triple and within int64 while
    E²·R ≤ 2⁶³; keys sort the way their rows sort lexicographically."""
    return (head * n_relations + r) * n_entities + tail


def unpack_triples(keys: ArrayLike, n_entities: int, n_relations: int) -> np.ndarray:
    """The (n, 3) int64 rows of :func:`pack_triples` keys."""
    head_r, tail = np.divmod(keys, n_entities)
    return np.stack([*np.divmod(head_r, n_relations), tail], axis=1)


def sorted_unique(keys: ArrayLike) -> np.ndarray:
    """The sorted distinct values of ``keys``, flattened: one sort and a neighbour test.

    Flag-less ``np.unique`` hashes on numpy 2.4: ~200 ms for 272k int64 keys, 4 ms here.
    """
    keys = np.sort(keys, axis=None)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def concat_ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """lo[i], lo[i] + 1, ..., lo[i] + counts[i] - 1 for every i, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(counts.sum(), dtype=np.int64) + np.repeat(lo - starts, counts)


def uniform_subsets(counts: np.ndarray, k: np.ndarray, rng) -> np.ndarray:
    """Positions of a uniform k[i]-subset of each run i, in runs of ``counts`` laid end to end.

    Run i keeps its k[i] positions of smallest key (integer k[i] ≤ counts[i]), in position
    order; int64 keys pack (run index, random bits), one draw per position. They are the
    positions at or below their run's k[i]-th smallest key, found by one sort. Equal bits
    there would keep too many; then one argsort of the same keys ranks each run.
    """
    bits = 63 - max(len(counts) - 1, 1).bit_length()
    run = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    keys = (run << bits) | rng.integers(0, 1 << bits, size=len(run))
    thr = (np.arange(len(counts), dtype=np.int64) << bits) - 1    # k = 0: below the run
    thr[k > 0] = np.sort(keys)[(np.cumsum(counts) - counts + k - 1)[k > 0]]
    picked = np.flatnonzero(keys <= np.repeat(thr, counts))
    if len(picked) > k.sum():    # a tie at some threshold
        rank = concat_ranges(np.zeros_like(counts), counts)    # each position's place in its run
        picked = np.sort(np.argsort(keys)[rank < np.repeat(k, counts)])
    return picked


def _parse_split(path: str, entity_ids: dict, relation_ids: dict) -> np.ndarray:
    """Parse one tab-separated triple file, assigning ids in first-seen order."""
    if not os.path.isfile(path):
        raise DataError(f"missing split file: {path}")
    ids = []
    try:    # a leading byte-order mark is not part of the first name
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                cols = line.rstrip("\n").split("\t")
                if len(cols) != 3:
                    if cols == [""]:    # a blank line
                        continue
                    raise DataError(f"{path}:{lineno}: expected 3 tab-separated columns, "
                                    f"got {len(cols)}")
                s_name, r_name, o_name = cols
                s = entity_ids.get(s_name)
                if s is None:
                    s = entity_ids[s_name] = len(entity_ids)
                r = relation_ids.get(r_name)
                if r is None:
                    r = relation_ids[r_name] = len(relation_ids)
                o = entity_ids.get(o_name)
                if o is None:
                    o = entity_ids[o_name] = len(entity_ids)
                ids += s, r, o
    except UnicodeDecodeError as exc:    # the decoder reads in chunks: no exact line
        raise DataError(f"{path}: not UTF-8 text ({exc.reason}, "
                        f"byte {exc.object[exc.start:exc.end]!r})") from exc
    return np.array(ids, dtype=np.int64).reshape(-1, 3)


def _build_adjacency(train: np.ndarray, n_entities: int):
    """CSR incidence lists; a self-loop triple appears once in its list."""
    n = len(train)
    s, o = train[:, 0], train[:, 2]
    not_loop = np.flatnonzero(s != o)
    # one sort by entity, then triple id; every key is below E·n, which _build_graph caps at 2⁶³
    keys = np.concatenate([s * n + np.arange(n), o[not_loop] * n + not_loop])
    ents, tids = np.divmod(np.sort(keys), n)
    return ents.searchsorted(np.arange(n_entities + 1)), tids


def _build_graph(splits: dict, n_entities: int, n_relations: int,
                 names: tuple | None = None, source: str = "graph") -> KnowledgeGraph:
    """Check train/valid/test id arrays and build both indexes of a graph.

    ``names`` is ``(entity_names, relation_names)``; None names ids e0.., r0...
    Raises :class:`DataError` on key overflow, an id out of range, or a
    triple repeated within a split.
    """
    if int(n_entities) ** 2 * int(n_relations) > 2 ** 63:
        raise DataError(
            f"{source}: {n_entities} entities and {n_relations} relations give triple "
            f"keys beyond int64 (entities² · relations > 2⁶³)"
        )
    if int(n_entities) * len(splits["train"]) > 2 ** 63:    # _build_adjacency's sort key
        raise DataError(f"{source}: adjacency keys beyond int64 (entities · train triples > 2⁶³)")
    entity_names, relation_names = names or (
        [f"e{i}" for i in range(n_entities)], [f"r{i}" for i in range(n_relations)])

    split_keys = []
    for name, arr in splits.items():
        if len(arr) and (arr.min() < 0 or arr[:, [0, 2]].max() >= n_entities
                         or arr[:, 1].max() >= n_relations):
            raise DataError(f"{source}: {name} triple references an id out of range")
        packed = pack_triples(*arr.T, n_entities, n_relations)
        keys = np.sort(packed)
        same = keys[1:] == keys[:-1]
        if same.any():
            row = int(np.flatnonzero(packed == keys[np.argmax(same)])[1])
            s, r, o = arr[row]
            raise DataError(
                f"{source}: duplicate triple within {name} split at row {row + 1}: "
                f"{entity_names[s]} {relation_names[r]} {entity_names[o]}"
            )
        split_keys.append(keys)
    spo_keys = sorted_unique(np.concatenate(split_keys))
    rows = np.concatenate(list(splits.values()))
    ors_keys = sorted_unique(pack_triples(*rows[:, ::-1].T, n_entities, n_relations))

    train = splits["train"]
    n_loops = int(np.sum(train[:, 0] == train[:, 2]))
    n_cross_dupes = len(rows) - len(spo_keys)
    if n_loops or n_cross_dupes:
        log.info(
            "dataset %s: %d self-loop train triples, %d duplicate triples across splits",
            source, n_loops, n_cross_dupes,
        )

    indptr, indices = _build_adjacency(train, n_entities)
    degrees = (
        np.bincount(train[:, 0], minlength=n_entities)
        + np.bincount(train[:, 2], minlength=n_entities)
    ).astype(np.int64)
    return KnowledgeGraph(
        entity_names=entity_names,
        relation_names=relation_names,
        train=train,
        valid=splits["valid"],
        test=splits["test"],
        adj_indptr=indptr,
        adj_indices=indices,
        degrees=degrees,
        spo_keys=spo_keys,
        ors_keys=ors_keys,
    )


def load_dataset(directory: str) -> KnowledgeGraph:
    """Load train/valid/test triple files from a dataset directory.

    Ids are dense integers assigned in first-seen order over train, then
    valid, then test. Adjacency and degrees are built from the train split
    only. Raises :class:`DataError` on missing files, malformed lines,
    duplicate triples within a split, or a graph too large for int64 keys.
    """
    entity_ids: dict = {}
    relation_ids: dict = {}
    splits = {
        name: _parse_split(os.path.join(directory, fname), entity_ids, relation_ids)
        for name, fname in SPLIT_FILES.items()
    }
    return _build_graph(splits, len(entity_ids), len(relation_ids),
                        names=(list(entity_ids), list(relation_ids)), source=directory)


def from_id_triples(
    train: ArrayLike,
    n_entities: int,
    n_relations: int,
    valid: ArrayLike = (),
    test: ArrayLike = (),
) -> KnowledgeGraph:
    """Build a graph from integer triples (synthetic graphs, tests).

    Each split is array-like: an (n, 3) integer array or a sequence of
    (s, r, o) rows.
    """
    splits = {"train": train, "valid": valid, "test": test}
    return _build_graph({name: np.asarray(rows, dtype=np.int64).reshape(-1, 3)
                         for name, rows in splits.items()}, n_entities, n_relations)


def neighbor_entries(g: KnowledgeGraph, positives: np.ndarray, cap: int, rng) -> tuple:
    """Every positive followed by at most ``cap`` of its neighbor triples, and their weights.

    Neighbors are the other train triples sharing the positive's subject or object;
    above ``cap``, a uniform subset (:func:`uniform_subsets`, drawn only if some
    positive has 0 < cap < neighbors). Returns ``(entries, weights)``: [positive,
    kept neighbors in triple-id order] per positive, each row weighted 1 / (1 + kept).
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    ends = positives[:, [0, 2]].ravel()      # runs 2i and 2i + 1 belong to positive i
    counts, ids = g.incident(ends)
    keys = sorted_unique(np.repeat(np.arange(len(ends)) // 2 * g.n_train, counts) + ids)
    owner, ids = np.divmod(keys, g.n_train)    # one per (positive, triple)
    other = (g.train[ids] != positives[owner]).any(axis=1)
    owner, ids = owner[other], ids[other]
    counts = np.bincount(owner, minlength=len(positives))
    kept = np.minimum(counts, cap)
    if (kept < counts).any():
        ids = ids[uniform_subsets(counts, kept, rng)] if cap else ids[:0]
    return (np.insert(g.train[ids], np.cumsum(kept) - kept, positives, axis=0),
            np.repeat(1.0 / (1.0 + kept), kept + 1))


def induced_ids(g: KnowledgeGraph, vertices, counts, ids) -> np.ndarray:
    """Sorted ids of the train triples with both endpoints among ``vertices``.

    ``counts, ids`` are ``g.incident(vertices)``; the vertices may come in any order and
    repeat. Each triple is read from the flat train array (a ``take`` on a strided column
    copies the column) and kept in its object's run by its head, or, a self-loop, by its
    tail, read only in runs shorter than their vertex's degree.
    """
    inside = np.zeros(g.n_entities, dtype=bool)
    inside[vertices] = True
    owner, flat = np.repeat(vertices, counts), g.train.reshape(-1)
    heads = flat.take(3 * ids)
    keep = (heads != owner) & inside[heads]
    loops = np.repeat(g.degrees[vertices] > counts, counts) & (heads == owner)
    keep[loops] = flat.take(3 * ids[loops] + 2) == owner[loops]
    return sorted_unique(ids[keep])


def write_dictionaries(g: KnowledgeGraph, directory: str) -> None:
    """Dump id<TAB>name dictionaries (entities.tsv / relations.tsv)."""
    os.makedirs(directory, exist_ok=True)
    for fname, names in (("entities.tsv", g.entity_names),
                         ("relations.tsv", g.relation_names)):
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            for i, name in enumerate(names):
                fh.write(f"{i}\t{name}\n")
