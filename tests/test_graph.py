import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsampler.graph import (
    DataError,
    _build_graph,
    concat_ranges,
    from_id_triples,
    load_dataset,
    neighbor_entries,
    pack_triples,
    sorted_unique,
    uniform_subsets,
    unpack_triples,
    write_dictionaries,
)
from kgsampler.synth import (
    dense_sampler_graph,
    planted_graph,
    planted_toy_graph,
    random_graph,
    variance_probe_graph,
    write_dataset,
)

from conftest import induced_rows, known_triples, random_id_triples


_MONOTONE_GRAPH = from_id_triples(
    random_id_triples(np.random.default_rng(11), 25, 2, 80),
    n_entities=25, n_relations=2,
)


def incident_ids(g, v):
    """Sorted train-triple indices incident to entity v."""
    return g.incident([v])[1]


def brute_adjacency(g):
    """(adj_indptr, adj_indices) of g by np.lexsort over (entity, triple id) pairs."""
    s, o = g.train[:, 0], g.train[:, 2]
    ids = np.arange(g.n_train)
    ents = np.concatenate([s, o[s != o]])
    tids = np.concatenate([ids, ids[s != o]])
    order = np.lexsort((tids, ents))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ents, minlength=g.n_entities))])
    return indptr, tids[order]


def write_split(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def make_dataset(tmp_path, train, valid=(), test=()):
    write_split(tmp_path / "train.txt", train)
    write_split(tmp_path / "valid.txt", valid)
    write_split(tmp_path / "test.txt", test)
    return str(tmp_path)


class TestLoader:
    def test_first_seen_id_assignment(self, tmp_path):
        g = load_dataset(make_dataset(
            tmp_path,
            train=[("alice", "knows", "bob"), ("bob", "knows", "carol")],
            valid=[("carol", "knows", "dave")],
            test=[("dave", "likes", "alice")],
        ))
        assert g.entity_names == ["alice", "bob", "carol", "dave"]
        assert g.relation_names == ["knows", "likes"]
        assert g.n_train == 2 and len(g.valid) == 1 and len(g.test) == 1

    def test_adjacency_from_train_only(self, tmp_path):
        g = load_dataset(make_dataset(
            tmp_path,
            train=[("a", "r", "b")],
            valid=[("a", "r", "c")],
        ))
        # c participates only in valid, so it has no incident train triples
        c = g.entity_names.index("c")
        assert g.degrees[c] == 0
        assert len(incident_ids(g, c)) == 0

    def test_membership_spans_all_splits(self, tmp_path):
        g = load_dataset(make_dataset(
            tmp_path,
            train=[("a", "r", "b")],
            valid=[("b", "r", "c")],
            test=[("c", "r", "a")],
        ))
        assert len(g.spo_keys) == 3 and len(g.ors_keys) == 3

    def test_empty_train(self, tmp_path):
        g = load_dataset(make_dataset(tmp_path, train=[], valid=[], test=[]))
        assert g.n_train == 0
        assert g.n_entities == 0
        assert len(g.spo_keys) == 0 and len(g.ors_keys) == 0

    def test_missing_file(self, tmp_path):
        write_split(tmp_path / "train.txt", [("a", "r", "b")])
        with pytest.raises(DataError, match="missing"):
            load_dataset(str(tmp_path))

    def test_malformed_line_reports_lineno(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\na\tr\n")
        write_split(tmp_path / "valid.txt", [])
        write_split(tmp_path / "test.txt", [])
        with pytest.raises(DataError, match="train.txt:2"):
            load_dataset(str(tmp_path))

    def test_blank_lines_skipped_and_line_numbers_kept(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\n\n\nb\tr\tc\n\n")
        (tmp_path / "valid.txt").write_text("\n\nc\tr\ta\n")
        write_split(tmp_path / "test.txt", [])
        g = load_dataset(str(tmp_path))
        assert g.train.tolist() == [[0, 0, 1], [1, 0, 2]]
        assert g.valid.tolist() == [[2, 0, 0]]
        (tmp_path / "test.txt").write_text("a\tr\tc\n\n\nb\tr\n")
        with pytest.raises(DataError, match="test.txt:4: expected 3 tab-separated columns, got 2"):
            load_dataset(str(tmp_path))

    def test_four_columns_rejected_with_the_count(self, tmp_path):
        make_dataset(tmp_path, train=[("a", "r", "b"), ("b", "r", "c", "x")])
        path = tmp_path / "train.txt"
        with pytest.raises(DataError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}:2: expected 3 tab-separated columns, got 4"

    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path):
        rows = [("a", "r", "b"), ("b", "s", "c")]
        (tmp_path / "lf").mkdir()
        (tmp_path / "crlf").mkdir()
        lf = load_dataset(make_dataset(tmp_path / "lf", train=rows, valid=rows[:1]))
        crlf = tmp_path / "crlf"
        make_dataset(crlf, train=rows, valid=rows[:1])
        for name in ("train.txt", "valid.txt"):
            path = crlf / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        g = load_dataset(str(crlf))
        assert g.entity_names == lf.entity_names == ["a", "b", "c"]
        assert g.relation_names == lf.relation_names == ["r", "s"]
        for name in ("train", "valid", "test"):
            assert np.array_equal(g.split(name), lf.split(name))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        rows = [("a", "r", "b"), ("b", "r", "a")]
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        plain = load_dataset(make_dataset(tmp_path / "plain", train=rows, valid=rows[:1]))
        bom = tmp_path / "bom"
        make_dataset(bom, train=rows, valid=rows[:1])
        for name in ("train.txt", "valid.txt"):
            path = bom / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        g = load_dataset(str(bom))
        assert g.entity_names == plain.entity_names == ["a", "b"]
        assert g.relation_names == plain.relation_names == ["r"]
        for name in ("train", "valid", "test"):
            assert np.array_equal(g.split(name), plain.split(name))

    def test_object_first_seen_in_valid_gets_the_next_id(self, tmp_path):
        g = load_dataset(make_dataset(
            tmp_path, train=[("a", "r", "b")], valid=[("b", "r", "c")], test=[("c", "s", "a")]))
        assert g.entity_names == ["a", "b", "c"]
        assert g.valid.tolist() == [[1, 0, 2]]
        assert g.test.tolist() == [[2, 1, 0]]

    def test_round_trip_matches_brute_force_indexes(self, tmp_path):
        src = random_graph(2000, 20, 20000, holdout_fraction=0.1)
        write_dataset(src, str(tmp_path))
        g = load_dataset(str(tmp_path))

        def named(graph, split):
            return [(graph.entity_names[s], graph.relation_names[r], graph.entity_names[o])
                    for s, r, o in graph.split(split).tolist()]

        for split in ("train", "valid", "test"):
            assert named(g, split) == named(src, split)
        rows = np.concatenate([g.train, g.valid, g.test])
        E, R = g.n_entities, g.n_relations
        assert np.array_equal(g.spo_keys, np.unique((rows[:, 0] * R + rows[:, 1]) * E + rows[:, 2]))
        assert np.array_equal(g.ors_keys, np.unique((rows[:, 2] * R + rows[:, 1]) * E + rows[:, 0]))
        indptr, indices = brute_adjacency(g)
        assert np.array_equal(g.adj_indptr, indptr) and np.array_equal(g.adj_indices, indices)
        assert g.adj_indptr.dtype == g.adj_indices.dtype == g.spo_keys.dtype == np.int64

    def test_duplicate_within_split_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(make_dataset(
                tmp_path, train=[("a", "r", "b"), ("a", "r", "b")]))

    def test_duplicate_across_splits_allowed(self, tmp_path):
        g = load_dataset(make_dataset(
            tmp_path, train=[("a", "r", "b")], valid=[("a", "r", "b")]))
        assert len(g.spo_keys) == 1 and len(g.ors_keys) == 1

    def test_directionality(self, tmp_path):
        g = load_dataset(make_dataset(
            tmp_path, train=[("a", "r", "b"), ("b", "r", "a")]))
        assert g.n_train == 2

    def test_dictionary_dump(self, tmp_path):
        g = load_dataset(make_dataset(tmp_path, train=[("a", "r", "b")]))
        out = tmp_path / "dicts"
        write_dictionaries(g, str(out))
        lines = (out / "entities.tsv").read_text().splitlines()
        assert lines == ["0\ta", "1\tb"]


class TestDegree:
    def test_chain_interior(self, chain3):
        assert chain3.degrees[1] == 2

    def test_absent_entity(self, chain3):
        g = from_id_triples([(0, 0, 1)], n_entities=3, n_relations=1)
        assert g.degrees[2] == 0

    def test_self_loop_counts_twice(self):
        g = from_id_triples([(0, 0, 0), (0, 0, 1)], n_entities=2, n_relations=1)
        assert g.degrees[0] == 3
        # but the loop appears once in the incidence list
        assert len(incident_ids(g, 0)) == 2

    def test_brute_force_equivalence(self, small_random_graph):
        g = small_random_graph
        for v in range(g.n_entities):
            expected = sum(1 for s, _, o in g.train for end in (s, o) if end == v)
            assert g.degrees[v] == expected


class TestAdjacency:
    def test_round_trip(self, small_random_graph):
        g = small_random_graph
        for i, (s, _, o) in enumerate(g.train):
            assert i in incident_ids(g, s)
            assert i in incident_ids(g, o)

    def test_lists_sorted(self, small_random_graph):
        g = small_random_graph
        for v in range(g.n_entities):
            ids = incident_ids(g, v)
            assert np.all(np.diff(ids) > 0)

    def test_runs_laid_end_to_end(self, small_random_graph):
        g = small_random_graph
        verts = np.array([3, 0, 3, g.n_entities - 1, 7])
        counts, ids = g.incident(verts)
        assert np.array_equal(counts, g.adj_indptr[verts + 1] - g.adj_indptr[verts])
        want = np.concatenate([g.adj_indices[g.adj_indptr[v]:g.adj_indptr[v + 1]] for v in verts])
        assert np.array_equal(ids, want) and ids.dtype == np.int64
        counts, ids = g.incident(np.empty(0, dtype=np.int64))
        assert len(counts) == 0 and len(ids) == 0

    def test_total_length(self, small_random_graph):
        g = small_random_graph
        n_loops = int(np.sum(g.train[:, 0] == g.train[:, 2]))
        assert len(g.adj_indices) == 2 * g.n_train - n_loops


def neighbor_triples(g, t: tuple) -> set:
    """Train triples sharing an endpoint with t, excluding t itself."""
    entries, weights = neighbor_entries(g, [t], g.n_train, np.random.default_rng(0))
    assert entries[0].tolist() == list(t)
    assert np.all(weights == 1.0 / len(entries))
    got = [tuple(map(int, row)) for row in entries[1:]]
    assert len(set(got)) == len(got)
    return set(got)


def brute_neighbors(g, t: tuple) -> set:
    return {
        tuple(map(int, r)) for r in g.train
        if (r[0] in (t[0], t[2]) or r[2] in (t[0], t[2]))
    } - {t}


def reference_neighbor_entries(g, positives, cap, rng):
    """The per-positive loop that ``neighbor_entries`` replaced."""
    entries, weights = [], []
    for t in positives:
        s, r, o = int(t[0]), int(t[1]), int(t[2])
        ids = np.union1d(incident_ids(g, s), incident_ids(g, o))
        if len(ids):
            rows = g.train[ids]
            ids = ids[~((rows[:, 0] == s) & (rows[:, 1] == r) & (rows[:, 2] == o))]
        if len(ids) > cap:
            ids = ids[:0] if cap == 0 else np.sort(rng.choice(ids, size=cap, replace=False))
        w = 1.0 / (1.0 + len(ids))
        entries.append(t)
        weights.append(w)
        for i in ids:
            entries.append(g.train[i])
            weights.append(w)
    return np.asarray(entries, dtype=np.int64).reshape(-1, 3), np.asarray(weights)


class TestNeighborTriples:
    def test_single_triple_graph(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1)
        assert neighbor_triples(g, (0, 0, 1)) == set()

    def test_chain_middle(self, chain3):
        got = neighbor_triples(chain3, (1, 0, 2))
        assert got == {(0, 0, 1), (2, 0, 3)}

    def test_star_spoke(self, star6):
        got = neighbor_triples(star6, (0, 0, 1))
        assert got == {(0, 0, i) for i in range(2, 7)}

    def test_matches_brute_force(self, small_random_graph):
        g = small_random_graph
        for row in g.train[:25]:
            t = tuple(map(int, row))
            assert neighbor_triples(g, t) == brute_neighbors(g, t)

    def test_self_loop(self):
        g = from_id_triples([(0, 0, 0), (0, 1, 1), (2, 0, 0), (1, 0, 2)],
                            n_entities=3, n_relations=2)
        for row in g.train:
            t = tuple(map(int, row))
            assert neighbor_triples(g, t) == brute_neighbors(g, t)
        assert neighbor_triples(g, (0, 0, 0)) == {(0, 1, 1), (2, 0, 0)}

    def test_parallel_edges_appear_once(self):
        # (0,1,1) and (1,0,0) lie in both of (0,0,1)'s runs
        g = from_id_triples([(0, 0, 1), (0, 1, 1), (1, 0, 0), (2, 0, 1)],
                            n_entities=3, n_relations=2)
        for row in g.train:
            t = tuple(map(int, row))
            assert neighbor_triples(g, t) == brute_neighbors(g, t)
        assert neighbor_triples(g, (0, 0, 1)) == {
            (0, 1, 1), (1, 0, 0), (2, 0, 1)}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cap", [0, 10**6])
    def test_equals_per_positive_loop(self, seed, cap):
        # a cap that truncates nothing draws no random numbers, as the loop did
        g = random_graph(n_entities=300, n_relations=5, n_triples=3000, seed=seed)
        positives = g.train[np.random.default_rng(seed).choice(g.n_train, 50, replace=False)]
        positives = np.concatenate([positives, [[0, 0, 0]]])   # not a train triple
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_neighbor_entries(g, positives, cap, want_rng)
        got = neighbor_entries(g, positives, cap, got_rng)
        assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
        assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_truncated_groups_are_capped_subsets(self, small_random_graph):
        g = small_random_graph
        positives, cap = g.train[:25], 3
        entries, weights = neighbor_entries(g, positives, cap, np.random.default_rng(4))
        index = {tuple(map(int, row)): i for i, row in enumerate(g.train)}
        at = 0
        for t in positives:
            t = tuple(map(int, t))
            full = brute_neighbors(g, t)
            kept = min(len(full), cap)
            assert entries[at].tolist() == list(t)
            group = [tuple(map(int, row)) for row in entries[at + 1:at + 1 + kept]]
            assert len(set(group)) == kept and set(group) <= full
            assert [index[n] for n in group] == sorted(index[n] for n in group)
            assert np.all(weights[at:at + 1 + kept] == 1.0 / (1 + kept))
            at += 1 + kept
        assert at == len(entries)


def argsort_subsets(counts, k, rng):
    """Each run's k positions of smallest key, in key order: one argsort over (run, bits) keys."""
    bits = 63 - max(len(counts) - 1, 1).bit_length()
    run = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    by_key = np.argsort((run << bits) | rng.integers(0, 1 << bits, size=len(run)))
    rank = concat_ranges(np.zeros_like(counts), counts)
    return by_key[rank < np.repeat(k, counts)]


class FewBits:
    """A generator stub whose ``integers`` draws from only ``levels`` values, so keys tie."""

    def __init__(self, seed, levels):
        self.rng, self.levels = np.random.default_rng(seed), levels

    def integers(self, low, high, size):
        return self.rng.integers(low, min(high, low + self.levels), size=size)


@st.composite
def run_layouts(draw):
    """Run lengths (empty runs included) and a k per run in [0, count], k = 0 and k = count too."""
    counts = draw(st.lists(st.integers(0, 12), max_size=15))
    k = [draw(st.sampled_from([0, c, draw(st.integers(0, c))])) for c in counts]
    return np.array(counts, dtype=np.int64), np.array(k, dtype=np.int64)


class TestUniformSubsets:
    @settings(max_examples=200, deadline=None)
    @given(layout=run_layouts(), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_argsort_construction(self, layout, seed):
        counts, k = layout
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.sort(argsort_subsets(counts, k, want_rng))
        got = uniform_subsets(counts, k, got_rng)
        assert np.array_equal(got, want) and got.dtype == np.int64
        # one integer per position is drawn, no more: the streams go on alike
        assert got_rng.integers(0, 2 ** 62) == want_rng.integers(0, 2 ** 62)

    @settings(max_examples=100, deadline=None)
    @given(layout=run_layouts(), seed=st.integers(0, 2 ** 32 - 1), levels=st.integers(1, 3))
    def test_ties_at_a_threshold_fall_back_to_the_argsort(self, layout, seed, levels):
        counts, k = layout
        got = uniform_subsets(counts, k, FewBits(seed, levels))
        assert np.array_equal(got, np.sort(argsort_subsets(counts, k, FewBits(seed, levels))))
        assert np.array_equal(np.bincount(np.repeat(np.arange(len(counts)), counts)[got],
                                          minlength=len(counts)), k)

    def test_equal_bits_take_the_fallback(self):
        # every key of a run ties, so the thresholds alone would keep whole runs
        counts, k = np.array([5, 0, 4, 3]), np.array([2, 0, 4, 1])
        got = uniform_subsets(counts, k, FewBits(0, 1))
        assert len(got) == k.sum()
        assert np.array_equal(got, np.sort(argsort_subsets(counts, k, FewBits(0, 1))))

    def test_positions_come_back_sorted(self):
        counts = np.random.default_rng(3).integers(0, 50, size=300)
        k = counts // 2
        got = uniform_subsets(counts, k, np.random.default_rng(3))
        assert len(got) == k.sum() and np.all(np.diff(got) > 0)


class TestInducedSubgraph:
    def test_empty_vertices(self, triangle):
        assert len(induced_rows(triangle, set())) == 0

    def test_all_vertices_identity(self, triangle):
        got = induced_rows(triangle, {0, 1, 2})
        assert np.array_equal(got, triangle.train)

    def test_triangle_pair(self, triangle):
        got = induced_rows(triangle, {0, 1})
        assert got.tolist() == [[0, 0, 1]]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_monotone_in_vertex_set(self, data):
        g = _MONOTONE_GRAPH
        v2 = data.draw(st.sets(st.integers(0, g.n_entities - 1)))
        v1 = data.draw(st.sets(st.sampled_from(sorted(v2)))) if v2 else set()
        t1 = {tuple(r) for r in induced_rows(g, v1)}
        t2 = {tuple(r) for r in induced_rows(g, v2)}
        assert t1 <= t2


def test_from_id_triples_rejects_out_of_range():
    with pytest.raises(DataError):
        from_id_triples([(0, 0, 5)], n_entities=2, n_relations=1)


@pytest.mark.parametrize("rows, match", [
    ([(0, 1, 1)], "out of range"),
    ([(-1, 0, 1)], "out of range"),
    ([(0, 0, 1), (1, 0, 0), (0, 0, 1)], "duplicate triple within train split at row 3"),
])
def test_from_id_triples_rejects_bad_rows(rows, match):
    with pytest.raises(DataError, match=match):
        from_id_triples(rows, n_entities=2, n_relations=1)


def test_key_overflow_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="4294967296 entities and 1 relations"):
            from_id_triples([], n_entities=2**32, n_relations=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_adjacency_key_overflow_rejected_before_reading_rows():
    # 2³¹ entities pass the triple-key check (2⁶² ≤ 2⁶³), but 2³² + 1 train rows give
    # adjacency sort keys up to E·n > 2⁶³. The rows are a zero-copy broadcast view, and
    # the names are given, so a missing check fails on the -1 id, not on 2³¹ names.
    train = np.broadcast_to(np.array([-1, 0, 0]), (2**32 + 1, 3))
    empty = np.empty((0, 3), dtype=np.int64)
    with pytest.raises(DataError, match="entities · train triples > 2⁶³"):
        _build_graph({"train": train, "valid": empty, "test": empty}, 2**31, 1,
                     names=(["e0"], ["r0"]))


def test_keys_round_trip_at_the_int64_edge():
    E, R = 2**31, 2   # E²·R = 2⁶³: the largest key is 2⁶³ - 1
    rng = np.random.default_rng(15)
    rows = np.stack([rng.integers(E, size=50), rng.integers(R, size=50),
                     rng.integers(E, size=50)], axis=1)
    rows = np.concatenate([rows, [[0, 0, 0], [E - 1, R - 1, E - 1], [E - 1, 0, 0], [0, R - 1, 0]]])
    keys = pack_triples(*rows.T, E, R)
    assert keys.dtype == np.int64 and keys.min() >= 0 and keys.max() == 2**63 - 1
    got = unpack_triples(keys, E, R)
    assert got.dtype == np.int64 and np.array_equal(got, rows)


@pytest.mark.parametrize("E, R", [(1, 1), (7, 3), (50, 20), (2**31, 2)])
def test_sorted_keys_give_rows_in_lexicographic_order(E, R):
    rng = np.random.default_rng(E + R)
    rows = np.stack([rng.integers(E, size=300), rng.integers(R, size=300),
                     rng.integers(E, size=300)], axis=1)
    got = unpack_triples(sorted_unique(pack_triples(*rows.T, E, R)), E, R)
    assert np.array_equal(got, np.unique(rows, axis=0))


def reference_random_graph(n_entities, n_relations, n_triples, seed, holdout_fraction):
    """The row-wise ``np.unique`` rejection loop, and its round count: (splits, rounds)."""
    rng = np.random.default_rng(seed)
    rows, rounds = np.empty((0, 3), dtype=np.int64), 0
    while len(rows) < n_triples:
        need, rounds = n_triples - len(rows), rounds + 1
        s = rng.integers(0, n_entities, size=2 * need)
        r = rng.integers(0, n_relations, size=2 * need)
        o = rng.integers(0, n_entities, size=2 * need)
        cand = np.stack([s, r, o], axis=1)
        rows = np.unique(np.concatenate([rows, cand[s != o]]), axis=0)
    rows = rows[rng.permutation(len(rows))[:n_triples]]
    n_hold = int(round(holdout_fraction * n_triples))
    held, kept = rows[:n_hold], rows[n_hold:]
    return (kept, held[:n_hold // 2], held[n_hold // 2:]), rounds


def split_digest(g):
    """sha256 over the entity and relation counts, then each split's little-endian int64 rows."""
    h = hashlib.sha256(b"%d %d;" % (g.n_entities, g.n_relations))
    for split in (g.train, g.valid, g.test):
        h.update(np.ascontiguousarray(split, dtype="<i8").tobytes() + b";")
    return h.hexdigest()


# The recorded splits of the bundled generators. A change that moves these bits changes
# every synthetic dataset, and the benchmark's reference numbers with them: it must say
# so and re-record them.
SYNTH_DIGESTS = {
    "clusters": (planted_graph,
                 "d2852b3f36bd030aed4f260f8f4d51898f6a71b980fb0530873a1e7d0eeb4b88"),
    "planted": (lambda: planted_toy_graph(seed=0),
                "62eec4d96bed2781328c336b3a09ab64c1b280693654f1a14e144ff9513b9d89"),
    "dense": (dense_sampler_graph,
              "30498df47a1de761394cf343fb8d9719dd859e0fe329d1fab71e2978291eda38"),
    "variance": (variance_probe_graph,
                 "089e08bfba65be214548257f71e0572df40d1fd92271b886655e1bf750a9f241"),
    "random_holdout": (lambda: random_graph(300, 4, 2000, seed=5, holdout_fraction=0.1),
                       "a2e6b2e45392de864b3531a0da48b2ab60cdc48fd9e9991e08f3ce31ac087be1"),
}


@pytest.mark.parametrize("name", sorted(SYNTH_DIGESTS))
def test_synthetic_splits_equal_the_recorded_digests(name):
    make, digest = SYNTH_DIGESTS[name]
    assert split_digest(make()) == digest


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("holdout", [0.1, 0.35])
def test_random_graph_equals_row_unique_reference(seed, holdout):
    # 700 of the 760 distinct loop-free triples: the first round's 1,400 draws
    # leave ~630, so every seed takes two rounds or more
    (train, valid, test), rounds = reference_random_graph(20, 2, 700, seed, holdout)
    assert rounds >= 2
    g = random_graph(20, 2, 700, seed=seed, holdout_fraction=holdout)
    for got, want in ((g.train, train), (g.valid, valid), (g.test, test)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert len(g.valid) and len(g.test)


@st.composite
def id_graphs(draw):
    """Small graphs whose splits share triples and hold self-loops."""
    n_e = draw(st.integers(1, 5))
    n_r = draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    splits = [sorted(draw(st.sets(triple, max_size=12))) for _ in range(3)]
    return from_id_triples(splits[0], n_e, n_r, valid=splits[1], test=splits[2])


@settings(max_examples=60, deadline=None)
@given(g=id_graphs())
def test_known_triple_index_matches_brute_force(g):
    known = known_triples(g)
    ids = range(g.n_entities)
    everything = [(s, r, o) for s in ids for r in range(g.n_relations) for o in ids]
    assert g.contains_triples(everything).tolist() == [t in known for t in everything]
    indptr, indices = brute_adjacency(g)     # the splits hold self-loops
    assert np.array_equal(g.adj_indptr, indptr) and np.array_equal(g.adj_indices, indices)
    # rows with an id outside [0, E) or [0, R), some packing to a known triple's key
    E, R = g.n_entities, g.n_relations
    aliases = [row for s, r, o in known for row in ((s, r - 1, o + E), (s - 1, r + R, o))]
    outside = aliases + [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (E, 0, 0), (0, R, 0), (0, 0, E)]
    assert not g.contains_triples(outside).any()
    for a in ids:
        for r in range(g.n_relations):
            objs, subjs = g.filter_objects(a, r), g.filter_subjects(r, a)
            assert objs.dtype == subjs.dtype == np.int64
            assert objs.tolist() == sorted(o for s, q, o in known if (s, q) == (a, r))
            assert subjs.tolist() == sorted(s for s, q, o in known if (q, o) == (r, a))
        assert len(g.filter_objects(a, g.n_relations)) == len(g.filter_subjects(-1, a)) == 0
    assert len(g.filter_objects(g.n_entities, 0)) == len(g.filter_subjects(0, g.n_entities)) == 0
    # the batched form: every pair in one call, plus out-of-range pairs (some
    # packing to a known pair's base key), whose runs are empty
    pairs = [(a, r) for a in ids for r in range(R)]
    pairs += [(s - 1, r + R) for s, r, o in known] + [(s + 1, r - R) for s, r, o in known]
    pairs += [(-1, 0), (0, -1), (E, 0), (0, R), (E, R)]
    heads, rels = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    obj_counts, objs = g.filter_objects_batch(heads, rels)
    subj_counts, subjs = g.filter_subjects_batch(rels, heads)
    assert objs.dtype == subjs.dtype == obj_counts.dtype == subj_counts.dtype == np.int64
    want_objs = [sorted(o for s, q, o in known if (s, q) == (a, r)) for a, r in pairs]
    want_subjs = [sorted(s for s, q, o in known if (q, o) == (r, a)) for a, r in pairs]
    # the runs laid end to end, pair by pair, each run's length its pair's count
    assert obj_counts.tolist() == [len(run) for run in want_objs]
    assert subj_counts.tolist() == [len(run) for run in want_subjs]
    assert objs.tolist() == [o for run in want_objs for o in run]
    assert subjs.tolist() == [s for run in want_subjs for s in run]
    for counts, found in (g.filter_objects_batch([], []), g.filter_subjects_batch([], [])):
        assert len(counts) == len(found) == 0


def test_contains_triples_unsorted_keys_with_duplicates():
    """An (m, n, 3) batch in random order, known rows repeated, equals a set lookup."""
    g = random_graph(n_entities=25, n_relations=3, n_triples=150, seed=13)
    known = known_triples(g)
    rng = np.random.default_rng(14)
    rows = np.stack([rng.integers(-1, 26, size=240), rng.integers(-1, 4, size=240),
                     rng.integers(-1, 26, size=240)], axis=1)
    rows[::3] = g.train[rng.integers(len(g.train), size=80)]   # known, with repeats
    rows[1::7] = rows[0]
    batch = rows[rng.permutation(240)].reshape(8, 30, 3)
    got = g.contains_triples(batch)
    assert got.shape == (8, 30)
    want = [[tuple(map(int, t)) in known for t in row] for row in batch]
    assert got.tolist() == want
    assert got.any() and not got.all()


def test_loader_benchmark_shape(tmp_path):
    # dataset built from integer-named entities survives a file round trip
    rng = np.random.default_rng(3)
    triples = random_id_triples(rng, 20, 2, 60)
    rows = [(f"e{s}", f"r{r}", f"e{o}") for s, r, o in triples]
    g = load_dataset(make_dataset(tmp_path, train=rows[:40], valid=rows[40:50],
                                  test=rows[50:]))
    assert g.n_train == 40
    assert g.n_entities == 20
    total = int(g.degrees.sum())
    n_loops = int(np.sum(g.train[:, 0] == g.train[:, 2]))
    assert total == 2 * g.n_train
    assert len(g.adj_indices) == 2 * g.n_train - n_loops
