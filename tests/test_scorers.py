import os
import stat
import tracemalloc

import numpy as np
import pytest

from kgsampler import scorers
from kgsampler.scorers import (
    MODEL_KINDS,
    UNIT_ROUNDOFF,
    EmbeddingStore,
    initialize,
    load_checkpoint,
    query_bounds,
    query_rows,
    row_widths,
    save_checkpoint,
    score,
    score_against_all_objects,
    score_against_all_subjects,
    score_gradient,
    score_gradients,
    score_triples,
)


def fd_gradient(fn, x, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        out[i] = (fn(up) - fn(down)) / (2 * h)
    return out


def grad_rel_error(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))


def random_store(kind, k, n_entities=12, n_relations=4, seed=0):
    return initialize(n_entities, n_relations, kind, k, seed=seed)


class TestHandValues:
    def test_transe_exact_translation(self):
        store = EmbeddingStore("transe", 2,
                               entities=np.array([[0.0, 0.0], [1.0, 1.0]]),
                               relations=np.array([[1.0, 1.0]]))
        assert score(store, (0, 0, 1)) == 0.0

    def test_distmult_bilinear(self):
        store = EmbeddingStore("distmult", 2,
                               entities=np.array([[1.0, 2.0], [5.0, 6.0]]),
                               relations=np.array([[3.0, 4.0]]))
        assert score(store, (0, 0, 1)) == pytest.approx(63.0)

    def test_distmult_subject_gradient(self):
        store = EmbeddingStore("distmult", 2,
                               entities=np.array([[1.0, 2.0], [5.0, 6.0]]),
                               relations=np.array([[3.0, 4.0]]))
        g = score_gradient(store, (0, 0, 1))
        np.testing.assert_allclose(g.d_subject, [15.0, 24.0])

    def test_rotate_quarter_turn(self):
        store = EmbeddingStore("rotate", 1,
                               entities=np.array([[1.0, 0.0], [0.0, 1.0]]),
                               relations=np.array([[np.pi / 2]]))
        assert score(store, (0, 0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_complex_identity(self):
        store = EmbeddingStore("complex", 1,
                               entities=np.array([[1.0, 0.0]]),
                               relations=np.array([[1.0, 0.0]]))
        assert score(store, (0, 0, 0)) == pytest.approx(1.0)

    def test_transe_gradient_zero_at_exact_match(self):
        store = EmbeddingStore("transe", 2,
                               entities=np.array([[0.0, 0.0], [1.0, 1.0]]),
                               relations=np.array([[1.0, 1.0]]))
        g = score_gradient(store, (0, 0, 1))
        assert np.all(g.d_subject == 0) and np.all(g.d_object == 0)


class TestGradientFiniteDifference:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("k", [2, 8])
    def test_matches_central_differences(self, kind, k):
        rng = np.random.default_rng(hash((kind, k)) & 0xFFFF)
        store = random_store(kind, k, seed=int(rng.integers(1 << 30)))
        for _ in range(10):
            s, o = rng.integers(store.n_entities, size=2)
            while s == o:  # the shared-row case is covered separately
                o = rng.integers(store.n_entities)
            r = rng.integers(store.n_relations)
            t = (int(s), int(r), int(o))
            g = score_gradient(store, t)

            def score_with(row_value, which, t=t):
                st = EmbeddingStore(store.model_kind, store.dimension,
                                    store.entities.copy(), store.relations.copy())
                if which == "s":
                    st.entities[t[0]] = row_value
                elif which == "r":
                    st.relations[t[1]] = row_value
                else:
                    st.entities[t[2]] = row_value
                return score(st, t)

            for which, row, analytic in (
                ("s", store.entities[t[0]], g.d_subject),
                ("r", store.relations[t[1]], g.d_relation),
                ("o", store.entities[t[2]], g.d_object),
            ):
                numeric = fd_gradient(lambda x: score_with(x, which), row)
                assert grad_rel_error(analytic, numeric) < 1e-6

    def test_self_referential_triple_gradients(self):
        # s == o: perturbing the shared row moves both slots; the per-slot
        # gradients must still sum to the total derivative
        store = random_store("distmult", 4, seed=3)
        t = (2, 1, 2)
        g = score_gradient(store, t)

        def f(row):
            st = EmbeddingStore(store.model_kind, store.dimension,
                                store.entities.copy(), store.relations.copy())
            st.entities[2] = row
            return score(st, t)

        numeric = fd_gradient(f, store.entities[2])
        assert grad_rel_error(g.d_subject + g.d_object, numeric) < 1e-6


    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("side", [0, 2])
    def test_query_backward_matches_central_differences(self, kind, side):
        """query_rows' backward map is the transpose of its Jacobian, on both sides."""
        store = random_store(kind, 3, seed=17)
        if kind == "rotate":
            store.relations *= 7.5
        # each row has its own fixed entity and relation, so rows do not interact
        spo = np.array([[0, 1, 2], [3, 2, 4], [5, 3, 6]])
        rng = np.random.default_rng(18 + side)
        dq = rng.normal(size=(len(spo), store.entities.shape[1]))
        d_fixed, d_relation = query_rows(store, spo, side)[1](dq)
        for i, t in enumerate(spo):
            def projected(row_value, table, row_id, i=i):
                st = EmbeddingStore(store.model_kind, store.dimension,
                                    store.entities.copy(), store.relations.copy())
                getattr(st, table)[row_id] = row_value
                return float(dq[i] @ query_rows(st, spo[i:i + 1], side)[0][0])

            for table, row_id, analytic in (("entities", t[2 - side], d_fixed[i]),
                                            ("relations", t[1], d_relation[i])):
                numeric = fd_gradient(lambda x: projected(x, table, row_id),
                                      getattr(store, table)[row_id])
                assert grad_rel_error(analytic, numeric) < 1e-6


class TestVectorizedAgreement:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("side", [0, 2])
    def test_zero_rows_give_empty_arrays(self, kind, side):
        store = random_store(kind, 3)
        ew, rw = row_widths(kind, 3)
        spo = np.zeros((0, 3), dtype=np.int64)
        q = query_rows(store, spo, side)[0]
        q_abs, eps = query_bounds(store, spo, side)
        assert q.shape == q_abs.shape == (0, ew)
        assert np.isfinite(eps)
        d_subject, d_relation, d_object = score_gradients(store, spo)
        assert d_subject.shape == d_object.shape == (0, ew)
        assert d_relation.shape == (0, rw)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("side", [0, 2])
    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-200])
    def test_query_bounds_bound_the_query(self, kind, side, scale):
        """``q_abs`` bounds ``|q|`` entry by entry, exactly: rounding is monotone."""
        store = random_store(kind, 16, n_entities=50, n_relations=6, seed=19)
        store.entities *= scale
        if kind == "rotate":
            store.relations *= 37.5
        rng = np.random.default_rng(20)
        spo = np.stack([rng.integers(50, size=200), rng.integers(6, size=200),
                        rng.integers(50, size=200)], axis=1)
        q_abs, eps = query_bounds(store, spo, side)
        assert np.all(np.abs(query_rows(store, spo, side)[0]) <= q_abs)
        if kind == "rotate":
            assert eps >= 4 * UNIT_ROUNDOFF
        else:
            assert eps == 0.0

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_all_objects_matches_per_triple(self, kind):
        store = random_store(kind, 5, n_entities=40, seed=9)
        vec = score_against_all_objects(store, 3, 1)
        for o in range(store.n_entities):
            assert vec[o] == pytest.approx(score(store, (3, 1, o)), abs=1e-12)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_all_subjects_matches_per_triple(self, kind):
        store = random_store(kind, 5, n_entities=40, seed=10)
        vec = score_against_all_subjects(store, 2, 7)
        for s in range(store.n_entities):
            assert vec[s] == pytest.approx(score(store, (s, 2, 7)), abs=1e-12)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_both_sides_match_score_triples(self, kind):
        """Scaled RotatE phases, and on each side a candidate at the query point."""
        store = random_store(kind, 6, n_entities=30, seed=16)
        if kind == "rotate":
            store.relations *= 37.5
        s, r, o = 3, 2, 7
        t = np.array([[s, r, o]])
        planted = {2: 11, 0: 12}   # side -> the candidate put at that side's query point
        for side, e in planted.items():
            store.entities[e] = query_rows(store, t, side)[0][0]
        for side, got in ((2, score_against_all_objects(store, s, r)),
                          (0, score_against_all_subjects(store, r, o))):
            rows = np.repeat(t, store.n_entities, axis=0)
            rows[:, side] = np.arange(store.n_entities)
            np.testing.assert_allclose(got, score_triples(store, rows), rtol=0, atol=1e-12)
            if kind in ("transe", "rotate"):   # a distance of 0
                assert abs(got[planted[side]]) < 1e-12

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_per_row_sides_equal_each_side_bitwise(self, kind):
        """A per-row ``side`` gives every row its own side's bits, forward and backward.

        Each side's rows are also compared in 10 chunks of ~15: a row's query
        and backward bits do not depend on which other rows share the call.
        """
        store = random_store(kind, 6, n_entities=40, n_relations=5, seed=21)
        rng = np.random.default_rng(22)
        spo = np.stack([rng.integers(40, size=300), rng.integers(5, size=300),
                        rng.integers(40, size=300)], axis=1)
        sides = np.where(rng.random(300) < 0.5, 0, 2)
        dq = rng.standard_normal((300, row_widths(kind, 6)[0]))
        q, backward = query_rows(store, spo, sides)
        d_fixed, d_rel = backward(dq)
        for side in (0, 2):
            rows = np.flatnonzero(sides == side)
            for part in [rows] + np.array_split(rows, 10):
                want_q, want_backward = query_rows(store, spo[part], side)
                assert np.array_equal(q[part], want_q)
                want_fixed, want_rel = want_backward(dq[part])
                assert np.array_equal(d_fixed[part], want_fixed)
                assert np.array_equal(d_rel[part], want_rel)

    def test_batch_scores_match_scalar(self):
        store = random_store("rotate", 4, seed=11)
        rng = np.random.default_rng(1)
        spo = np.stack([rng.integers(store.n_entities, size=20),
                        rng.integers(store.n_relations, size=20),
                        rng.integers(store.n_entities, size=20)], axis=1)
        batch = score_triples(store, spo)
        for row, expected in zip(spo, batch):
            assert score(store, row) == pytest.approx(expected, abs=1e-12)

    def test_rotate_trig_table_bitwise(self):
        """Per-relation cos/sin tables give exactly the per-row formula's scores."""
        store = random_store("rotate", 6, n_entities=20, n_relations=5, seed=12)
        rng = np.random.default_rng(2)
        spo = np.stack([rng.integers(20, size=40),
                        np.array([3, 1, 3, 0, 4, 1, 1, 2] * 5),
                        rng.integers(20, size=40)], axis=1)

        def per_row(spo):
            a, b = np.split(store.entities[spo[:, 0]], 2, axis=1)
            wr = store.relations[spo[:, 1]]
            cos, sin = np.cos(wr), np.sin(wr)
            d = np.concatenate([a * cos - b * sin, a * sin + b * cos], axis=1)
            d -= store.entities[spo[:, 2]]
            return -np.sqrt(np.einsum("ij,ij->i", d, d))

        for rows in (spo, spo[::-1], spo[:1], spo[:0]):
            assert np.array_equal(score_triples(store, rows), per_row(rows))
        assert score_triples(store, spo[:0]).shape == (0,)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_score_triples_rows_are_independent(self, kind):
        """A row's score has the same bits alone, in a shuffled batch, or repeated.

        Exact ranking re-scores only a few candidates of a query and compares
        them against scores of other calls, so the batch must not matter.
        """
        store = random_store(kind, 64, n_entities=300, n_relations=7, seed=13)
        rng = np.random.default_rng(4)
        n = 500
        spo = np.stack([rng.integers(300, size=n), rng.integers(7, size=n),
                        rng.integers(300, size=n)], axis=1)
        # a ranking-shaped batch too: every object of one (s, r) pair
        spo = np.concatenate([spo, np.stack([np.full(300, 5), np.full(300, 2),
                                             np.arange(300)], axis=1)])
        batch = score_triples(store, spo)
        alone = np.array([score_triples(store, row[None])[0] for row in spo])
        assert batch.tobytes() == alone.tobytes()
        perm = rng.permutation(len(spo))
        assert score_triples(store, spo[perm]).tobytes() == batch[perm].tobytes()
        repeated = score_triples(store, np.repeat(spo[:50], 3, axis=0)).reshape(50, 3)
        for j in range(3):
            assert repeated[:, j].tobytes() == batch[:50].tobytes()


class TestBlocks:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_blocks_equal_per_row_loop_bitwise(self, kind, monkeypatch):
        """With 3-row blocks, 10 rows span four blocks, the last one short."""
        store = random_store(kind, 6, n_entities=30, n_relations=4, seed=23)
        rng = np.random.default_rng(24)
        spo = np.stack([rng.integers(30, size=10), rng.integers(4, size=10),
                        rng.integers(30, size=10)], axis=1)
        monkeypatch.setattr(scorers, "BLOCK_ROWS", 3)
        want = np.concatenate([score_triples(store, row[None]) for row in spo])
        assert score_triples(store, spo).tobytes() == want.tobytes()
        alone = [score_gradients(store, row[None]) for row in spo]
        for got, rows in zip(score_gradients(store, spo), zip(*alone)):
            assert got.tobytes() == np.concatenate(rows).tobytes()

    def test_score_triples_peak_memory(self):
        """20,000 rows cost a few block-sized temporaries; one pass over them all took ~80."""
        store = random_store("rotate", 64, n_entities=500, n_relations=7, seed=25)
        rng = np.random.default_rng(26)
        n = 20_000
        spo = np.stack([rng.integers(500, size=n), rng.integers(7, size=n),
                        rng.integers(500, size=n)], axis=1)
        score_triples(store, spo[:10])
        tracemalloc.start()
        try:
            score_triples(store, spo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_array = scorers.BLOCK_ROWS * store.entities.shape[1] * 8
        assert peak < 6 * block_array


class TestModelProperties:
    def test_distmult_symmetric_in_entities(self):
        store = random_store("distmult", 6, seed=12)
        rng = np.random.default_rng(2)
        for _ in range(30):
            s, o = rng.integers(store.n_entities, size=2)
            r = rng.integers(store.n_relations)
            assert score(store, (s, r, o)) == pytest.approx(score(store, (o, r, s)))

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_norm_models_nonpositive(self, kind):
        store = random_store(kind, 4, seed=13)
        rng = np.random.default_rng(3)
        spo = np.stack([rng.integers(store.n_entities, size=50),
                        rng.integers(store.n_relations, size=50),
                        rng.integers(store.n_entities, size=50)], axis=1)
        assert np.all(score_triples(store, spo) <= 0)

    def test_out_of_range_ids(self):
        store = random_store("transe", 3, seed=15)
        with pytest.raises(IndexError):
            score(store, (0, 0, 99))
        for bad in (99, -1):
            with pytest.raises(IndexError):
                score_against_all_objects(store, 0, bad)    # relation
            with pytest.raises(IndexError):
                score_against_all_subjects(store, bad, 0)   # relation
            with pytest.raises(IndexError):
                score_against_all_objects(store, bad, 0)    # subject
            with pytest.raises(IndexError):
                score_against_all_subjects(store, 0, bad)   # object


class TestInitialize:
    def test_deterministic(self):
        a = initialize(10, 4, "complex", 6, seed=5)
        b = initialize(10, 4, "complex", 6, seed=5)
        assert np.array_equal(a.entities, b.entities)
        assert np.array_equal(a.relations, b.relations)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_entries_within_bounds(self, kind):
        k = 9
        store = initialize(20, 5, kind, k, seed=6)
        bound = 6.0 / np.sqrt(k)
        assert np.all(np.abs(store.entities) <= bound)
        if kind == "rotate":
            assert np.all(np.abs(store.relations) <= np.pi)
        else:
            assert np.all(np.abs(store.relations) <= bound)

    def test_different_seeds_differ(self):
        a = initialize(50, 10, "transe", 16, seed=1)
        b = initialize(50, 10, "transe", 16, seed=2)
        frac_diff = np.mean(a.entities != b.entities)
        assert frac_diff >= 0.99

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            initialize(0, 1, "transe", 4)

    def test_row_widths(self):
        assert row_widths("transe", 5) == (5, 5)
        assert row_widths("distmult", 5) == (5, 5)
        assert row_widths("complex", 5) == (10, 10)
        assert row_widths("rotate", 5) == (10, 5)


class TestCheckpoint:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip_bitwise(self, tmp_path, kind):
        store = random_store(kind, 7, seed=21)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert loaded.model_kind == kind
        assert loaded.dimension == 7
        assert np.array_equal(loaded.entities, store.entities)
        assert np.array_equal(loaded.relations, store.relations)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    def test_rename_is_synced_through_the_directory(self, tmp_path, monkeypatch):
        """After the replace, the directory is synced, so the rename survives a power loss."""
        path = tmp_path / "model.ckpt"
        synced = []    # (a directory?, the checkpoint in place?) per fsync
        real_fsync = os.fsync

        def spy(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.exists()))
            real_fsync(fd)
        monkeypatch.setattr(os, "fsync", spy)
        save_checkpoint(random_store("transe", 3, seed=25), str(path))
        assert synced == [(False, False), (True, True)]

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        store = random_store("transe", 3, seed=23)
        save_checkpoint(store, path)

        class FailsMidway:
            """Relation table that fails after the header and entities are written."""

            def __len__(self):
                return len(store.relations)

            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        broken = random_store("transe", 3, seed=24)
        broken.relations = FailsMidway()
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(broken, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.entities, store.entities)
        assert np.array_equal(loaded.relations, store.relations)
        assert os.listdir(tmp_path) == ["model.ckpt"]

    @pytest.mark.parametrize("edit", [lambda blob: blob[:20],
                                      lambda blob: blob[:8] + b"\xff" * 16 + blob[24:]],
                             ids=["header_cut", "non_ascii_kind"])
    def test_malformed_header_is_a_value_error_naming_the_file(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_store("transe", 3, seed=22), str(path))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="model.ckpt"):
            load_checkpoint(str(path))

    def test_truncated(self, tmp_path):
        store = random_store("transe", 3, seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, str(path))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(path))

    def test_trailing_bytes_are_not_called_truncated(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_store("transe", 3, seed=22), str(path))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes") as err:
            load_checkpoint(str(path))
        assert "truncated" not in str(err.value)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_id_space_round_trip(self, tmp_path, kind):
        """A store that names its id space writes KGSCKPT2 and loads it back; one that
        does not writes the 48-byte KGSCKPT1 header."""
        store = random_store(kind, 4, seed=25)
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, str(path))
        v1 = path.read_bytes()
        assert v1[:8] == b"KGSCKPT1" and load_checkpoint(str(path)).id_space is None
        store.id_space = bytes(range(32))
        save_checkpoint(store, str(path))
        v2 = path.read_bytes()
        assert v2[:8] == b"KGSCKPT2" and v2[48:80] == store.id_space
        assert v2[8:48] == v1[8:48] and v2[80:] == v1[48:]
        loaded = load_checkpoint(str(path))
        assert loaded.id_space == store.id_space
        assert np.array_equal(loaded.entities, store.entities)
        assert np.array_equal(loaded.relations, store.relations)
        path.write_bytes(v2[:60])
        with pytest.raises(ValueError, match="truncated checkpoint .*header is 80"):
            load_checkpoint(str(path))

    def test_save_and_load_hold_no_second_copy_of_the_tables(self, tmp_path):
        """Under tracemalloc, a save peaks below a tenth of the tables' bytes and a load,
        which returns the tables, below 1.1 times them."""
        rng = np.random.default_rng(27)
        store = EmbeddingStore("distmult", 64, rng.normal(size=(4096, 64)),
                               rng.normal(size=(16, 64)), bytes(range(32)))
        tables = store.entities.nbytes + store.relations.nbytes
        path = str(tmp_path / "model.ckpt")
        peaks = []
        for call in (lambda: save_checkpoint(store, path), lambda: load_checkpoint(path)):
            tracemalloc.start()
            try:
                loaded = call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.1 * tables and peaks[1] < 1.1 * tables
        assert np.array_equal(loaded.entities, store.entities)
        assert np.array_equal(loaded.relations, store.relations)

    def test_id_space_must_be_a_sha256_digest(self):
        store = random_store("distmult", 2, seed=26)
        with pytest.raises(ValueError, match="id_space"):
            EmbeddingStore("distmult", 2, store.entities, store.relations, b"short")
