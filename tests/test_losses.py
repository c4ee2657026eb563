import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsampler import losses, scorers
from kgsampler.graph import from_id_triples, neighbor_entries
from kgsampler.losses import (
    LossConfig,
    NegativeBatch,
    adversarial_weights,
    corrupt_batch,
    log_sigmoid,
    minibatch_loss_and_grads,
    sigmoid,
    neighbors_loss_and_grads,
    softmargin_batch_loss_and_grads,
    softmargin_loss_and_grads,
    vanilla_loss_and_grads,
)
from kgsampler.samplers import Minibatch, SamplerPolicy, sample_minibatch
from kgsampler.scorers import (MODEL_KINDS, EmbeddingStore, initialize, query_rows,
                               query_scores, score, score_gradient)
from kgsampler.synth import random_graph

from conftest import CHI2_CRIT, chi_square, known_triples


def make_batch(rows):
    return Minibatch(positives=np.asarray(rows, dtype=np.int64))


def corrupt(g, t, n: int, filtered: bool, rng) -> list:
    """Negatives for a single positive, invalid entries dropped."""
    batch = corrupt_batch(g, np.asarray(t).reshape(1, 3), n, filtered, rng)
    return [tuple(map(int, row)) for row in batch.triples[0][batch.valid[0]]]


class TestCorrupt:
    def test_two_entity_enumeration(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1)
        rng = np.random.default_rng(0)
        negs = corrupt(g, (0, 0, 1), n=20, filtered=False, rng=rng)
        assert set(negs) <= {(1, 0, 1), (0, 0, 0)}
        assert len(negs) == 20

    def test_filtered_avoids_known_triples(self, small_random_graph):
        g = small_random_graph
        rng = np.random.default_rng(1)
        known = known_triples(g)
        for row in g.train[:20]:
            for neg in corrupt(g, row, n=16, filtered=True, rng=rng):
                assert tuple(neg) not in known

    def test_exactly_one_slot_differs(self, small_random_graph):
        g = small_random_graph
        rng = np.random.default_rng(2)
        batch = corrupt_batch(g, g.train[:10], n=64, filtered=False, rng=rng)
        assert batch.triples.shape == (10, 64, 3)
        for i, pos in enumerate(g.train[:10]):
            for j in range(64):
                neg = batch.triples[i, j]
                assert neg[1] == pos[1]
                if batch.head_corrupted[i, j]:
                    assert neg[0] != pos[0] and neg[2] == pos[2]
                else:
                    assert neg[2] != pos[2] and neg[0] == pos[0]

    def test_retry_exhaustion_warns_and_drops(self, caplog):
        # every corruption of (0,r,1) is itself a known triple
        g = from_id_triples([(0, 0, 1), (1, 0, 1), (0, 0, 0)],
                            n_entities=2, n_relations=1)
        rng = np.random.default_rng(3)
        with caplog.at_level("WARNING"):
            negs = corrupt(g, (0, 0, 1), n=8, filtered=True, rng=rng)
        assert negs == []
        assert any("retries" in r.message for r in caplog.records)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_full_recheck_reference(self, seed):
        """Re-checking only the redrawn entries gives the batch of re-checking all m×n."""
        g = random_graph(60, 2, 6600, seed=seed)   # 93% of the possible triples
        positives = g.train[:200]
        n = 32

        def full_recheck(rng):
            m = len(positives)
            s, r, o = (positives[:, [c]] for c in range(3))
            head = rng.random((m, n)) < 0.5
            original = np.where(head, s, o)

            def draw(shape, orig):
                cand = rng.integers(0, g.n_entities - 1, size=shape)
                return cand + (cand >= orig)

            cand = draw((m, n), original)

            def triples():
                return np.stack([np.where(head, cand, s), np.broadcast_to(r, (m, n)),
                                 np.where(head, o, cand)], axis=2)

            pending = g.contains_triples(triples())
            for _ in range(losses._CORRUPT_RETRIES):
                rows, cols = np.nonzero(pending)
                if len(rows) == 0:
                    break
                cand[rows, cols] = draw((len(rows),), original[rows, cols])
                pending &= g.contains_triples(triples())
            return triples(), head, ~pending

        batch = corrupt_batch(g, positives, n, True, np.random.default_rng(seed))
        triples, head, valid = full_recheck(np.random.default_rng(seed))
        assert batch.triples.dtype == triples.dtype == np.int64
        np.testing.assert_array_equal(batch.triples, triples)
        np.testing.assert_array_equal(batch.head_corrupted, head)
        np.testing.assert_array_equal(batch.valid, valid)
        assert not valid.all()   # some entries exhaust their retries

    def test_single_entity_rejected(self):
        g = from_id_triples([(0, 0, 0)], n_entities=1, n_relations=1)
        with pytest.raises(ValueError):
            corrupt(g, (0, 0, 0), n=2, filtered=False, rng=np.random.default_rng(0))


class TestAdversarialWeights:
    def test_zero_alpha_uniform(self):
        w = adversarial_weights(np.array([3.0, -1.0, 0.5, 9.0]), alpha=0.0)
        np.testing.assert_allclose(w, 0.25)

    def test_hand_computed_pair(self):
        w = adversarial_weights(np.array([0.0, math.log(3)]), alpha=1.0)
        np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-12)

    def test_large_alpha_concentrates(self):
        w = adversarial_weights(np.array([0.0, 5.0, 1.0]), alpha=200.0)
        assert w[1] > 1 - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16),
           st.floats(0, 5.0))
    def test_sums_to_one(self, scores, alpha):
        w = adversarial_weights(np.array(scores), alpha)
        assert abs(w.sum() - 1.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12), st.randoms())
    def test_permutation_equivariant(self, scores, pyrandom):
        scores = np.array(scores)
        perm = np.arange(len(scores))
        pyrandom.shuffle(perm)
        w = adversarial_weights(scores, alpha=0.7)
        w_perm = adversarial_weights(scores[perm], alpha=0.7)
        np.testing.assert_allclose(w_perm, w[perm], atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_mask_restricts_softmax_to_valid(self, alpha):
        scores = np.array([[1.0, 9.0, -2.0, 0.5], [3.0, 1.0, 2.0, 0.0]])
        valid = np.array([[True, False, True, True], [False, False, False, False]])
        w = adversarial_weights(scores, alpha, valid)
        np.testing.assert_array_equal(w[0, 1], 0.0)
        np.testing.assert_allclose(w[0, valid[0]], adversarial_weights(scores[0, valid[0]], alpha),
                                   atol=1e-15)
        np.testing.assert_array_equal(w[1], 0.0)


class TestSoftmarginLoss:
    def test_log2_at_margin(self):
        # all-zero embeddings make every score 0; with margin 0 both terms are log 2
        store = EmbeddingStore("distmult", 2,
                               entities=np.zeros((3, 2)), relations=np.zeros((1, 2)))
        config = LossConfig(margin=0.0, negatives_per_positive=1,
                            adversarial_temperature=0.0)
        loss, _ = softmargin_loss_and_grads(store, (0, 0, 1), [(0, 0, 2)], config)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_saturation_limit(self):
        # positive scores far above margin, negative far below: loss -> 0
        entities = np.array([[100.0, 0.0], [100.0, 0.0], [-100.0, 0.0]])
        store = EmbeddingStore("distmult", 2, entities=entities,
                               relations=np.array([[1.0, 0.0]]))
        config = LossConfig(margin=0.0, negatives_per_positive=1,
                            adversarial_temperature=0.0)
        loss, _ = softmargin_loss_and_grads(store, (0, 0, 1), [(0, 0, 2)], config)
        assert 0 <= loss < 1e-10

    def test_finite_at_extreme_scores(self):
        entities = np.array([[700.0], [1.0], [-700.0]])
        store = EmbeddingStore("transe", 1, entities=entities,
                               relations=np.array([[0.0]]))
        config = LossConfig(margin=1.0, negatives_per_positive=1)
        loss, grads = softmargin_loss_and_grads(store, (0, 0, 2), [(0, 0, 1)], config)
        assert np.isfinite(loss)
        for vec in grads.entities.rows:
            assert np.all(np.isfinite(vec))

    def test_nonnegative(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=0)
        rng = np.random.default_rng(5)
        config = LossConfig(margin=2.0, negatives_per_positive=8)
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=16), np.random.default_rng(1))
        loss, _ = vanilla_loss_and_grads(g, store, m, config, rng)
        assert loss >= 0

    def test_log_sigmoid_stable(self):
        x = np.array([-745.0, -700.0, 0.0, 700.0, 745.0])
        out = log_sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[2] == pytest.approx(-math.log(2))


def fd_loss_check(store, loss_fn, grads, tol=1e-6, h=1e-6):
    """Compare sparse gradients against central differences of loss_fn."""
    for table, rows in (("entities", grads.entities), ("relations", grads.relations)):
        for row_id, analytic in zip(rows.ids, rows.rows):
            base = getattr(store, table)
            numeric = np.empty_like(analytic)
            for i in range(len(analytic)):
                saved = base[row_id, i]
                base[row_id, i] = saved + h
                up = loss_fn(store)
                base[row_id, i] = saved - h
                down = loss_fn(store)
                base[row_id, i] = saved
                numeric[i] = (up - down) / (2 * h)
            err = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))
            assert err < tol, f"{table}[{row_id}]: {analytic} vs {numeric}"


class TestLossGradients:
    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_uniform_negatives_fd(self, kind):
        store = initialize(8, 3, kind, 4, seed=31)
        config = LossConfig(margin=1.0, negatives_per_positive=5,
                            adversarial_temperature=0.0)
        rng = np.random.default_rng(7)
        t = (0, 1, 2)
        negatives = [(3, 1, 2), (4, 1, 2), (0, 1, 5), (0, 1, 6), (7, 1, 2)]
        loss, grads = softmargin_loss_and_grads(store, t, negatives, config)
        fd_loss_check(store,
                      lambda st: softmargin_loss_and_grads(st, t, negatives, config)[0],
                      grads)

    def test_adversarial_fd_with_frozen_weights(self):
        store = initialize(8, 3, "rotate", 4, seed=32)
        config = LossConfig(margin=1.0, negatives_per_positive=4,
                            adversarial_temperature=1.5)
        t = (0, 1, 2)
        negatives = [(3, 1, 2), (4, 1, 2), (0, 1, 5), (0, 1, 6)]
        from kgsampler.scorers import score_triples
        neg_scores = score_triples(store, np.asarray(negatives))
        frozen = adversarial_weights(neg_scores, config.adversarial_temperature)
        loss, grads = softmargin_loss_and_grads(store, t, negatives, config,
                                                frozen_weights=frozen)
        fd_loss_check(
            store,
            lambda st: softmargin_loss_and_grads(st, t, negatives, config,
                                                 frozen_weights=frozen)[0],
            grads)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("block_rows", [losses.BLOCK_ROWS, 5],
                             ids=["default_blocks", "blocks_of_5"])
    def test_batch_rows_equal_per_triple_loop(self, small_random_graph, block_rows, kind,
                                              monkeypatch):
        """Row sums match a loop over triples; zero-weight positives keep their rows.

        With 5-row blocks the 16 positives and 96 negatives span many blocks
        and end mid-block in both the score and the gradient pass.
        """
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, kind, 4, seed=34)
        gamma, n = 1.0, 6
        config = LossConfig(margin=gamma, negatives_per_positive=n,
                            adversarial_temperature=0.0)
        positives = g.train[:16]
        negs = corrupt_batch(g, positives, n, True, np.random.default_rng(8))
        weights = np.linspace(0.0, 1.0, len(positives))
        default_blocks_loss, _ = softmargin_batch_loss_and_grads(
            store, positives, negs, config, entry_weights=weights)
        monkeypatch.setattr(losses, "BLOCK_ROWS", block_rows)
        loss, grads = softmargin_batch_loss_and_grads(store, positives, negs, config,
                                                      entry_weights=weights)
        assert loss == default_blocks_loss

        ref = {"entities": {}, "relations": {}}

        def add(t, coef):
            d = score_gradient(store, t)
            for table, row, vec in (("entities", t[0], d.d_subject),
                                    ("relations", t[1], d.d_relation),
                                    ("entities", t[2], d.d_object)):
                ref[table][int(row)] = ref[table].get(int(row), 0.0) + coef * vec

        for i, t in enumerate(positives):
            add(t, -0.5 * weights[i] / (1.0 + math.exp(score(store, t) - gamma)))
            n_valid = int(negs.valid[i].sum())
            for neg, ok in zip(negs.triples[i], negs.valid[i]):
                coef = 0.5 * weights[i] / n_valid / (1.0 + math.exp(gamma - score(store, neg)))
                if ok and coef != 0.0:
                    add(neg, coef)

        for table in ("entities", "relations"):
            got = getattr(grads, table)
            assert got.ids.tolist() == sorted(ref[table])
            want = np.stack([ref[table][i] for i in sorted(ref[table])])
            np.testing.assert_allclose(got.rows, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

        # all coefficients 0: exactly the positives' rows, all zero
        _, zero = softmargin_batch_loss_and_grads(store, positives, negs, config,
                                                  entry_weights=np.zeros(len(positives)))
        assert zero.entities.ids.tolist() == np.unique(positives[:, [0, 2]]).tolist()
        assert zero.relations.ids.tolist() == np.unique(positives[:, 1]).tolist()
        assert not zero.entities.rows.any() and not zero.relations.rows.any()

    def test_rotate_batch_peak_memory(self):
        """One b=1024, 64-negative, K=64 RotatE batch stays under 128 MB of temporaries.

        Unblocked, the per-row partials of all 66k rows and their temporaries
        peaked near 600 MB.
        """
        n_entities, n_relations, m, n = 14500, 237, 1024, 64
        store = initialize(n_entities, n_relations, "rotate", 64, seed=35)
        rng = np.random.default_rng(9)

        def triples(*shape):
            return np.stack([rng.integers(n_entities, size=shape),
                             rng.integers(n_relations, size=shape),
                             rng.integers(n_entities, size=shape)], axis=-1)

        positives = triples(m)
        negs = NegativeBatch(triples=triples(m, n),
                             head_corrupted=np.zeros((m, n), dtype=bool),
                             valid=np.ones((m, n), dtype=bool))
        config = LossConfig(negatives_per_positive=n, adversarial_temperature=1.0)
        tracemalloc.start()
        try:
            _, grads = softmargin_batch_loss_and_grads(store, positives, negs, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads.entities) > 10000
        assert peak < 128 << 20


def per_row_reference(store, positives, negs, config, frozen_weights=None):
    """Batch loss and gradient rows, one ``score``/``score_gradient`` call per triple.

    Follows the parent rule for touched rows: a positive's rows always, a
    negative's only at a nonzero coefficient.
    """
    gamma = config.margin
    loss = 0.0
    ref = {"entities": {}, "relations": {}}

    def add(t, coef):
        d = score_gradient(store, t)
        for table, row, vec in (("entities", t[0], d.d_subject),
                                ("relations", t[1], d.d_relation),
                                ("entities", t[2], d.d_object)):
            ref[table][int(row)] = ref[table].get(int(row), 0.0) + coef * vec

    for i, t in enumerate(positives):
        neg_scores = np.array([score(store, neg) for neg in negs.triples[i]])
        if frozen_weights is None:
            w = adversarial_weights(neg_scores, config.adversarial_temperature, negs.valid[i])
        else:
            w = np.where(negs.valid[i], frozen_weights[i], 0.0)
        pos_score = score(store, t)
        loss -= 0.5 * (log_sigmoid(pos_score - gamma)
                       + np.sum(w * log_sigmoid(gamma - neg_scores)))
        add(t, -0.5 * sigmoid(gamma - pos_score))
        for neg, wj, sj in zip(negs.triples[i], w, neg_scores):
            coef = 0.5 * wj * sigmoid(sj - gamma)
            if coef != 0.0:
                add(neg, coef)
    return loss, ref


def assert_grads_match(grads, ref):
    for table in ("entities", "relations"):
        got = getattr(grads, table)
        assert got.ids.tolist() == sorted(ref[table])
        want = np.stack([ref[table][i] for i in sorted(ref[table])])
        np.testing.assert_allclose(got.rows, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def query_keys(positives, negs):
    """(side, fixed entity, relation) of every scored row."""
    spo = np.concatenate([positives, negs.triples.reshape(-1, 3)])
    head = np.concatenate([np.zeros(len(positives), dtype=bool),
                           negs.head_corrupted.reshape(-1)])
    return np.stack([head, np.where(head, spo[:, 2], spo[:, 0]), spo[:, 1]], axis=1)


class TestSharedQueryPass:
    """The sorted, blocked (query, candidate) pass against a per-row loop."""

    def straddling(self, store_kind):
        g = random_graph(n_entities=30, n_relations=3, n_triples=200, seed=40)
        store = initialize(g.n_entities, g.n_relations, store_kind, 4, seed=41)
        positives = g.train[:16]
        negs = corrupt_batch(g, positives, 12, True, np.random.default_rng(42))
        return store, positives, negs

    def one_query(self, store_kind):
        # every positive and every negative scores an object against (0, 1)
        rng = np.random.default_rng(43)
        store = initialize(20, 3, store_kind, 4, seed=44)
        positives = np.array([[0, 1, o] for o in (2, 5, 9, 0)])
        triples = np.zeros((4, 7, 3), dtype=np.int64)
        triples[:, :, 1] = 1
        triples[:, :, 2] = rng.integers(20, size=(4, 7))
        negs = NegativeBatch(triples=triples, head_corrupted=np.zeros((4, 7), dtype=bool),
                             valid=np.ones((4, 7), dtype=bool))
        return store, positives, negs

    def no_sharing(self, store_kind):
        rng = np.random.default_rng(45)
        store = initialize(5000, 50, store_kind, 4, seed=46)

        def triples(*shape):
            return np.stack([rng.integers(5000, size=shape), rng.integers(50, size=shape),
                             rng.integers(5000, size=shape)], axis=-1)

        negs = NegativeBatch(triples=triples(8, 6), head_corrupted=rng.random((8, 6)) < 0.5,
                             valid=rng.random((8, 6)) < 0.9)
        return store, triples(8), negs

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("case", ["straddling", "one_query", "no_sharing"])
    def test_matches_per_row_loop(self, kind, case, monkeypatch):
        store, positives, negs = getattr(self, case)(kind)
        keys = query_keys(positives, negs)
        n_queries = len(np.unique(keys, axis=0))
        if case == "straddling":
            # queries of more than 5 rows cross the 5-row block boundaries
            monkeypatch.setattr(losses, "BLOCK_ROWS", 5)
            assert np.unique(keys, axis=0, return_counts=True)[1].max() > 5
        elif case == "one_query":
            assert n_queries == 1
        else:
            assert n_queries == len(keys)
        config = LossConfig(margin=1.0, negatives_per_positive=negs.valid.shape[1],
                            adversarial_temperature=1.0)
        loss, grads = softmargin_batch_loss_and_grads(store, positives, negs, config)
        want_loss, ref = per_row_reference(store, positives, negs, config)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert_grads_match(grads, ref)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_zero_frozen_weights_touch_only_weighted_rows(self, kind):
        """Exact-zero frozen weights leave a negative's rows out of the id sets."""
        store, positives, negs = self.straddling(kind)
        config = LossConfig(margin=1.0, negatives_per_positive=12)
        frozen = np.where(np.arange(12) % 3 == 0, 0.25, 0.0) * np.ones((16, 1))
        frozen[5] = 0.0
        _, grads = softmargin_batch_loss_and_grads(store, positives, negs, config,
                                                   frozen_weights=frozen)
        _, ref = per_row_reference(store, positives, negs, config, frozen_weights=frozen)
        assert_grads_match(grads, ref)
        weighted = negs.triples[(frozen != 0) & negs.valid]
        rows = np.concatenate([positives, weighted])
        assert grads.entities.ids.tolist() == np.unique(rows[:, [0, 2]]).tolist()
        assert grads.relations.ids.tolist() == np.unique(rows[:, 1]).tolist()
        # all weights 0: the positives' rows alone
        _, zero = softmargin_batch_loss_and_grads(store, positives, negs, config,
                                                  frozen_weights=np.zeros((16, 12)))
        assert zero.entities.ids.tolist() == np.unique(positives[:, [0, 2]]).tolist()
        assert zero.relations.ids.tolist() == np.unique(positives[:, 1]).tolist()

    def test_negative_id_raises_before_indexing(self):
        store, positives, negs = self.one_query("rotate")
        negs.triples[2, 3, 2] = -1
        with pytest.raises(IndexError):
            softmargin_batch_loss_and_grads(store, positives, negs, LossConfig())

    def test_scored_and_exhausted_counts(self):
        store, positives, negs = self.no_sharing("transe")
        _, grads = softmargin_batch_loss_and_grads(store, positives, negs, LossConfig())
        assert grads.scored_rows == 8 + negs.valid.sum()
        assert grads.exhausted_negatives == (~negs.valid).sum() > 0


def two_pass_reference(store, positives, negs, config, entry_weights=None,
                       frozen_weights=None, block_rows=1024):
    """The batch loss as two passes over query-sorted blocks of ``block_rows`` rows.

    The score pass scores every row; once the adversarial weights fix every
    coefficient, the gradient pass scores the positives and the negatives
    with a nonzero coefficient again and scatters their partials. Returns
    ``(loss, {table: (ids, rows)})``.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    m, n = negs.valid.shape
    if entry_weights is None:
        entry_weights = np.ones(m)
    gamma = config.margin
    spo = np.concatenate([positives, negs.triples.reshape(-1, 3)])
    head = np.concatenate([np.zeros(m, dtype=bool), negs.head_corrupted.reshape(-1)])
    fixed = np.where(head, spo[:, 2], spo[:, 0])
    cand = np.where(head, spo[:, 0], spo[:, 2])
    rel = spo[:, 1]

    def blocks(rows):
        h, f, r = head[rows], fixed[rows], rel[rows]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (h[1:] != h[:-1]) | (f[1:] != f[:-1]) | (r[1:] != r[:-1])
        n_tail = len(rows) - np.count_nonzero(h)
        for side, lo, hi in ((2, 0, n_tail), (0, n_tail, len(rows))):
            for i in range(lo, hi, block_rows):
                j = min(i + block_rows, hi)
                first = new[i:j].copy()
                first[0] = True
                yield rows[i:j], side, np.flatnonzero(first), np.cumsum(first) - 1

    order = np.lexsort((fixed, rel, head))
    scores = np.empty(len(spo))
    for block, side, starts, group in blocks(order):
        q = query_rows(store, spo[block[starts]], side)[0]
        scores[block] = query_scores(store, q[group], store.entities[cand[block]])[0]
    neg_scores = scores[m:].reshape(m, n)
    if frozen_weights is None:
        weights = adversarial_weights(neg_scores, config.adversarial_temperature, negs.valid)
    else:
        weights = np.where(negs.valid, frozen_weights, 0.0)
    pos_term = log_sigmoid(scores[:m] - gamma)
    neg_term = (weights * log_sigmoid(gamma - neg_scores)).sum(axis=1)
    loss = float(np.dot(entry_weights, -0.5 * (pos_term + neg_term)))

    dpos = entry_weights * (-0.5) * sigmoid(gamma - scores[:m])
    dneg = (entry_weights[:, None] * 0.5 * weights * sigmoid(neg_scores - gamma)).reshape(-1)
    coefs = np.concatenate([dpos, dneg])
    touched = np.concatenate([np.ones(m, dtype=bool), dneg != 0.0])
    rows = order[touched[order]]
    acc = {"entities": np.zeros_like(store.entities),
           "relations": np.zeros_like(store.relations)}
    for block, side, starts, group in blocks(rows):
        firsts = spo[block[starts]]
        q, rows_backward = query_rows(store, firsts, side)
        qb, eb = q[group], store.entities[cand[block]]
        dq, de = query_scores(store, qb, eb, out=qb)[1](coefs[block])
        d_fixed, d_rel = rows_backward(np.add.reduceat(dq, starts, axis=0))
        np.add.at(acc["entities"], cand[block], de)
        np.add.at(acc["entities"], firsts[:, 2 - side], d_fixed)
        np.add.at(acc["relations"], firsts[:, 1], d_rel)
    ids = {"entities": np.unique(np.concatenate([fixed[rows], cand[rows]])),
           "relations": np.unique(rel[rows])}
    return loss, {t: (ids[t], acc[t][ids[t]]) for t in acc}


class TestFusedPass:
    """The one-pass loss against the two-pass reference: the same loss bits and ids."""

    def batch(self, kind, m=12, n=6, seed=50):
        rng = np.random.default_rng(seed)
        g = random_graph(n_entities=40, n_relations=4, n_triples=300, seed=seed)
        store = initialize(g.n_entities, g.n_relations, kind, 4, seed=seed + 1)
        positives = g.train[rng.choice(len(g.train), m, replace=False)]
        negs = corrupt_batch(g, positives, n, True, rng)
        return store, positives, negs

    def check(self, store, positives, negs, config, block_rows, **kw):
        want_loss, want = two_pass_reference(store, positives, negs, config,
                                             block_rows=block_rows, **kw)
        loss, grads = softmargin_batch_loss_and_grads(store, positives, negs, config, **kw)
        assert loss == want_loss
        for table in ("entities", "relations"):
            ids, rows = want[table]
            got = getattr(grads, table)
            assert got.ids.tolist() == ids.tolist()
            np.testing.assert_allclose(got.rows, rows, rtol=1e-12,
                                       atol=1e-12 * np.abs(rows).max())
        return grads

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("block_rows", [losses.BLOCK_ROWS, 5, 16],
                             ids=["default_blocks", "blocks_of_5", "blocks_of_16"])
    def test_entry_weights_with_zeros(self, kind, block_rows, monkeypatch):
        """Blocks of 5 rows hold one positive each, fewer than its n + 1 = 7 rows."""
        monkeypatch.setattr(losses, "BLOCK_ROWS", block_rows)
        store, positives, negs = self.batch(kind)
        config = LossConfig(margin=1.0, negatives_per_positive=6)
        weights = np.where(np.arange(12) % 4 == 1, 0.0, np.linspace(0.5, 2.0, 12))
        grads = self.check(store, positives, negs, config, block_rows, entry_weights=weights)
        assert set(positives[:, [0, 2]].ravel()) <= set(grads.entities.ids.tolist())

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("block_rows", [losses.BLOCK_ROWS, 5, 16],
                             ids=["default_blocks", "blocks_of_5", "blocks_of_16"])
    def test_frozen_weights_with_exact_zeros(self, kind, block_rows, monkeypatch):
        monkeypatch.setattr(losses, "BLOCK_ROWS", block_rows)
        store, positives, negs = self.batch(kind)
        config = LossConfig(margin=1.0, negatives_per_positive=6)
        frozen = np.where(np.arange(6) % 2 == 0, 1 / 3, 0.0) * np.ones((12, 1))
        frozen[3] = 0.0
        self.check(store, positives, negs, config, block_rows, frozen_weights=frozen)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("block_rows", [losses.BLOCK_ROWS, 5, 16],
                             ids=["default_blocks", "blocks_of_5", "blocks_of_16"])
    def test_invalid_negatives(self, kind, block_rows, monkeypatch):
        monkeypatch.setattr(losses, "BLOCK_ROWS", block_rows)
        store, positives, negs = self.batch(kind)
        negs.valid[np.random.default_rng(52).random(negs.valid.shape) < 0.3] = False
        negs.valid[4] = False   # a positive with no valid negative
        config = LossConfig(margin=1.0, negatives_per_positive=6, adversarial_temperature=2.0)
        self.check(store, positives, negs, config, block_rows)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_shared_query_across_blocks(self, kind, monkeypatch):
        """Every row of every positive scores an object against the query (0, 1).

        With 16-row blocks (two positives of 8 rows each) the query spans
        all three blocks, so its gradient is summed in parts.
        """
        monkeypatch.setattr(losses, "BLOCK_ROWS", 16)
        rng = np.random.default_rng(53)
        store = initialize(20, 3, kind, 4, seed=54)
        positives = np.array([[0, 1, o] for o in (2, 5, 9, 0, 7, 11)])
        triples = np.zeros((6, 7, 3), dtype=np.int64)
        triples[:, :, 1] = 1
        triples[:, :, 2] = rng.integers(20, size=(6, 7))
        negs = NegativeBatch(triples=triples, head_corrupted=np.zeros((6, 7), dtype=bool),
                             valid=np.ones((6, 7), dtype=bool))
        config = LossConfig(margin=1.0, negatives_per_positive=7)
        self.check(store, positives, negs, config, 16)

    def test_query_sums_keep_index_order_bitwise(self):
        """Each query's gradient sums its rows in index order: positive, then its negatives.

        Partials built from 1e16, 1 and -1e16 make the sum's bits depend on
        its order, and the 8 queries interleave in the block's key sort, so
        an unstable sort would reorder rows within a query. DistMult with
        subject rows (1, 0), candidate rows (0, v) and relation rows (1, 1)
        scores every row 0: the partials are +-sigmoid(0)/2 times (0, v), and
        the subject's gradient is its query's sum, as ``np.add.reduceat``
        forms it, times (1, 1).
        """
        m, n = 8, 15
        rng = np.random.default_rng(57)
        values = rng.choice([1e16, 1.0, -1e16], size=(m, n + 1))   # positive, then negatives
        entities = np.zeros((m * (n + 2), 2))
        entities[:m, 0] = 1.0                        # subjects 0..m-1
        entities[m:, 1] = values.reshape(-1)         # candidate of row (i, j): m + i(n+1) + j
        store = EmbeddingStore("distmult", 2, entities, np.ones((3, 2)))
        cand = m + np.arange(m * (n + 1)).reshape(m, n + 1)
        rel = rng.integers(3, size=m)
        positives = np.stack([np.arange(m), rel, cand[:, 0]], axis=1)
        triples = np.repeat(positives[:, None], n, axis=1)
        triples[:, :, 2] = cand[:, 1:]
        negs = NegativeBatch(triples=triples, head_corrupted=np.zeros((m, n), dtype=bool),
                             valid=np.ones((m, n), dtype=bool))
        _, grads = softmargin_batch_loss_and_grads(
            store, positives, negs, LossConfig(margin=0.0, negatives_per_positive=n),
            frozen_weights=np.ones((m, n)))
        coef = np.r_[-0.5 * sigmoid(0.0), np.full(n, 0.5 * sigmoid(0.0))]
        for i in range(m):
            want = np.add.reduceat(entities[cand[i]] * coef[:, None], [0], axis=0)[0]
            got = grads.entities.rows[grads.entities.ids.tolist().index(i)]
            assert got.tobytes() == want.tobytes(), i

    def test_candidate_scatter_keeps_block_order_bitwise(self):
        """A candidate drawn by negatives of several queries sums its rows in the
        block's stable sort order: by (relation, subject), then index within a query.

        DistMult with subject rows from 1e16, 1 and -1e16, relation rows (1, 1)
        and candidate rows 0 scores every row 0, so each negative's candidate
        partial is sigmoid(0)/2 times its query row, and the shared candidate's
        gradient is a sum whose bits depend on its order.
        """
        m, n = 12, 6
        rng = np.random.default_rng(58)
        shared = m                                   # the candidate many negatives draw
        entities = np.zeros((m + 1 + m * (n + 1), 2))
        entities[:m] = rng.choice([1e16, 1.0, -1e16], size=(m, 2))   # subjects 0..m-1
        store = EmbeddingStore("distmult", 2, entities, np.ones((3, 2)))
        rel = rng.integers(3, size=m)
        own = m + 1 + np.arange(m * (n + 1)).reshape(m, n + 1)   # distinct zero rows
        positives = np.stack([np.arange(m), rel, own[:, 0]], axis=1)
        triples = np.repeat(positives[:, None], n, axis=1)
        draws = rng.random((m, n)) < 0.5
        triples[:, :, 2] = np.where(draws, shared, own[:, 1:])
        negs = NegativeBatch(triples=triples, head_corrupted=np.zeros((m, n), dtype=bool),
                             valid=np.ones((m, n), dtype=bool))
        _, grads = softmargin_batch_loss_and_grads(
            store, positives, negs, LossConfig(margin=0.0, negatives_per_positive=n),
            frozen_weights=np.ones((m, n)))
        want = np.zeros(2)
        for i in np.lexsort((np.arange(m), rel)):   # the block's queries in key order
            for _ in range(np.count_nonzero(draws[i])):
                want += 0.5 * sigmoid(0.0) * entities[i]
        got = grads.entities.rows[grads.entities.ids.tolist().index(shared)]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block_rows", [losses.BLOCK_ROWS, 14],
                         ids=["one_block", "blocks_of_2_positives"])
def test_rotate_trig_once_per_block(block_rows, monkeypatch):
    """A RotatE loss call takes each block's cos/sin once, for its scores and its gradients."""
    monkeypatch.setattr(losses, "BLOCK_ROWS", block_rows)
    calls, rotations = [], scorers._rotations
    monkeypatch.setattr(scorers, "_rotations", lambda *a: calls.append(a) or rotations(*a))
    rng = np.random.default_rng(55)
    g = random_graph(n_entities=40, n_relations=4, n_triples=300, seed=55)
    store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=56)
    positives = g.train[rng.choice(len(g.train), 12, replace=False)]
    negs = corrupt_batch(g, positives, 6, True, rng)
    softmargin_batch_loss_and_grads(store, positives, negs, LossConfig(negatives_per_positive=6))
    per = max(1, block_rows // 7)   # positives per block, each with 7 rows
    assert len(calls) == -(-12 // per)


class TestNeighborsLoss:
    def chain(self):
        # 0 -r- 1 -r- 2: the two triples are mutual neighbors
        return from_id_triples([(0, 0, 1), (1, 0, 2)], n_entities=3, n_relations=1)

    def test_isolated_positive_reduces_to_vanilla(self):
        g = from_id_triples([(0, 0, 1), (2, 0, 3)], n_entities=4, n_relations=1)
        store = initialize(4, 1, "distmult", 4, seed=33)
        config = LossConfig(margin=1.0, negatives_per_positive=4,
                            adversarial_temperature=0.0, filtered_negatives=False,
                            neighbors_loss_enabled=True)
        m = make_batch([(0, 0, 1)])
        seed = 9
        nl, _ = neighbors_loss_and_grads(g, store, m, config, np.random.default_rng(seed))
        # (0,0,1) has no neighbors, so the same rng stream yields the same negatives
        vl, _ = vanilla_loss_and_grads(g, store, m, config, np.random.default_rng(seed))
        assert nl == pytest.approx(vl, abs=1e-15)

    def test_single_neighbor_hand_expansion(self):
        g = self.chain()
        store = initialize(3, 1, "transe", 3, seed=34)
        n = 4
        config = LossConfig(margin=0.5, negatives_per_positive=n,
                            adversarial_temperature=0.0, filtered_negatives=False,
                            neighbors_loss_enabled=True)
        seed = 11
        m = make_batch([(0, 0, 1)])
        got, _ = neighbors_loss_and_grads(g, store, m, config,
                                          np.random.default_rng(seed))

        # oracle: replay the corruption stream, then evaluate the formula with
        # plain scalar arithmetic
        entries = np.array([[0, 0, 1], [1, 0, 2]])
        negs = corrupt_batch(g, entries, n, False, np.random.default_rng(seed))

        def logsig(x):
            return -math.log1p(math.exp(-x)) if x > 0 else x - math.log1p(math.exp(x))

        def pair(pos, neg_rows):
            pos_part = logsig(score(store, pos) - config.margin)
            neg_part = sum(logsig(config.margin - score(store, r)) for r in neg_rows) / n
            return -0.5 * (pos_part + neg_part)

        expected = 0.5 * pair(entries[0], negs.triples[0]) \
            + 0.5 * pair(entries[1], negs.triples[1])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_cap_zero_equals_vanilla(self):
        g = random_graph(n_entities=40, n_relations=3, n_triples=300, seed=6)
        store = initialize(g.n_entities, g.n_relations, "complex", 4, seed=35)
        base = dict(margin=2.0, negatives_per_positive=8,
                    adversarial_temperature=1.0, filtered_negatives=True)
        nl_config = LossConfig(neighbors_loss_enabled=True, neighbor_cap=0, **base)
        v_config = LossConfig(neighbors_loss_enabled=False, **base)
        for seed in range(10):
            m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=20),
                                 np.random.default_rng(seed))
            nl, _ = neighbors_loss_and_grads(g, store, m, nl_config,
                                             np.random.default_rng(seed))
            vl, _ = vanilla_loss_and_grads(g, store, m, v_config,
                                           np.random.default_rng(seed))
            assert nl == pytest.approx(vl, abs=1e-12)

    def test_cap_subsamples_neighbors(self, star6):
        store = initialize(7, 1, "distmult", 2, seed=36)
        config = LossConfig(margin=1.0, negatives_per_positive=2,
                            adversarial_temperature=0.0, filtered_negatives=False,
                            neighbors_loss_enabled=True, neighbor_cap=2)
        m = make_batch([(0, 0, 1)])
        # spoke (0,0,1) has 5 neighbors; the cap keeps 2 and the normalizer
        # uses the post-cap count 1/(1+2)
        rng = np.random.default_rng(12)
        entries, weights = neighbor_entries(star6, m.positives, 2, rng)
        assert entries[0].tolist() == [0, 0, 1]
        spokes = set(entries[1:, 2].tolist())
        assert len(entries) == 3 and len(spokes) == 2 and spokes <= set(range(2, 7))
        assert np.all(entries[1:, :2] == 0)
        assert np.all(weights == 1.0 / 3.0)
        # the loss scores exactly these entries, and its negatives follow the draw
        negs = corrupt_batch(star6, entries, 2, False, rng)
        want, _ = softmargin_batch_loss_and_grads(store, entries, negs, config,
                                                  entry_weights=weights)
        loss, _ = neighbors_loss_and_grads(star6, store, m, config, np.random.default_rng(12))
        assert np.isfinite(loss) and loss == want

    def test_capped_subsets_are_uniform(self, star6):
        # 2 of the spoke's 5 neighbors: 10 possible subsets
        counts = dict.fromkeys(itertools.combinations(range(2, 7), 2), 0)
        rng = np.random.default_rng(3)
        for _ in range(2000):
            entries, _ = neighbor_entries(star6, [(0, 0, 1)], 2, rng)
            counts[tuple(entries[1:, 2].tolist())] += 1
        assert chi_square(list(counts.values())) < CHI2_CRIT[9]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_adversarial_temperature_rejected(self, value):
        with pytest.raises(ValueError, match="adversarial_temperature"):
            LossConfig(adversarial_temperature=value)

    def test_negative_cap_rejected_none_unlimited(self):
        with pytest.raises(ValueError, match="neighbor_cap"):
            LossConfig(neighbor_cap=-1)
        with pytest.raises(ValueError, match="neighbor_cap"):
            LossConfig(neighbor_cap=None)

    def test_gradients_fd(self):
        g = self.chain()
        store = initialize(3, 1, "distmult", 3, seed=37)
        config = LossConfig(margin=0.5, negatives_per_positive=3,
                            adversarial_temperature=0.0, filtered_negatives=False,
                            neighbors_loss_enabled=True)
        m = make_batch([(0, 0, 1)])
        seed = 21
        loss, grads = neighbors_loss_and_grads(g, store, m, config,
                                               np.random.default_rng(seed))
        # identical reseeding reproduces identical negatives at every FD point
        fd_loss_check(
            store,
            lambda st: neighbors_loss_and_grads(g, st, m, config,
                                                np.random.default_rng(seed))[0],
            grads)

    def test_dispatch(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "transe", 4, seed=38)
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=8), np.random.default_rng(2))
        cfg_on = LossConfig(neighbors_loss_enabled=True, negatives_per_positive=2,
                            filtered_negatives=False)
        cfg_off = LossConfig(neighbors_loss_enabled=False, negatives_per_positive=2,
                             filtered_negatives=False)
        l1, _ = minibatch_loss_and_grads(g, store, m, cfg_on, np.random.default_rng(0))
        l2, _ = minibatch_loss_and_grads(g, store, m, cfg_off, np.random.default_rng(0))
        assert np.isfinite(l1) and np.isfinite(l2)
