import tracemalloc

import numpy as np
import pytest

from kgsampler import evaluation
from kgsampler.evaluation import (
    Metrics,
    evaluate_split,
    metrics_from_ranks,
    rank_triple,
)
from kgsampler.graph import from_id_triples
from kgsampler.scorers import EmbeddingStore, initialize, score_triples
from kgsampler.synth import random_graph

from conftest import known_triples


def oracle_rank_triple(g, store, t, protocol, known=None):
    """Rank by comparing the target's score with every candidate's, one by one.

    Each side's candidates are scored in one ``score_triples`` call; rows
    are scored independently (``test_score_triples_rows_are_independent``),
    so each score has the bytes of its own one-row call. ``known`` is
    ``known_triples(g)``, computed here when not given.
    """
    s, r, o = (int(x) for x in t)
    filt = protocol == "filtered"
    known = known_triples(g) if known is None else known
    ranks = []
    for target, cands in ((s, [(c, r, o) for c in range(g.n_entities)]),
                          (o, [(s, r, c) for c in range(g.n_entities)])):
        scores = score_triples(store, np.asarray(cands, dtype=np.int64)).tolist()
        ranks.append(1 + sum(scores[c] >= scores[target] for c in range(g.n_entities)
                             if c != target and not (filt and cands[c] in known)))
    return ranks[0], ranks[1]  # head, tail


def scores_store(scores, shift=0.0):
    """A DistMult store whose triple (t, 0, t) scores E[t]·E[c] + shift against candidate c.

    Entity c's row is (scores[c], 1) and the relation is (1, shift), so with
    a positive target value both sides rank the target as ``scores`` does.
    """
    scores = np.asarray(scores, dtype=np.float64)
    entities = np.stack([scores, np.ones_like(scores)], axis=1)
    return EmbeddingStore("distmult", 2, entities=entities, relations=np.array([[1.0, shift]]))


def self_loop_ranks(scores, target, protocol="raw", known=(), shift=0.0):
    g = from_id_triples(list(known) + [(target, 0, target)], n_entities=len(scores),
                        n_relations=1)
    res = rank_triple(g, scores_store(scores, shift), (target, 0, target), protocol)
    return res.head_rank, res.tail_rank


class TestRankFromScores:
    def test_strict_top_is_rank_one(self):
        assert self_loop_ranks([0.1, 0.2, 5.0, 0.3], target=2) == (1, 1)

    def test_hand_counted_exceeders(self):
        # target scores 3.0; one candidate above it
        assert self_loop_ranks([3.0, 4.0, 2.0, 1.0, 0.5], target=0) == (2, 2)

    def test_filtering_removes_exceeder(self):
        # (0, 0, 1) and (1, 0, 0) are known: candidate 1 is filtered on both sides
        assert self_loop_ranks([3.0, 4.0, 2.0, 1.0, 0.5], target=0, protocol="filtered",
                               known=[(0, 0, 1), (1, 0, 0)]) == (1, 1)

    def test_ties_count_against_target(self):
        assert self_loop_ranks([1.0, 1.0, 1.0], target=0) == (3, 3)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=50)
        assert self_loop_ranks(scores, target=7) == self_loop_ranks(scores, target=7,
                                                                    shift=123.456)


class TestRankTriple:
    def test_perfect_single_triple(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1)
        store = EmbeddingStore("transe", 2,
                               entities=np.array([[0.0, 0.0], [1.0, 1.0]]),
                               relations=np.array([[1.0, 1.0]]))
        res = rank_triple(g, store, (0, 0, 1), "raw")
        assert res.head_rank == 1 and res.tail_rank == 1

    @pytest.mark.parametrize("protocol", ["raw", "filtered"])
    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_matches_brute_force_oracle(self, kind, protocol):
        g = random_graph(n_entities=50, n_relations=4, n_triples=300, seed=3,
                         holdout_fraction=0.2)
        store = initialize(g.n_entities, g.n_relations, kind, 6, seed=17)
        for t in g.test[:20]:
            got = rank_triple(g, store, t, protocol)
            head, tail = oracle_rank_triple(g, store, t, protocol)
            assert (got.head_rank, got.tail_rank) == (head, tail)

    def test_filtered_never_worse_than_raw(self):
        g = random_graph(n_entities=50, n_relations=4, n_triples=300, seed=4,
                         holdout_fraction=0.2)
        store = initialize(g.n_entities, g.n_relations, "distmult", 6, seed=18)
        for t in g.test:
            raw = rank_triple(g, store, t, "raw")
            filt = rank_triple(g, store, t, "filtered")
            assert filt.head_rank <= raw.head_rank
            assert filt.tail_rank <= raw.tail_rank

    def test_unknown_protocol(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1)
        store = initialize(2, 1, "transe", 2, seed=0)
        with pytest.raises(ValueError):
            rank_triple(g, store, (0, 0, 1), "bogus")


def planted_ties(kind, n_triples, scale=1.0, nonfinite=False):
    """A graph whose test triples' endpoints have exact and one-ulp copies.

    Every endpoint of the first ``n_triples`` test triples is copied onto two
    other entities exactly and onto 14 more with one entry moved one ulp up
    or down, so each ranking meets ties and near-ties that the screen cannot
    separate. ``scale`` multiplies every entity row; ``nonfinite`` puts inf
    and nan into two candidate rows and inf into one target's object.
    """
    g = random_graph(2000, 20, 20000, seed=2, holdout_fraction=0.01)
    store = initialize(g.n_entities, g.n_relations, kind, 32, seed=5)
    ent = store.entities * scale
    test = g.test[:n_triples]
    rng = np.random.default_rng(9)
    spare = iter(rng.permutation(np.setdiff1d(np.arange(g.n_entities), test[:, [0, 2]])))
    for s, _, o in test:
        for src in (s, o):
            for step in (0.0, 0.0) + (np.inf, -np.inf) * 7:
                dst = next(spare)
                ent[dst] = ent[src]
                if step:
                    j = rng.integers(ent.shape[1])
                    ent[dst, j] = np.nextafter(ent[dst, j], step)
    if nonfinite:
        ent[next(spare), 3] = np.inf
        ent[next(spare), 1] = np.nan
        ent[test[-1, 2], 0] = np.inf
    return g, EmbeddingStore(kind, 32, ent, store.relations), test


class TestExactRanks:
    """Ranks equal the per-candidate oracle where screen values tie or nearly tie."""

    @pytest.mark.parametrize("variant, n_triples", [("plain", 16), ("scaled", 6),
                                                    ("nonfinite", 6)])
    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_planted_ties_match_oracle(self, kind, variant, n_triples):
        g, store, test = planted_ties(kind, n_triples, scale=1e6 if variant == "scaled" else 1.0,
                                      nonfinite=variant == "nonfinite")
        known = known_triples(g)
        with np.errstate(invalid="ignore", over="ignore"):
            for protocol in ("raw", "filtered"):
                got = [(res.head_rank, res.tail_rank) for res in
                       (rank_triple(g, store, t, protocol) for t in test)]
                want = [oracle_rank_triple(g, store, t, protocol, known) for t in test]
                assert got == want, protocol
                flat = [rank for pair in want for rank in pair]
                assert evaluate_split(g, store, test, protocol) == metrics_from_ranks(flat, protocol)

    def test_block_peak_memory(self):
        """Blocks free their screens: the two-sided screen (two QUERY_BLOCK x E arrays)
        plus its boolean masks at most."""
        g = random_graph(4000, 20, 20000, seed=3, holdout_fraction=0.02)
        store = initialize(g.n_entities, g.n_relations, "rotate", 32, seed=6)
        test = g.test[:2 * evaluation.QUERY_BLOCK + 1]   # three blocks
        assert len(test) == 2 * evaluation.QUERY_BLOCK + 1
        evaluate_split(g, store, test, "filtered")
        tracemalloc.start()
        try:
            evaluate_split(g, store, test, "filtered")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_array = evaluation.QUERY_BLOCK * g.n_entities * 8
        assert peak < 3 * block_array

    @pytest.mark.parametrize("kind", ["rotate", "distmult"])
    def test_tied_store_band_peak_memory(self, kind):
        """Every entity row equal: every score ties, so each side's band is its whole screen.

        The bands are re-scored a side and ``scorers.BLOCK_ROWS`` rows at a
        time: the peak stays O(QUERY_BLOCK x E), under 32 MB, where one call
        for both sides' bands peaked at 383 MB (RotatE) and 148 MB (DistMult).
        """
        g = random_graph(3000, 20, 30000, seed=7, holdout_fraction=0.02)
        store = initialize(g.n_entities, g.n_relations, kind, 64, seed=8)
        store.entities[:] = store.entities[0]
        test = g.test[:16]
        tracemalloc.start()
        try:
            got = evaluate_split(g, store, test, "filtered")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        known = known_triples(g)
        want = [oracle_rank_triple(g, store, t, "filtered", known) for t in test]
        assert [(res.head_rank, res.tail_rank) for res in
                (rank_triple(g, store, t) for t in test)] == want
        assert got == metrics_from_ranks([rank for pair in want for rank in pair], "filtered")
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_small_query_ties_match_oracle(self, kind):
        """Tail-side query rows of norm ~1e-12 meet an exact copy of every target's object.

        Entity 2i + 1 copies entity 2i, and the subject's row (and TransE's
        relation row) is near zero, so each screen value is about ||o||²,
        within a few ulps of the target's squared distance. Only the entity
        norms' share of the per-row bound keeps the copies in the band: the
        query norm's alone misplaces some of them.
        """
        g = random_graph(400, 4, 4000, seed=14, holdout_fraction=0.1)
        store = initialize(g.n_entities, g.n_relations, kind, 256, seed=23)
        store.entities[0] *= 1e-12
        store.entities[1::2] = store.entities[0::2]
        if kind == "transe":
            store.relations[0] = 0.0
        test = np.array([(0, 0, o) for o in range(2, g.n_entities, 4)])
        want = [oracle_rank_triple(g, store, t, "raw", set()) for t in test]
        got = evaluate_split(g, store, test, "raw")
        assert got == metrics_from_ranks([rank for pair in want for rank in pair], "raw")

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_nonfinite_entity_band_is_its_column(self, kind, monkeypatch):
        """One entity row holding inf joins the band in its own column only.

        The per-row bound uses the largest finite entity norm, so the band
        is that column in every (triple, side) row plus the 16 planted
        copies of each ranked endpoint, not every candidate.
        """
        g, store, test = planted_ties(kind, 6)
        loose = np.setdiff1d(np.arange(g.n_entities), test[:, [0, 2]])[0]
        store.entities[loose, 3] = np.inf
        rescored = []

        def counting(store, spo):
            rescored.append(np.array(spo))
            return score_triples(store, spo)

        monkeypatch.setattr(evaluation, "score_triples", counting)
        with np.errstate(invalid="ignore", over="ignore"):
            head, tail = evaluation._rank_block(g, store, test, False,
                                                evaluation._entity_stats(store))
        band = np.concatenate(rescored[1:])   # the first call scores the targets
        assert len(band) <= 2 * len(test) * (1 + 16)
        assert np.count_nonzero(band[:, 0] == loose) == len(test)
        assert np.count_nonzero(band[:, 2] == loose) == len(test)
        want = [oracle_rank_triple(g, store, t, "raw") for t in test]
        assert list(zip(head.tolist(), tail.tolist())) == want


class TestBlockQueries:
    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_shared_pairs_match_oracle(self, kind):
        """A block whose triples share (s, r) and (r, o) pairs, and repeat, ranks as the oracle."""
        g = random_graph(n_entities=30, n_relations=2, n_triples=300, seed=12,
                         holdout_fraction=0.1)
        store = initialize(g.n_entities, g.n_relations, kind, 6, seed=22)
        rng = np.random.default_rng(13)
        block = np.stack([rng.integers(0, 4, 24), rng.integers(0, 2, 24),
                          rng.integers(0, 4, 24)], axis=1)
        block = np.concatenate([block, g.test[:8]])
        assert len(np.unique(block[:, :2], axis=0)) < len(block) // 2
        assert len(np.unique(block[:, 1:], axis=0)) < len(block) // 2
        known = known_triples(g)
        stats = evaluation._entity_stats(store)
        for protocol in ("raw", "filtered"):
            head, tail = evaluation._rank_block(g, store, block, protocol == "filtered", stats)
            want = [oracle_rank_triple(g, store, t, protocol, known) for t in block]
            assert list(zip(head.tolist(), tail.tolist())) == want, protocol


class TestRankSplit:
    """``rank_split`` is the one rank path: its rows are the oracle's ranks, in split order."""

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_matches_brute_force_oracle_across_blocks(self, kind, monkeypatch):
        g = random_graph(n_entities=50, n_relations=4, n_triples=300, seed=3,
                         holdout_fraction=0.2)
        store = initialize(g.n_entities, g.n_relations, kind, 6, seed=17)
        monkeypatch.setattr(evaluation, "QUERY_BLOCK", 7)   # ragged blocks of a 60-row split
        known = known_triples(g)
        for protocol in ("raw", "filtered"):
            got = evaluation.rank_split(g, store, "test", protocol)
            assert got.dtype == np.int64 and got.shape == (len(g.test), 2)
            want = [oracle_rank_triple(g, store, t, protocol, known) for t in g.test]
            assert [tuple(row) for row in got.tolist()] == want, protocol
            assert np.array_equal(evaluation.rank_split(g, store, g.test, protocol), got)
            assert evaluate_split(g, store, "test", protocol) == metrics_from_ranks(
                got.reshape(-1), protocol)

    @pytest.mark.parametrize("variant", ["plain", "nonfinite"])
    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_planted_ties_match_oracle(self, kind, variant):
        g, store, test = planted_ties(kind, 6, nonfinite=variant == "nonfinite")
        known = known_triples(g)
        with np.errstate(invalid="ignore", over="ignore"):
            for protocol in ("raw", "filtered"):
                got = evaluation.rank_split(g, store, test, protocol).tolist()
                want = [oracle_rank_triple(g, store, t, protocol, known) for t in test]
                assert [tuple(row) for row in got] == want, protocol

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_tied_store_matches_oracle(self, kind):
        """Every entity row equal, so every candidate ties and sits in the band."""
        g = random_graph(600, 8, 6000, seed=7, holdout_fraction=0.02)
        store = initialize(g.n_entities, g.n_relations, kind, 16, seed=8)
        store.entities[:] = store.entities[0]
        test = g.test[:12]
        known = known_triples(g)
        for protocol in ("raw", "filtered"):
            got = evaluation.rank_split(g, store, test, protocol).tolist()
            want = [oracle_rank_triple(g, store, t, protocol, known) for t in test]
            assert [tuple(row) for row in got] == want, protocol

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex", "rotate"])
    def test_rank_triple_is_its_one_row_case(self, kind):
        g = random_graph(n_entities=40, n_relations=3, n_triples=200, seed=6,
                         holdout_fraction=0.2)
        store = initialize(g.n_entities, g.n_relations, kind, 4, seed=20)
        for protocol in ("raw", "filtered"):
            for t in g.test[:10]:
                head, tail = evaluation.rank_split(g, store, [t], protocol)[0].tolist()
                res = rank_triple(g, store, t, protocol)
                assert res == evaluation.RankResult(tuple(t.tolist()), head, tail, protocol)
                assert all(type(x) is int for x in (*res.triple, res.head_rank, res.tail_rank))

    def test_empty_split_has_no_rows(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1)
        store = initialize(2, 1, "transe", 2, seed=0)
        ranks = evaluation.rank_split(g, store, "test")
        assert ranks.shape == (0, 2) and ranks.dtype == np.int64

    def test_unknown_protocol(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1, test=[(0, 0, 1)])
        store = initialize(2, 1, "transe", 2, seed=0)
        with pytest.raises(ValueError, match="protocol"):
            evaluation.rank_split(g, store, "test", "bogus")


class TestEvaluateSplit:
    def test_perfect_model_metrics(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1,
                            test=[(0, 0, 1)])
        store = EmbeddingStore("transe", 2,
                               entities=np.array([[0.0, 0.0], [1.0, 1.0]]),
                               relations=np.array([[1.0, 1.0]]))
        metrics = evaluate_split(g, store, "test", "raw")
        assert metrics.mrr == 1.0
        assert metrics.mr == 1.0
        assert all(v == 1.0 for v in metrics.hits_at.values())
        assert metrics.count == 2

    def test_matches_oracle_on_random_graph(self):
        g = random_graph(n_entities=50, n_relations=3, n_triples=250, seed=5,
                         holdout_fraction=0.2)
        store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=19)
        for protocol in ("raw", "filtered"):
            metrics = evaluate_split(g, store, "test", protocol)
            ranks = []
            for t in g.test:
                head, tail = oracle_rank_triple(g, store, t, protocol)
                ranks.extend([head, tail])
            oracle = metrics_from_ranks(ranks, protocol)
            assert metrics.mrr == pytest.approx(oracle.mrr, abs=1e-15)
            assert metrics.mr == pytest.approx(oracle.mr, abs=1e-15)
            assert metrics.hits_at == oracle.hits_at

    def test_order_invariance(self):
        g = random_graph(n_entities=40, n_relations=3, n_triples=200, seed=6,
                         holdout_fraction=0.2)
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=20)
        m1 = evaluate_split(g, store, g.test, "filtered")
        m2 = evaluate_split(g, store, g.test[::-1], "filtered")
        assert m1.mrr == m2.mrr and m1.mr == m2.mr

    def test_empty_split_rejected(self):
        g = from_id_triples([(0, 0, 1)], n_entities=2, n_relations=1)
        store = initialize(2, 1, "transe", 2, seed=0)
        with pytest.raises(ValueError):
            evaluate_split(g, store, "test")

    def test_random_embeddings_match_order_statistics(self):
        # for random scores the target's raw rank is uniform on 1..|E|, so
        # MRR approaches H(|E|)/|E|
        n = 1000
        g = random_graph(n_entities=n, n_relations=2, n_triples=2000, seed=7,
                         holdout_fraction=0.1)
        store = initialize(g.n_entities, g.n_relations, "distmult", 8, seed=21)
        metrics = evaluate_split(g, store, "test", "raw")
        expected = (np.log(n) + 0.5772156649) / n
        recip = []
        for t in g.test:
            res = rank_triple(g, store, t, "raw")
            recip.extend([1.0 / res.head_rank, 1.0 / res.tail_rank])
        se = np.std(recip, ddof=1) / np.sqrt(len(recip))
        assert abs(metrics.mrr - expected) < 3 * se


class TestMetricsInvariants:
    def test_hits_monotone_and_mrr_bound(self):
        rng = np.random.default_rng(8)
        ranks = rng.integers(1, 200, size=500)
        m = metrics_from_ranks(ranks, "raw")
        assert m.hits_at[1] <= m.hits_at[3] <= m.hits_at[10]
        assert m.mrr >= m.hits_at[1] / 1.0

    def test_serialization(self):
        m = Metrics(mrr=0.5, mr=3.0, hits_at={1: 0.2, 3: 0.5, 10: 0.9},
                    count=10, protocol="filtered")
        line = m.as_json_line()
        assert '"mrr": 0.5' in line and '"protocol": "filtered"' in line
