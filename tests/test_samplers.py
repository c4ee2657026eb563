import hashlib
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsampler import samplers
from kgsampler.graph import KnowledgeGraph, from_id_triples
from kgsampler.samplers import (
    SAMPLER_KINDS,
    SamplerPolicy,
    batches_per_epoch,
    epoch_iterator,
    sample_minibatch,
    to_dot,
)
from kgsampler.synth import random_graph

from conftest import CHI2_CRIT, chi_square, induced_rows


def as_set(positives):
    return {tuple(map(int, row)) for row in positives}


class TestSimplyRandom:
    def test_full_batch_is_train_split(self, small_random_graph):
        g = small_random_graph
        policy = SamplerPolicy(kind="sr", batch_size=g.n_train, seed=1)
        m = sample_minibatch(g, policy)
        assert as_set(m.positives) == as_set(g.train)

    def test_small_batch_distinct_and_contained(self, small_random_graph):
        g = small_random_graph
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=3, seed=2))
        assert len(m) == 3
        assert len(as_set(m.positives)) == 3
        assert as_set(m.positives) <= as_set(g.train)

    def test_clamp_with_warning(self, chain3, caplog):
        with caplog.at_level("WARNING"):
            m = sample_minibatch(chain3, SamplerPolicy(kind="sr", batch_size=50, seed=0))
        assert len(m) == chain3.n_train
        assert any("clamp" in r.message for r in caplog.records)

    def test_empty_graph_rejected(self):
        g = from_id_triples([], n_entities=1, n_relations=1)
        with pytest.raises(ValueError):
            sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=1))


class TestRandomWalk:
    def test_path_graph_chain_order(self, path5):
        policy = SamplerPolicy(kind="rw", batch_size=4, seed=0)
        m = sample_minibatch(path5, policy, start_entity=0)
        assert m.positives.tolist() == [[0, 0, 1], [1, 0, 2], [2, 0, 3], [3, 0, 4]]
        assert m.restarts == 0

    def test_single_step(self, star6):
        m = sample_minibatch(star6, SamplerPolicy(kind="rw", batch_size=1, seed=3),
                             start_entity=0)
        assert len(m) == 1
        s, _, o = m.positives[0]
        assert 0 in (s, o)

    def test_connected_without_stall(self):
        g = random_graph(n_entities=40, n_relations=2, n_triples=300, seed=5)
        m = sample_minibatch(g, SamplerPolicy(kind="rw", batch_size=30, seed=9))
        assert m.restarts == 0
        # walk triples form one weakly connected component
        verts = m.vertex_set
        index = {v: i for i, v in enumerate(verts)}
        parent = list(range(len(verts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for s, _, o in m.positives:
            a, b = find(index[s]), find(index[o])
            parent[a] = b
        assert len({find(i) for i in range(len(verts))}) == 1

    def test_containment(self, small_random_graph):
        g = small_random_graph
        m = sample_minibatch(g, SamplerPolicy(kind="rw", batch_size=20, seed=11))
        assert as_set(m.positives) <= as_set(g.train)
        assert len(as_set(m.positives)) == len(m)


class TestWalkStep:
    @pytest.mark.parametrize("tries", [None, 0], ids=["rejection", "fallback"])
    def test_pick_is_uniform_over_open_triples(self, star6, monkeypatch, tries):
        # With p = 1 every step starts at the hub, so the walk's picks are
        # draws without replacement among the hub's spokes: picks 4 and 5 of
        # a 5-step walk must be uniform over the 30 ordered spoke pairs.
        # Pick 5 has 2 open slots of 6, so the rejection branch misses often.
        if tries is not None:
            monkeypatch.setattr(samplers, "_WALK_TRIES", tries)
        pairs = list(itertools.permutations(range(1, 7), 2))
        counts = dict.fromkeys(pairs, 0)
        for seed in range(3000):
            policy = SamplerPolicy(kind="rwr", batch_size=5, restart_probability=1.0,
                                   restart_target="start_node", seed=seed)
            m = sample_minibatch(star6, policy, start_entity=0)
            assert m.restarts == 0
            assert len(as_set(m.positives)) == 5
            counts[int(m.positives[3, 2]), int(m.positives[4, 2])] += 1
        assert chi_square(list(counts.values())) < CHI2_CRIT[29]

    def test_fallback_walk_equals_itself_and_stays_valid(self, small_random_graph, monkeypatch):
        monkeypatch.setattr(samplers, "_WALK_TRIES", 0)
        g = small_random_graph
        policy = SamplerPolicy(kind="rw", batch_size=60, seed=12)
        m = sample_minibatch(g, policy)
        assert np.array_equal(m.positives, sample_minibatch(g, policy).positives)
        assert len(as_set(m.positives)) == 60
        assert as_set(m.positives) <= as_set(g.train)

    @pytest.mark.parametrize("kind", ["rw", "rwr", "rwisg", "rwisg_n"])
    def test_deterministic_beyond_one_uniform_chunk(self, kind, monkeypatch):
        g = random_graph(n_entities=200, n_relations=3, n_triples=3000, seed=8)
        b = samplers._UNIFORM_CHUNK + 500
        policy = SamplerPolicy(kind=kind, batch_size=b, seed=4)
        first = [m.positives for m in itertools.islice(epoch_iterator(g, policy), 2)]
        again = [m.positives for m in itertools.islice(epoch_iterator(g, policy), 2)]
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        assert len(first[0]) >= b
        # uniforms are consumed one by one, so a walk's triples do not depend
        # on the chunk they arrive in
        monkeypatch.setattr(samplers, "_UNIFORM_CHUNK", 7)
        order, _, _ = samplers._random_walk(g, b, np.random.default_rng(3))
        monkeypatch.undo()
        assert np.array_equal(order, samplers._random_walk(g, b, np.random.default_rng(3))[0])


GOLDEN_BATCHES, GOLDEN_WALKS = [1, 64, 1024], [None, 0, 7]


def loops_graph():
    """Self-loops, three components and an isolated entity 7: walks from 7
    stall at once, and b = 64 or 1024 is clamped to the 12 train triples."""
    triples = [(0, 0, 0), (0, 0, 1), (1, 0, 2), (2, 1, 2), (2, 0, 3), (3, 1, 0),
               (4, 0, 5), (5, 1, 5), (5, 0, 6), (6, 1, 4), (8, 0, 9), (9, 1, 9)]
    return from_id_triples(triples, n_entities=10, n_relations=2)


def sparse_graph():
    """20 of 2000 entities hold triples, so fresh starts often miss 200 draws
    and take the exact pick among the open vertices."""
    ring = [(i, 0, (i + 1) % 20) for i in range(20)]
    chords = [(i, 1, (7 * i + 3) % 20) for i in range(20) if (7 * i + 3) % 20 != i]
    return from_id_triples(ring + chords, n_entities=2000, n_relations=2)


class TestGoldenStream:
    """sha256 of every walk kind's output over a fixed grid of seeds, batch
    sizes and starts. A change to the walk that keeps its random stream keeps
    these digests; one that changes the stream must say so and re-record them."""

    GRAPHS = {"random": lambda: random_graph(2000, 20, 30000, seed=0), "loops": loops_graph,
              "sparse": sparse_graph}
    DIGESTS = {
        "loops": ("65442bec093e6f980f5572747967e0f27d470e0242fda36ce33b659426f30a5b",
                  "3e8d2573725a82e77f1e8a28a662ce58bc4b1ca423bb30795ab7994fffa9512a"),
        "random": ("7a76ef7b913dc279bca45a551dc3226ef044f9b702f7d0c79f6afa248f45ef0c",
                   "6ae5cb3463dd64f771186c7a1734c054ec381e9d223aa25e0b6e276baca08b1f"),
        "sparse": ("0a443fecb92a72c7b287ed99ab40fdb59dd28ee05195e9ec95f5b898b53bb1b1",
                   "053613fe0f23d88eed422bbc3b55b50c5f3e9d95e7f57fb26398f8c3961f80fa"),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_batches_and_walks_equal_the_recorded_stream(self, name):
        g = self.GRAPHS[name]()
        batches, walks = hashlib.sha256(), hashlib.sha256()
        grid = list(itertools.product(GOLDEN_BATCHES, GOLDEN_WALKS, range(3)))
        for kind, target in itertools.product(samplers.SAMPLER_KINDS, samplers.RESTART_TARGETS):
            for b, start, seed in grid:
                policy = SamplerPolicy(kind=kind, batch_size=b, restart_probability=0.3,
                                       restart_target=target, seed=seed)
                m = sample_minibatch(g, policy, start_entity=start)
                batches.update(m.positives.tobytes() + b"%d;" % m.restarts)
        for p, target in itertools.product((0.0, 0.3), samplers.RESTART_TARGETS):
            for b, start, seed in grid:
                order, visited, restarts = samplers._random_walk(
                    g, min(b, g.n_train), np.random.default_rng(seed), p, target, start)
                walks.update(order.tobytes() + visited.tobytes() + b"%d;" % restarts)
        assert (batches.hexdigest(), walks.hexdigest()) == self.DIGESTS[name]


class TestRandomWalkRestart:
    def test_zero_probability_equals_plain_walk(self, small_random_graph):
        g = small_random_graph
        rw = sample_minibatch(g, SamplerPolicy(kind="rw", batch_size=15, seed=21))
        rwr = sample_minibatch(g, SamplerPolicy(kind="rwr", batch_size=15,
                                                    restart_probability=0.0, seed=21))
        assert np.array_equal(rw.positives, rwr.positives)

    def test_always_restart_stays_around_start(self):
        # two hubs joined by a bridge; with p=1 every step leaves the start hub
        triples = [(0, 0, i) for i in range(1, 6)] + [(0, 1, 6)] + \
                  [(6, 0, i) for i in range(7, 12)]
        g = from_id_triples(triples, n_entities=12, n_relations=2)
        policy = SamplerPolicy(kind="rwr", batch_size=5, restart_probability=1.0,
                               restart_target="start_node", seed=4)
        m = sample_minibatch(g, policy, start_entity=0)
        if m.restarts == 0:
            assert all(0 in (s, o) for s, _, o in m.positives)

    def test_star_all_spokes(self, star6):
        policy = SamplerPolicy(kind="rwr", batch_size=4, restart_probability=1.0,
                               restart_target="start_node", seed=8)
        m = sample_minibatch(star6, policy, start_entity=0)
        assert len(m) == 4
        assert all(s == 0 for s, _, o in m.positives)

    def test_uniform_previous_target(self, small_random_graph):
        policy = SamplerPolicy(kind="rwr", batch_size=10, restart_probability=0.3,
                               restart_target="uniform_previous", seed=17)
        m = sample_minibatch(small_random_graph, policy)
        assert len(m) == 10


class TestInducedSubgraphSamplers:
    def test_tree_equals_walk(self, path5):
        seed = 13
        rw = sample_minibatch(path5, SamplerPolicy(kind="rw", batch_size=3, seed=seed))
        isg = sample_minibatch(path5, SamplerPolicy(kind="rwisg", batch_size=3, seed=seed))
        assert as_set(rw.positives) == as_set(isg.positives)

    def test_triangle_closure(self, triangle):
        # any 2-edge walk visits all three vertices, closing the triangle
        m = sample_minibatch(triangle, SamplerPolicy(kind="rwisg", batch_size=2, seed=0))
        assert as_set(m.positives) == {(0, 0, 1), (1, 0, 2), (2, 0, 0)}

    def test_closed_under_induction(self, small_random_graph):
        g = small_random_graph
        m = sample_minibatch(g, SamplerPolicy(kind="rwisg", batch_size=25, seed=31))
        again = induced_rows(g, m.vertex_set)
        assert as_set(m.positives) == as_set(again)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_induced_subgraph_equals_full_scan(self, data):
        n = data.draw(st.integers(1, 9))
        rows = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, 1),
                                           st.integers(0, n - 1)), max_size=30))
        rows = data.draw(st.permutations(sorted(rows)))
        g = from_id_triples(rows, n_entities=n + 2, n_relations=2)  # two isolated
        verts = data.draw(st.one_of(
            st.sets(st.integers(0, n + 1)),
            st.lists(st.integers(0, n + 1)).map(lambda v: np.asarray(v, dtype=np.int64))))
        mask = np.zeros(g.n_entities, dtype=bool)
        mask[list(verts)] = True
        full_scan = g.train[mask[g.train[:, 0]] & mask[g.train[:, 2]]]
        assert np.array_equal(induced_rows(g, verts), full_scan)

    @pytest.mark.parametrize("kind", ["rwisg", "rwisg_n"])
    def test_one_incidence_read_per_batch(self, small_random_graph, monkeypatch, kind):
        calls, incident = [], KnowledgeGraph.incident
        monkeypatch.setattr(KnowledgeGraph, "incident",
                            lambda g, verts: calls.append(len(verts)) or incident(g, verts))
        batches = list(epoch_iterator(small_random_graph, SamplerPolicy(kind=kind, batch_size=20)))
        assert len(calls) == len(batches) == 5

    def test_rwisg_n_zero_fraction_equals_rwisg(self, small_random_graph):
        g = small_random_graph
        isg = sample_minibatch(g, SamplerPolicy(kind="rwisg", batch_size=20, seed=5))
        n0 = sample_minibatch(g, SamplerPolicy(kind="rwisg_n", batch_size=20,
                                                     extra_neighbor_fraction=0.0, seed=5))
        assert np.array_equal(isg.positives, n0.positives)

    def test_rwisg_n_full_fraction_star(self, star6):
        policy = SamplerPolicy(kind="rwisg_n", batch_size=1,
                               extra_neighbor_fraction=1.0, seed=2)
        m = sample_minibatch(star6, policy, start_entity=0)
        # the hub is visited, so all six spokes are drawn
        assert as_set(m.positives) == {(0, 0, i) for i in range(1, 7)}

    def test_sandwich_with_shared_walk(self, small_random_graph):
        g = small_random_graph
        seed = 77
        rw = sample_minibatch(g, SamplerPolicy(kind="rw", batch_size=20, seed=seed))
        isg = sample_minibatch(g, SamplerPolicy(kind="rwisg", batch_size=20, seed=seed))
        isg_n = sample_minibatch(g, SamplerPolicy(kind="rwisg_n", batch_size=20, seed=seed))
        assert as_set(rw.positives) <= as_set(isg.positives)
        assert as_set(isg.positives) <= as_set(isg_n.positives)


class TestExtraNeighbors:
    @pytest.mark.parametrize("fraction, cap", [(0.3, 32), (1.0, 32), (1.0, 2), (0.5, 0), (0.5, 1)])
    def test_per_vertex_counts(self, fraction, cap):
        # self-loops count 2 toward the degree but hold one adjacency slot
        triples = [(0, 0, i) for i in range(1, 9)] + [(0, 1, 0), (3, 1, 3), (2, 0, 5), (5, 1, 2)]
        g = from_id_triples(triples, n_entities=11, n_relations=2)
        visited = np.array([0, 3, 2, 10, 5, 1], dtype=np.int64)   # 10 is isolated
        counts, ids = g.incident(visited)
        # ids 0, 1, ... in place of the runs' triple ids give each draw's run position
        at = samplers._extra_ids(g, visited, counts, np.arange(len(ids)), fraction, cap,
                                 np.random.default_rng(0))
        assert np.array_equal(samplers._extra_ids(g, visited, counts, ids, fraction, cap,
                                                  np.random.default_rng(0)), ids[at])
        assert len(np.unique(at)) == len(at)
        total = 0
        for v, lo, n in zip(visited, np.cumsum(counts) - counts, counts):
            want = min(math.ceil(fraction * g.degrees[v]), cap, n)
            assert np.count_nonzero((at >= lo) & (at < lo + n)) == want
            total += want
        assert len(at) == total

    def test_subsets_are_uniform(self, star6):
        # the hub has degree 6, so fraction 0.5 draws 3 of its 6 spokes
        hub = np.array([0], dtype=np.int64)
        counts = dict.fromkeys(itertools.combinations(range(6), 3), 0)
        rng = np.random.default_rng(1)
        for _ in range(2000):
            ids = samplers._extra_ids(star6, hub, *star6.incident(hub), 0.5, 32, rng)
            counts[tuple(sorted(ids.tolist()))] += 1
        assert chi_square(list(counts.values())) < CHI2_CRIT[19]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_positives_are_sorted_union_of_induced_and_drawn(self, seed):
        g = random_graph(n_entities=30, n_relations=3, n_triples=100, seed=seed)
        g = from_id_triples(g.train[np.random.default_rng(seed).permutation(g.n_train)],
                            n_entities=30, n_relations=3)
        policy = SamplerPolicy(kind="rwisg_n", batch_size=15, extra_neighbor_fraction=0.3,
                               extra_neighbor_cap=3, seed=seed)
        m = sample_minibatch(g, policy)
        rng = np.random.default_rng(seed)
        _, visited, _ = samplers._random_walk(g, 15, rng)
        drawn = g.train[samplers._extra_ids(g, visited, *g.incident(visited), 0.3, 3, rng)]
        inside = set(visited.tolist())
        induced = {t for t in as_set(g.train) if t[0] in inside and t[2] in inside}
        assert m.positives.tolist() == [list(t) for t in sorted(induced | as_set(drawn))]


class TestEpochIterator:
    def test_batch_count(self):
        g = random_graph(n_entities=40, n_relations=2, n_triples=100, seed=1)
        policy = SamplerPolicy(kind="sr", batch_size=10, seed=0)
        assert batches_per_epoch(g, policy) == 10
        assert len(list(epoch_iterator(g, policy))) == 10

    @pytest.mark.parametrize("size", ["below", "equal", "above"])
    def test_batch_count_is_the_ceiling(self, size):
        g = random_graph(n_entities=40, n_relations=2, n_triples=100, seed=1)
        b = {"below": g.n_train // 3, "equal": g.n_train, "above": 10 * g.n_train}[size]
        assert batches_per_epoch(g, SamplerPolicy(batch_size=b)) == math.ceil(g.n_train / b)

    def test_empty_train_split_has_no_batches(self):
        g = from_id_triples(np.zeros((0, 3), dtype=np.int64), 3, 1, valid=[(0, 0, 1)])
        for kind in ("sr", "rw"):
            policy = SamplerPolicy(kind=kind, batch_size=5)
            assert batches_per_epoch(g, policy) == 0
            assert list(epoch_iterator(g, policy)) == []

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_oversized_batch_warns_once_per_epoch(self, caplog, kind):
        g = random_graph(n_entities=40, n_relations=2, n_triples=100, seed=1)
        policy = SamplerPolicy(kind=kind, batch_size=10 * g.n_train, seed=2)
        with caplog.at_level(logging.WARNING, logger="kgsampler.samplers"):
            assert len(list(epoch_iterator(g, policy))) == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"batch_size {10 * g.n_train} exceeds train size {g.n_train}; clamping"]

    def test_batch_count_rounds_up(self):
        g = random_graph(n_entities=40, n_relations=2, n_triples=100, seed=1)
        for kind in ("sr", "rw"):
            policy = SamplerPolicy(kind=kind, batch_size=30, seed=0)
            assert len(list(epoch_iterator(g, policy))) == 4

    def test_sr_epoch_partitions_train(self, small_random_graph):
        g = small_random_graph
        policy = SamplerPolicy(kind="sr", batch_size=13, seed=6)
        batches = list(epoch_iterator(g, policy))
        union = set()
        total = 0
        for m in batches:
            union |= as_set(m.positives)
            total += len(m)
        assert union == as_set(g.train)
        assert total == g.n_train

    @pytest.mark.parametrize("kind", ["sr", "rw", "rwr", "rwisg", "rwisg_n"])
    def test_deterministic_given_seed(self, small_random_graph, kind):
        g = small_random_graph
        policy = SamplerPolicy(kind=kind, batch_size=12, seed=42)
        run1 = [m.positives for m in epoch_iterator(g, policy)]
        run2 = [m.positives for m in epoch_iterator(g, policy)]
        assert len(run1) == len(run2)
        for a, b in zip(run1, run2):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["sr", "rw", "rwr", "rwisg", "rwisg_n"])
    def test_containment_all_policies(self, small_random_graph, kind):
        g = small_random_graph
        policy = SamplerPolicy(kind=kind, batch_size=12, seed=3)
        m = sample_minibatch(g, policy)
        assert as_set(m.positives) <= as_set(g.train)


class TestPolicyValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            SamplerPolicy(kind="metropolis")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            SamplerPolicy(batch_size=0)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            SamplerPolicy(restart_probability=1.5)

    def test_negative_extra_cap(self):
        with pytest.raises(ValueError, match="extra_neighbor_cap"):
            SamplerPolicy(extra_neighbor_cap=-1)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SamplerPolicy(seed=-1)

    @pytest.mark.parametrize("kind", ["sr", "rw", "rwisg_n"])
    @pytest.mark.parametrize("start", [-1, -3, 30])
    def test_start_entity_outside_the_entities(self, small_random_graph, kind, start):
        policy = SamplerPolicy(kind=kind, batch_size=5, seed=0)
        with pytest.raises(ValueError, match="start_entity"):
            sample_minibatch(small_random_graph, policy, start_entity=start)
        m = sample_minibatch(small_random_graph, policy,
                             start_entity=small_random_graph.n_entities - 1)
        assert len(m) >= 5


class TestDotExport:
    def test_edge_count_matches_batch(self, small_random_graph):
        g = small_random_graph
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=7, seed=1))
        dot = to_dot(m, g)
        assert dot.startswith("digraph")
        assert dot.count("->") == 7

    def test_ids_without_graph(self, chain3):
        m = sample_minibatch(chain3, SamplerPolicy(kind="sr", batch_size=3, seed=1))
        dot = to_dot(m)
        assert '"e0"' in dot
