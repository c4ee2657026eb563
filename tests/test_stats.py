import csv
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgsampler.samplers import Minibatch, SamplerPolicy, sample_minibatch
from kgsampler.stats import (
    DISTRIBUTION_FIELDS,
    SWEEP_FIELDS,
    DegreeHistogram,
    averaged_distribution,
    ed_vs_batchsize_sweep,
    expected_degree,
    minibatch_degree_distribution,
    sweep_points,
    sweep_row,
    write_csv,
)
from kgsampler.synth import random_graph


def batch(rows):
    return Minibatch(positives=np.asarray(rows, dtype=np.int64))


class TestMinibatchDistribution:
    def test_single_triple(self):
        h = minibatch_degree_distribution(batch([(0, 0, 1)]))
        assert h.as_dict() == {1: 1.0}

    def test_chain_of_three(self):
        h = minibatch_degree_distribution(batch([(0, 0, 1), (1, 0, 2), (2, 0, 3)]))
        assert h.as_dict() == {1: 0.5, 2: 0.5}

    def test_triangle(self):
        h = minibatch_degree_distribution(batch([(0, 0, 1), (1, 0, 2), (2, 0, 0)]))
        assert h.as_dict() == {2: 1.0}

    def test_self_loop_counts_twice(self):
        h = minibatch_degree_distribution(batch([(0, 0, 0)]))
        assert h.as_dict() == {2: 1.0}

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            minibatch_degree_distribution(batch(np.empty((0, 3), dtype=np.int64)))

    def test_matches_naive_count(self):
        g = random_graph(n_entities=50, n_relations=3, n_triples=400, seed=2)
        for seed in range(5):
            m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=60, seed=seed))
            h = minibatch_degree_distribution(m)
            naive = {}
            for v in set(m.positives[:, 0]) | set(m.positives[:, 2]):
                d = sum(1 for s, _, o in m.positives for end in (s, o) if end == v)
                naive[d] = naive.get(d, 0) + 1
            n_vertices = sum(naive.values())
            for d, c in naive.items():
                assert h.probabilities[d] == pytest.approx(c / n_vertices, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2), st.integers(0, 12)),
                         min_size=1, max_size=60),
           loops=st.lists(st.integers(0, 12), max_size=5))
    def test_equals_the_unique_count_bitwise(self, rows, loops):
        # repeated entities, repeated rows and self-loops, against the np.unique construction
        positives = np.array(rows + [(v, 0, v) for v in loops], dtype=np.int64)
        degs = np.unique(positives[:, [0, 2]].ravel(), return_counts=True)[1]
        counts = np.bincount(degs)
        want = counts / counts.sum()
        got = minibatch_degree_distribution(batch(positives)).probabilities
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestAveragedDistribution:
    def test_identity(self):
        h = minibatch_degree_distribution(batch([(0, 0, 1), (1, 0, 2)]))
        avg = averaged_distribution([h])
        np.testing.assert_allclose(avg.probabilities, h.probabilities)
        assert avg.n_batches == 1

    def test_two_point_mean(self):
        h1 = DegreeHistogram(np.array([0.0, 1.0]))
        h2 = DegreeHistogram(np.array([0.0, 0.0, 1.0]))
        avg = averaged_distribution([h1, h2])
        assert avg.as_dict() == {1: 0.5, 2: 0.5}
        assert avg.n_batches == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            averaged_distribution([])

    def test_linearity_of_expected_degree(self):
        g = random_graph(n_entities=60, n_relations=2, n_triples=500, seed=4)
        hists = [
            minibatch_degree_distribution(
                sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=50, seed=s)))
            for s in range(20)
        ]
        lhs = expected_degree(averaged_distribution(hists))
        rhs = np.mean([expected_degree(h) for h in hists])
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestExpectedDegree:
    def test_point_mass(self):
        assert expected_degree(DegreeHistogram(np.array([0.0, 1.0]))) == 1.0

    def test_two_masses(self):
        h = DegreeHistogram(np.array([0.0, 0.5, 0.0, 0.5]))
        assert expected_degree(h) == pytest.approx(2.0)


class TestHistogramValidation:
    def test_mass_at_zero_rejected(self):
        with pytest.raises(ValueError):
            DegreeHistogram(np.array([0.5, 0.5]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            DegreeHistogram(np.array([0.0, 0.7]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DegreeHistogram(np.array([0.0, 1.5, -0.5]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=40))
    def test_normalized_after_construction(self, degrees):
        counts = np.bincount(degrees)
        h = DegreeHistogram(counts / counts.sum())
        assert abs(h.probabilities.sum() - 1.0) <= 1e-9


class TestSweep:
    def test_full_batch_sr_equals_graph_mean_degree(self):
        # no isolated entities, so the full batch reproduces the graph
        g = random_graph(n_entities=30, n_relations=2, n_triples=200, seed=9)
        assert np.all(g.degrees > 0)
        rows = ed_vs_batchsize_sweep(
            g, [SamplerPolicy(kind="sr", seed=0)], [g.n_train], batches_per_point=30)
        assert rows[0]["expected_degree"] == pytest.approx(g.degrees.mean())
        assert rows[0]["std_error"] == pytest.approx(0.0, abs=1e-12)

    def test_oversized_batch_warns_once_per_point(self, caplog):
        """Each point still names the size it was asked for, so the CSV rows do not change."""
        g = random_graph(n_entities=30, n_relations=2, n_triples=200, seed=9)
        big = 10 * g.n_train
        policies = [SamplerPolicy(kind=k, seed=0) for k in ("sr", "rw")]
        with caplog.at_level(logging.WARNING, logger="kgsampler.samplers"):
            points = list(sweep_points(g, policies, [20, big], 30))
        assert [(pol.kind, pol.batch_size) for pol, _ in points] == [
            ("sr", 20), ("sr", big), ("rw", 20), ("rw", big)]
        assert [r.getMessage() for r in caplog.records] == [
            f"batch_size {big} exceeds train size {g.n_train}; clamping"] * 2

    def test_requires_enough_batches(self):
        g = random_graph(n_entities=30, n_relations=2, n_triples=200, seed=9)
        with pytest.raises(ValueError):
            ed_vs_batchsize_sweep(g, [SamplerPolicy()], [10], batches_per_point=5)

    def test_sweep_row_keys_are_the_csv_fields(self):
        # perfbench's traced sweep compares its own rows with the library's using `!=`,
        # so a key that only one side writes fails every traced sweep unit
        g = random_graph(n_entities=30, n_relations=2, n_triples=200, seed=9)
        policy = SamplerPolicy(kind="rw", batch_size=20, seed=0)
        hists = [minibatch_degree_distribution(sample_minibatch(g, policy)) for _ in range(3)]
        assert set(sweep_row(policy, hists)) == set(SWEEP_FIELDS)

    def test_csv_schemas(self, tmp_path):
        g = random_graph(n_entities=30, n_relations=2, n_triples=200, seed=9)
        policy = SamplerPolicy(kind="sr", seed=0)
        rows = ed_vs_batchsize_sweep(g, [policy], [20], batches_per_point=30)
        sweep_path = tmp_path / "sweep.csv"
        write_csv(rows, str(sweep_path), SWEEP_FIELDS)
        with open(sweep_path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "policy", "batch_size", "expected_degree", "std_error", "num_batches"]
            assert len(list(reader)) == 1

        from kgsampler.stats import distribution_rows
        h = minibatch_degree_distribution(
            sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=20, seed=0)))
        dist_path = tmp_path / "dist.csv"
        write_csv(distribution_rows(policy, 20, h), str(dist_path), DISTRIBUTION_FIELDS)
        with open(dist_path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["policy", "batch_size", "degree", "probability"]
            got = list(reader)
        assert sum(float(r["probability"]) for r in got) == pytest.approx(1.0)
