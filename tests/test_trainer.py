import hashlib
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kgsampler import trainer
from kgsampler.graph import from_id_triples
from kgsampler.losses import LossConfig, RowGrads, SparseGrads, minibatch_loss_and_grads
from kgsampler.samplers import SAMPLER_KINDS, SamplerPolicy, epoch_iterator, sample_minibatch
from kgsampler.scorers import EmbeddingStore, initialize
from kgsampler.stats import expected_degree_of_batch
from kgsampler.synth import planted_toy_graph, random_graph
from kgsampler.trainer import (
    NumericalError,
    SparseAdam,
    TrainConfig,
    gradient_variance_probe,
    train,
)

from conftest import readme_record_keys


def store_digest(store):
    h = hashlib.sha256()
    h.update(store.entities.tobytes())
    h.update(store.relations.tobytes())
    return h.hexdigest()


def small_config(g, **kw):
    defaults = dict(
        epochs=2,
        learning_rate=1e-2,
        sampler_policy=SamplerPolicy(kind="sr", batch_size=16, seed=0),
        loss_config=LossConfig(margin=1.0, negatives_per_positive=4,
                               adversarial_temperature=0.0, filtered_negatives=False),
        seed=5,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSparseAdam:
    def scalar_store(self):
        return EmbeddingStore("transe", 1,
                              entities=np.array([[0.0], [0.0]]),
                              relations=np.array([[0.0]]))

    def entity0_grads(self, value):
        """Gradient ``value`` on entity row 0 only."""
        return SparseGrads(entities=RowGrads(np.array([0]), np.array([[value]])),
                           relations=RowGrads(np.zeros(0, dtype=np.int64), np.zeros((0, 1))))

    def test_first_step_displacement_is_learning_rate(self):
        store = self.scalar_store()
        opt = SparseAdam(store, learning_rate=0.05)
        opt.step(store, self.entity0_grads(1.0))
        assert store.entities[0, 0] == pytest.approx(-0.05, rel=1e-6)

    def test_constant_gradient_keeps_unit_steps(self):
        store = self.scalar_store()
        opt = SparseAdam(store, learning_rate=0.05)
        for _ in range(10):
            opt.step(store, self.entity0_grads(1.0))
        assert store.entities[0, 0] == pytest.approx(-0.5, rel=1e-5)

    def test_zero_gradient_row_unchanged(self):
        store = self.scalar_store()
        opt = SparseAdam(store, learning_rate=0.05)
        opt.step(store, self.entity0_grads(0.0))
        assert store.entities[0, 0] == 0.0

    def test_untouched_rows_and_moments_stay(self):
        store = self.scalar_store()
        opt = SparseAdam(store, learning_rate=0.05)
        opt.step(store, self.entity0_grads(1.0))
        assert store.entities[1, 0] == 0.0
        assert opt.state["entities"]["t"][1] == 0
        assert np.all(opt.state["relations"]["t"] == 0)

    def test_steps_bitwise_equal_the_textbook_formula(self):
        """Rows touched in several steps, rows never touched, gradients across 6 decades."""
        rng = np.random.default_rng(3)
        store = initialize(6, 3, "complex", 2, seed=4)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        opt = SparseAdam(store, lr)
        ref = {name: {"p": arr.copy(), "m": np.zeros_like(arr), "v": np.zeros_like(arr),
                      "t": np.zeros(len(arr), dtype=np.int64)}
               for name, arr in (("entities", store.entities), ("relations", store.relations))}

        def rowgrads(ids):
            rows = rng.normal(size=(len(ids), 4)) * 10.0 ** rng.uniform(-3, 3, size=(len(ids), 1))
            return RowGrads(np.array(ids), rows)

        for ent_ids, rel_ids in (([0, 2, 3], [1]), ([0, 3], [1]), ([2, 4], [0, 1]),
                                 ([0, 2, 3, 4], [1]), ([3], [0])):
            grads = SparseGrads(entities=rowgrads(ent_ids), relations=rowgrads(rel_ids))
            opt.step(store, grads)
            for name, rg in (("entities", grads.entities), ("relations", grads.relations)):
                st, ids, G = ref[name], rg.ids, rg.rows
                t = st["t"][ids] + 1
                st["t"][ids] = t
                m = b1 * st["m"][ids] + (1 - b1) * G
                v = b2 * st["v"][ids] + (1 - b2) * G * G
                st["m"][ids] = m
                st["v"][ids] = v
                m_hat = m / (1.0 - b1 ** t)[:, None]
                v_hat = v / (1.0 - b2 ** t)[:, None]
                st["p"][ids] -= lr * m_hat / (np.sqrt(v_hat) + eps)

        for name, params in (("entities", store.entities), ("relations", store.relations)):
            assert np.array_equal(params, ref[name]["p"])
            for key in ("m", "v", "t"):
                assert np.array_equal(opt.state[name][key], ref[name][key])
        untouched = initialize(6, 3, "complex", 2, seed=4)
        assert np.array_equal(store.entities[[1, 5]], untouched.entities[[1, 5]])
        assert np.array_equal(store.relations[2], untouched.relations[2])


def test_chunked_adam_steps_equal_the_textbook_formula(monkeypatch):
    """Steps over chunks of 3 rows, with rows at t = 0, 1 and 2 and never-touched rows between chunks.

    RuntimeWarning is an error in the tests, so a step that took a bias
    correction at t = 0 (a 0/0) would fail.
    """
    monkeypatch.setattr(trainer, "ADAM_CHUNK_ROWS", 3)
    rng = np.random.default_rng(11)
    store = initialize(20, 4, "rotate", 3, seed=12)
    start = store.entities.copy(), store.relations.copy()
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = SparseAdam(store, lr)
    ref = {name: {"p": arr.copy(), "m": np.zeros_like(arr), "v": np.zeros_like(arr),
                  "t": np.zeros(len(arr), dtype=np.int64)}
           for name, arr in (("entities", store.entities), ("relations", store.relations))}
    never = [7, 13]   # entity rows no step touches, between the chunks of the full steps
    touched = [i for i in range(20) if i not in never]
    steps = ((touched, [0, 1, 2, 3]),
             (touched[:4], [2]),
             (touched[2:], [0, 1, 2, 3]),   # entity rows at t = 0, 1 and 2; chunk [2, 3, 4] mixes 2 and 1
             ([5], [1, 3]))
    for ent_ids, rel_ids in steps:
        grads = SparseGrads(
            entities=RowGrads(np.array(ent_ids), rng.normal(size=(len(ent_ids), 6))),
            relations=RowGrads(np.array(rel_ids), rng.normal(size=(len(rel_ids), 3))))
        opt.step(store, grads)
        for name, rg in (("entities", grads.entities), ("relations", grads.relations)):
            st, ids, G = ref[name], rg.ids, rg.rows
            t = st["t"][ids] + 1
            st["t"][ids] = t
            m = b1 * st["m"][ids] + (1 - b1) * G
            v = b2 * st["v"][ids] + (1 - b2) * G * G
            st["m"][ids] = m
            st["v"][ids] = v
            m_hat = m / (1.0 - b1 ** t)[:, None]
            v_hat = v / (1.0 - b2 ** t)[:, None]
            st["p"][ids] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for name, params in (("entities", store.entities), ("relations", store.relations)):
            assert np.array_equal(params, ref[name]["p"])
            for key in ("m", "v", "t"):
                assert np.array_equal(opt.state[name][key], ref[name][key])
    assert np.array_equal(store.entities[never], start[0][never])
    state = opt.state["entities"]
    assert not state["m"][never].any() and not state["v"][never].any()
    assert not state["t"][never].any()


def test_full_touch_adam_step_allocates_no_table_sized_temporary():
    """A step touching every row of a 4096 x 64 table peaks below a quarter of the table's bytes."""
    rng = np.random.default_rng(0)
    store = EmbeddingStore("distmult", 64, entities=rng.normal(size=(4096, 64)),
                           relations=rng.normal(size=(2, 64)))
    grads = SparseGrads(entities=RowGrads(np.arange(4096), rng.normal(size=(4096, 64))),
                        relations=RowGrads(np.arange(2), rng.normal(size=(2, 64))))
    opt = SparseAdam(store, 0.01)
    opt.step(store, grads)
    tracemalloc.start()
    try:
        opt.step(store, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < store.entities.nbytes / 4


def test_unit_ball_projection_over_chunks(monkeypatch):
    """Chunks of 3 rows give each row's own projection bitwise; rows off the id list stay."""
    monkeypatch.setattr(trainer, "ADAM_CHUNK_ROWS", 3)
    store = initialize(10, 2, "transe", 4, seed=7)
    store.entities[::2] *= 100   # norms above 1 on even rows, below on odd ones
    store.entities[1::2] /= 100
    ids = np.array([0, 1, 2, 3, 4, 6, 7, 9])
    before = store.entities.copy()
    expected = before.copy()
    expected[ids] /= np.maximum(np.linalg.norm(expected[ids], axis=1, keepdims=True), 1.0)
    trainer._project_to_unit_ball(store, ids)
    assert np.array_equal(store.entities, expected)
    assert np.flatnonzero(np.any(store.entities != before, axis=1)).tolist() == [0, 2, 4, 6]


@pytest.mark.parametrize("field, value", [("epochs", -1), ("eval_every", 0), ("seed", -1)])
def test_train_config_rejects_bad_counts(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
def test_train_config_rejects_bad_learning_rate(value):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=value)


class TestTrain:
    def test_zero_learning_rate_keeps_store(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        before = store_digest(store)
        train(g, store, small_config(g, learning_rate=0.0, epochs=3))
        assert store_digest(store) == before

    def test_single_full_batch_is_one_step(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        config = small_config(
            g, epochs=1,
            sampler_policy=SamplerPolicy(kind="sr", batch_size=g.n_train, seed=0))
        _, records = train(g, store, config)
        assert records[0]["batches"] == 1

    def test_bitwise_deterministic(self, small_random_graph):
        g = small_random_graph
        stores = []
        for _ in range(2):
            store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=2)
            train(g, store, small_config(g, epochs=2))
            stores.append(store)
        assert np.array_equal(stores[0].entities, stores[1].entities)
        assert np.array_equal(stores[0].relations, stores[1].relations)

    @pytest.mark.parametrize("kind, neighbors", [    # sr, plain loss: test_bitwise_deterministic
        (kind, neighbors) for kind in SAMPLER_KINDS for neighbors in (False, True)
        if kind != "sr" or neighbors])
    def test_bitwise_deterministic_per_sampler(self, small_random_graph, kind, neighbors):
        """Two runs give equal bits under every sampler, with the plain loss and the neighbor
        loss at cap 2; no digest is pinned, as float bits may differ between CPUs."""
        g = small_random_graph
        config = small_config(g, sampler_policy=SamplerPolicy(kind=kind, batch_size=16, seed=0))
        config = replace(config, loss_config=replace(
            config.loss_config, neighbors_loss_enabled=neighbors, neighbor_cap=2))
        stores = []
        for _ in range(2):
            store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=2)
            train(g, store, config)
            stores.append(store)
        assert np.array_equal(stores[0].entities, stores[1].entities)
        assert np.array_equal(stores[0].relations, stores[1].relations)

    def test_updates_touch_only_gradient_rows(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "transe", 4, seed=3)
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=8, seed=1))
        config = small_config(g)
        rng = np.random.default_rng(0)
        _, grads = minibatch_loss_and_grads(g, store, m, config.loss_config, rng)
        before_e = store.entities.copy()
        before_r = store.relations.copy()
        SparseAdam(store, 0.01).step(store, grads)
        changed_e = np.flatnonzero(np.any(store.entities != before_e, axis=1))
        changed_r = np.flatnonzero(np.any(store.relations != before_r, axis=1))
        assert set(changed_e) <= set(grads.entities.ids)
        assert set(changed_r) <= set(grads.relations.ids)

    def test_epoch_log_fields(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        config = small_config(g, epochs=3)
        _, records = train(g, store, config)
        assert len(records) == 3
        assert all({"epoch", "mean_loss", "wall_time_s", "batches"} <= set(r) for r in records)
        # sr batch lengths do not depend on the permutation
        sizes = [len(m) for m in epoch_iterator(g, config.sampler_policy)]
        for r in records:
            assert r["batches"] == len(sizes)
            assert r["positives"] == sum(sizes) == g.n_train
            assert (r["batch_size_min"], r["batch_size_max"]) == (min(sizes), max(sizes))
            assert r["batches"] <= r["relation_rows"] <= r["batches"] * g.n_relations
            assert r["entity_rows"] >= r["batches"]
            assert r["restarts"] == 0
            assert r["expected_degree"] >= 1.0
            # unfiltered corruption never runs out: every positive scores all its negatives
            n = config.loss_config.negatives_per_positive
            assert (r["scored_rows"], r["exhausted_negatives"]) == (g.n_train * (1 + n), 0)
        # the first epoch's batches, drawn as train draws them
        sample_seed, _ = np.random.SeedSequence(config.seed).spawn(2)
        batches = epoch_iterator(g, config.sampler_policy, rng=np.random.default_rng(sample_seed))
        eds = [expected_degree_of_batch(m) for m in batches]
        assert records[0]["expected_degree"] == pytest.approx(np.mean(eds), rel=1e-12)

    def test_epoch_log_counts_exhausted_negatives(self):
        # every (s, 0, o) over 3 entities is known, so filtered corruption
        # exhausts its retries for every negative and only positives are scored
        g = from_id_triples([(s, 0, o) for s in range(3) for o in range(3)],
                            n_entities=3, n_relations=1)
        store = initialize(3, 1, "rotate", 4, seed=1)
        n = 5
        config = small_config(g, loss_config=LossConfig(
            margin=1.0, negatives_per_positive=n, filtered_negatives=True))
        _, records = train(g, store, config)
        for r in records:
            assert r["positives"] == g.n_train == 9
            assert r["scored_rows"] == 9
            assert r["exhausted_negatives"] == 9 * n

    def test_loss_decreases_on_planted_graph(self):
        g = planted_toy_graph(seed=0)
        store = initialize(g.n_entities, g.n_relations, "distmult", 32, seed=4)
        config = TrainConfig(
            epochs=20,
            learning_rate=1e-2,
            sampler_policy=SamplerPolicy(kind="sr", batch_size=128, seed=1),
            loss_config=LossConfig(margin=1.0, negatives_per_positive=32,
                                   adversarial_temperature=0.0),
            seed=6,
        )
        _, records = train(g, store, config)
        losses = [r["mean_loss"] for r in records]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_loss_aborts_with_batch(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        store.entities[:] = 1e308
        with pytest.raises(NumericalError) as exc_info:
            train(g, store, small_config(g, epochs=1))
        assert exc_info.value.batch is not None
        assert len(exc_info.value.batch) > 0

    def test_normalize_entities_flag(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "transe", 4, seed=7)
        store.entities *= 10
        train(g, store, small_config(g, epochs=1, normalize_entities=True))
        touched = np.linalg.norm(store.entities, axis=1)
        assert touched.min() <= 1.0 + 1e-12

    def test_callback_invoked(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        seen = []
        train(g, store, small_config(g, epochs=3),
              epoch_callback=lambda e, s, rec: seen.append(e))
        assert seen == [1, 2, 3]

    def test_records_carry_validation_on_eval_epochs(self, small_random_graph):
        """A library call validates on its config's eval_every: only epoch 2 of 3 holds
        valid and valid_s, every epoch holds peak_rss_mb, and the keys are the README's."""
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        seen = []
        _, records = train(g, store, small_config(g, epochs=3, eval_every=2),
                           epoch_callback=lambda e, s, rec: seen.append(rec))
        assert all(a is b for a, b in zip(seen, records, strict=True))
        every, extra = readme_record_keys()
        assert [set(r) for r in records] == [every, every | extra, every]
        assert records[1]["valid"]["count"] == 2 * len(g.valid)
        assert records[1]["valid_s"] >= 0 and all(r["peak_rss_mb"] > 0 for r in records)

    @pytest.mark.parametrize("kind", ["sr", "rwisg"])
    def test_validation_leaves_training_bitwise_unchanged(self, small_random_graph, kind):
        """Validation draws no random numbers and writes no row: a run that validates every
        epoch ends with the bits, and the records, of one that never validates."""
        g = small_random_graph
        runs = []
        for eval_every in (1, 4):
            store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=2)
            config = small_config(g, epochs=3, eval_every=eval_every,
                                  sampler_policy=SamplerPolicy(kind=kind, batch_size=16, seed=0))
            _, records = train(g, store, config)
            runs.append((store, records))
        (validated, with_valid), (plain, without_valid) = runs
        assert all("valid" in r for r in with_valid)
        assert not any("valid" in r for r in without_valid)
        assert np.array_equal(validated.entities, plain.entities)
        assert np.array_equal(validated.relations, plain.relations)
        timing = {"valid", "valid_s", "wall_time_s", "peak_rss_mb"}
        assert ([{k: v for k, v in r.items() if k not in timing} for r in with_valid]
                == [{k: v for k, v in r.items() if k not in timing} for r in without_valid])

    def test_sgd_option(self, small_random_graph, monkeypatch):
        """An SGD step over chunks of 3 rows is p[ids] -= lr·G bitwise and leaves untouched rows."""
        monkeypatch.setattr(trainer, "ADAM_CHUNK_ROWS", 3)
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        config = small_config(g, optimizer="sgd")
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=4, seed=1))
        _, grads = minibatch_loss_and_grads(g, store, m, config.loss_config,
                                            np.random.default_rng(0))
        assert 3 < len(grads.entities) < g.n_entities
        expected = store.entities.copy(), store.relations.copy()
        for params, rg in zip(expected, (grads.entities, grads.relations)):
            params[rg.ids] -= config.learning_rate * rg.rows
        trainer.make_optimizer(store, config).step(store, grads)
        assert np.array_equal(store.entities, expected[0])
        assert np.array_equal(store.relations, expected[1])


class TestVarianceProbe:
    def test_requires_two_batches(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        with pytest.raises(ValueError):
            gradient_variance_probe(g, store, small_config(g), num_batches=1)

    def test_stub_sampler_zero_variance(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        fixed = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=10, seed=9))
        report = gradient_variance_probe(
            g, store, small_config(g), num_batches=5, sample_batch=lambda: fixed)
        assert len(report.entity_ids) > 0
        np.testing.assert_allclose(report.grad_variances, 0.0, atol=1e-30)
        assert np.all(report.batches_seen == 5)

    def test_probe_does_not_mutate_store(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=2)
        before = store_digest(store)
        gradient_variance_probe(g, store, small_config(g), num_batches=4)
        assert store_digest(store) == before

    def test_batch_count_ordering_by_policy(self):
        g = random_graph(n_entities=120, n_relations=3, n_triples=720, seed=8)
        store = initialize(g.n_entities, g.n_relations, "distmult", 8, seed=3)
        medians = {}
        for kind in ("sr", "rw", "rwisg"):
            config = small_config(
                g,
                sampler_policy=SamplerPolicy(kind=kind, batch_size=48, seed=0),
                loss_config=LossConfig(margin=1.0, negatives_per_positive=8,
                                       adversarial_temperature=0.0,
                                       filtered_negatives=False))
            report = gradient_variance_probe(g, store, config, num_batches=40)
            medians[kind] = np.median(report.batches_seen[report.graph_degrees >= 5])
        assert medians["rwisg"] >= medians["rw"] >= medians["sr"]

    def test_variance_ordering_by_policy(self):
        g = random_graph(n_entities=120, n_relations=3, n_triples=720, seed=8)
        store = initialize(g.n_entities, g.n_relations, "distmult", 8, seed=3)
        medians = {}
        for kind in ("sr", "rwisg"):
            config = small_config(
                g, sampler_policy=SamplerPolicy(kind=kind, batch_size=48, seed=0))
            report = gradient_variance_probe(g, store, config, num_batches=40)
            medians[kind] = report.median_variance(min_degree=5)
        assert medians["rwisg"] < medians["sr"]

    def test_oversized_batch_warns_once_per_probe(self, caplog, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        config = small_config(g, sampler_policy=SamplerPolicy(batch_size=10 * g.n_train))
        with caplog.at_level(logging.WARNING, logger="kgsampler.samplers"):
            gradient_variance_probe(g, store, config, num_batches=4)
        assert [r.getMessage() for r in caplog.records] == [
            f"batch_size {10 * g.n_train} exceeds train size {g.n_train}; clamping"]

    def test_report_csv(self, tmp_path, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        report = gradient_variance_probe(g, store, small_config(g), num_batches=4)
        path = tmp_path / "variance.csv"
        report.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "entity_id,graph_degree,batches_seen,grad_variance"
        assert len(lines) == len(report.entity_ids) + 1
        # every field parses back to the report's value exactly
        cols = list(zip(*(line.split(",") for line in lines[1:])))
        assert [int(x) for x in cols[0]] == report.entity_ids.tolist()
        assert [int(x) for x in cols[1]] == report.graph_degrees.tolist()
        assert [int(x) for x in cols[2]] == report.batches_seen.tolist()
        assert [float(x) for x in cols[3]] == report.grad_variances.tolist()
