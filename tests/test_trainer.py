import hashlib
import json
import logging
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kgsampler
from kgsampler import trainer
from kgsampler.evaluation import evaluate_split
from kgsampler.graph import from_id_triples, neighbor_entries
from kgsampler.losses import (LossConfig, RowGrads, SparseGrads, corrupt_batch,
                              minibatch_loss_and_grads)
from kgsampler.samplers import SAMPLER_KINDS, SamplerPolicy, epoch_iterator, sample_minibatch
from kgsampler.scorers import EmbeddingStore, initialize
from kgsampler.stats import expected_degree_of_batch
from kgsampler.synth import planted_graph, planted_toy_graph, random_graph, write_dataset
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
        sampler_policy=SamplerPolicy(kind="sr", batch_size=16),
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
            sampler_policy=SamplerPolicy(kind="sr", batch_size=g.n_train))
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
        config = small_config(g, sampler_policy=SamplerPolicy(kind=kind, batch_size=16))
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
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=8), np.random.default_rng(1))
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
        sizes = [len(m) for m in epoch_iterator(g, config.sampler_policy, np.random.default_rng(0))]
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
        sample_seed = np.random.SeedSequence(config.seed, spawn_key=(0,))
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
            sampler_policy=SamplerPolicy(kind="sr", batch_size=128),
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

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read on Linux only")
    def test_peak_rss_is_the_run_s_own_not_its_launcher_s(self, tmp_path):
        """Linux carries ru_maxrss across execve: a run launched by a process that peaked
        ~300 MB higher reports its own peak, below the launcher's."""
        write_dataset(planted_toy_graph(), str(tmp_path / "toy"))
        block = np.ones(300 * 2 ** 20 // 8)    # every page written, so resident
        del block
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kgsampler.__file__))}
        subprocess.run([sys.executable, "-m", "kgsampler", "train", "--dataset",
                        str(tmp_path / "toy"), "--epochs", "1", "--out", str(tmp_path / "run")],
                       env=env, check=True, capture_output=True)
        record = json.loads((tmp_path / "run" / "train_log.jsonl").read_text())
        assert record["peak_rss_mb"] < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @pytest.mark.parametrize("kind", ["sr", "rwisg"])
    def test_validation_leaves_training_bitwise_unchanged(self, small_random_graph, kind):
        """Validation draws no random numbers and writes no row: a run that validates every
        epoch ends with the bits, and the records, of one that never validates."""
        g = small_random_graph
        runs = []
        for eval_every in (1, 4):
            store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=2)
            config = small_config(g, epochs=3, eval_every=eval_every,
                                  sampler_policy=SamplerPolicy(kind=kind, batch_size=16))
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
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=4), np.random.default_rng(1))
        _, grads = minibatch_loss_and_grads(g, store, m, config.loss_config,
                                            np.random.default_rng(0))
        assert 3 < len(grads.entities) < g.n_entities
        expected = store.entities.copy(), store.relations.copy()
        for params, rg in zip(expected, (grads.entities, grads.relations)):
            params[rg.ids] -= config.learning_rate * rg.rows
        trainer.make_optimizer(store, config).step(store, grads)
        assert np.array_equal(store.entities, expected[0])
        assert np.array_equal(store.relations, expected[1])


class TestGoldenTrainingStream:
    """Every batch, neighbor entry and negative that training draws, pinned per sampler, loss
    and graph. The digests cover integer draws and exact 1/(1 + k) weights, so they hold
    across hosts; the losses go through trig and are pinned to rel 1e-9. A change that moves
    the stream must say so and re-record the digests."""

    GRAPHS = {"toy": planted_toy_graph,
              "random": lambda: random_graph(60, 4, 400, seed=3, holdout_fraction=0.1)}
    RUNS = {
        ("random", "sr", False): (
            "45e07dfb3d520f1654b30cdf55ce35e64fd1873f5aa74ad8376754f8f1f270b2",
            (3.9092562675838223, 3.77356531093498, 3.6451498787046908)),
        ("random", "sr", True): (
            "3453c5c48d618bf10379bae2a6cce52c51d51dc09d849d723ad79279dfcb4bbf",
            (3.900255553532287, 3.755414810726871, 3.5407627719455985)),
        ("random", "rw", False): (
            "af943b92a15947f34a5d605f9960ab1942adeae11f4c3367cf0c2f53e1b302af",
            (3.941764943424127, 3.7940802805144265, 3.6459311696605083)),
        ("random", "rw", True): (
            "bfbb115434c3b9a86dd1bf8a6ccf92a7ec644316440bd5d66b07ee1ecee75dbc",
            (3.8868887989992036, 3.7176778343984034, 3.5862273986472872)),
        ("random", "rwr", False): (
            "2ebab171dfc8da457abd4f93b70e36186f7986ec0f28a778245e7bddfaaa40ef",
            (3.883893438114248, 3.772018442153398, 3.619298240210361)),
        ("random", "rwr", True): (
            "46dc81103b1c32a9a75ffb371eacab809614365ac4c860471df108146737445b",
            (3.841429778488058, 3.7385532467576126, 3.556213715973302)),
        ("random", "rwisg", False): (
            "87e836792b6eb90b9b6e3d3db687ae7e4ad3ae203d235c67c03c25b44b188f93",
            (3.933108141343977, 3.7758571610035507, 3.6375566231815895)),
        ("random", "rwisg", True): (
            "182fec644916937be1bba54e7d1ad8e93bcdebd788481fda518710fca07ce3c6",
            (3.892475632351548, 3.699749559722302, 3.536175284323288)),
        ("random", "rwisg_n", False): (
            "a495bf5c039ef3b713e04371cd76d1603df3c2515ddf1249997d842edade1655",
            (3.8418152725001504, 3.6842650975103473, 3.4930213413148468)),
        ("random", "rwisg_n", True): (
            "1229914340416e88c438c46248226ab49d1c38e64da3c0b69f3cc0a82b7541f6",
            (3.8533732092944564, 3.653277729535026, 3.4694436720489157)),
        ("toy", "sr", False): (
            "ec602c87d212df875c5415bc46ef146be68ede6e41f4970ff70b32820c760317",
            (3.906498056037902, 3.801048695550666, 3.6993491508245753)),
        ("toy", "sr", True): (
            "e6c230394f16fc95fc4f08cdb5a070b3ba812317fa24a27ca59700ba5a7f5a67",
            (3.8783287332591163, 3.7263597770259995, 3.5801839457037303)),
        ("toy", "rw", False): (
            "7894aaa6fa4c343ec8519d2da10dbe4806779b31b2395dc2824b9a8f5ecc6768",
            (3.8473029815727195, 3.8525711982072854, 3.834003981743867)),
        ("toy", "rw", True): (
            "de4c04228b731ee250ccaaec3a323e7a93bf1027ec23c856ece97bee73077bb2",
            (3.8947437752647867, 3.8221999577636656, 3.762480639654563)),
        ("toy", "rwr", False): (
            "b08a0a9a0ebb1d1f1da42cf612cd94065e2bd05aa7ef99bfaa0c342bb942b4aa",
            (3.874768741829299, 3.9128434298235573, 3.7842469734205384)),
        ("toy", "rwr", True): (
            "be50f4e54a4ee45992466e82e0808e3e434df1f1628d160a3623e83f6ea6028b",
            (3.895867105409703, 3.8767316609184377, 3.7302849185301192)),
        ("toy", "rwisg", False): (
            "448e3f3245df609fff0833dfd7f8e86211bd88e50599ff4d37087ca4e470b684",
            (3.853907693348835, 3.845868328393875, 3.814986361633442)),
        ("toy", "rwisg", True): (
            "cb02865950d9b47e262c73575e3ce967c80526555d1269e66d4a127b12b3655f",
            (3.863434439717506, 3.824261898256842, 3.7326450475404234)),
        ("toy", "rwisg_n", False): (
            "bd0efa398ba0c503c3b19f40bc965f301a18e2ad27854fb0835c51e572d38343",
            (3.916549499816695, 3.8339730894287145, 3.762777730006337)),
        ("toy", "rwisg_n", True): (
            "30a9da6854d2dab3f6684db701fbfa7dbfe4f0c8d5db1bb41d4bacd4ecbef956",
            (3.9340806635999788, 3.809032010814979, 3.719759870805464)),
    }

    def stream(self, monkeypatch, graph, kind, neighbors):
        """Train 3 epochs and return the sha256 of every batch's positives, neighbor entries,
        negative triples and valid mask, in draw order, with the epochs' mean losses."""
        digest = hashlib.sha256()

        def corrupt(g, entries, n, filtered, rng):
            negs = corrupt_batch(g, entries, n, filtered, rng)
            digest.update(entries.tobytes() + negs.triples.tobytes() + negs.valid.tobytes())
            return negs

        def neighbors_of(g, positives, cap, rng):
            entries, weights = neighbor_entries(g, positives, cap, rng)
            digest.update(positives.tobytes() + entries.tobytes() + weights.tobytes())
            return entries, weights

        monkeypatch.setattr("kgsampler.losses.corrupt_batch", corrupt)
        monkeypatch.setattr("kgsampler.losses.neighbor_entries", neighbors_of)
        g = self.GRAPHS[graph]()
        store = initialize(g.n_entities, g.n_relations, "rotate", 4, seed=2)
        config = small_config(
            g, epochs=3, eval_every=10,
            sampler_policy=SamplerPolicy(kind=kind, batch_size=32),
            loss_config=LossConfig(margin=1.0, negatives_per_positive=4, filtered_negatives=True,
                                   neighbors_loss_enabled=neighbors, neighbor_cap=2))
        _, records = train(g, store, config)
        return digest.hexdigest(), tuple(r["mean_loss"] for r in records)

    @pytest.mark.parametrize("graph, kind, neighbors", sorted(RUNS))
    def test_stream_and_losses_equal_the_recorded_run(self, monkeypatch, graph, kind, neighbors):
        digest, mean_losses = self.stream(monkeypatch, graph, kind, neighbors)
        want_digest, want_losses = self.RUNS[graph, kind, neighbors]
        assert digest == want_digest
        assert mean_losses == pytest.approx(want_losses, rel=1e-9, abs=0)


class TestVarianceProbe:
    def test_requires_two_batches(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        with pytest.raises(ValueError):
            gradient_variance_probe(g, store, small_config(g), num_batches=1)

    def test_stub_sampler_zero_variance(self, small_random_graph):
        g = small_random_graph
        store = initialize(g.n_entities, g.n_relations, "distmult", 4, seed=1)
        fixed = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=10),
                                 np.random.default_rng(9))
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
                sampler_policy=SamplerPolicy(kind=kind, batch_size=48),
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
                g, sampler_policy=SamplerPolicy(kind=kind, batch_size=48))
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


def test_planted_graph_is_learnable():
    """A model-free oracle ranks the planted graph's held-out answers well, and sr RotatE at
    RotatE's own margin (``margin=-6``) beats a uniformly random ranking within seconds.

    The oracle answers a tail query (s, r, ?) by scoring first the entities that close a train
    triple of r's inverse relation, then those in the query's target cluster (the commonest
    object cluster of r from s's cluster in train), each group ordered by train degree. It
    answers the test triples' tail queries and those of their inverses, filtered, with ties
    counted against the answer.
    """
    clusters, relations = 10, 4
    g = planted_graph(500, clusters, relations, 4000, seed=0)
    n, n_rel = g.n_entities, g.n_relations
    known_rows = np.concatenate([g.train, g.valid, g.test])
    known = set(map(tuple, known_rows.tolist()))
    cluster = np.arange(n) * clusters // n
    counts = np.zeros((n_rel, clusters, clusters), dtype=np.int64)
    np.add.at(counts, (g.train[:, 1], cluster[g.train[:, 0]], cluster[g.train[:, 2]]), 1)
    target = counts.argmax(axis=2)
    popularity = g.degrees / (g.degrees.max() + 1.0)
    reciprocal = []
    queries = [*g.test.tolist(), *[(o, (r + relations) % n_rel, s) for s, r, o in g.test.tolist()]]
    for s, r, o in queries:
        score = popularity + (cluster == target[r, cluster[s]])
        score[g.train[(g.train[:, 1] == (r + relations) % n_rel) & (g.train[:, 2] == s), 0]] += 2
        rivals = [e for e in range(n) if e != o and (s, r, e) not in known]
        reciprocal.append(1 / (1 + np.count_nonzero(score[rivals] >= score[o])))
    oracle = np.mean(reciprocal)

    # a uniformly random order of an answer and its N - 1 unfiltered rivals has E[1/rank] = H_N / N
    harmonic = np.cumsum(1 / np.arange(1, n + 1))
    sizes = [n + 1 - np.count_nonzero((known_rows[:, 1] == r) & (known_rows[:, side] == x))
             for s, r, o in g.test.tolist() for side, x in ((2, o), (0, s))]
    baseline = np.mean([harmonic[size - 1] / size for size in sizes])

    store = initialize(n, n_rel, "rotate", 32, seed=1)
    train(g, store, TrainConfig(epochs=6, learning_rate=1e-2,
                                sampler_policy=SamplerPolicy(kind="sr", batch_size=512),
                                loss_config=LossConfig(margin=-6.0, negatives_per_positive=32)))
    trained = evaluate_split(g, store, "test", "filtered").mrr
    assert oracle > 0.5               # 0.560 measured
    assert trained > 2 * baseline     # 0.050 against 0.0137 measured
