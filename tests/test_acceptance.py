"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that need the
user-supplied FB15k-237 / WN18RR benchmark files are skipped with a notice
when those files are absent (set $KGSAMPLER_DATA_ROOT or place them under
./data).
"""

import math
import os

import numpy as np
import pytest

from kgsampler.evaluation import evaluate_split, metrics_from_ranks, rank_triple
from kgsampler.graph import load_dataset
from kgsampler.losses import (
    LossConfig,
    adversarial_weights,
    neighbors_loss_and_grads,
    softmargin_loss_and_grads,
    vanilla_loss_and_grads,
)
from kgsampler.samplers import SamplerPolicy, epoch_iterator, sample_minibatch
from kgsampler.scorers import initialize, score, score_gradient, score_triples
from kgsampler.stats import (
    averaged_distribution,
    expected_degree_of_batch,
    minibatch_degree_distribution,
)
from kgsampler.synth import dense_sampler_graph, planted_toy_graph, random_graph, variance_probe_graph
from kgsampler.trainer import TrainConfig, gradient_variance_probe, train

from conftest import known_triples

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCHMARK_DIRS = {
    "fb15k237": ("fb15k237", "FB15k-237", "fb15k-237", "FB15K237"),
    "wn18rr": ("wn18rr", "WN18RR", "wn18-rr"),
}


def report(criterion, text):
    print(f"\n[criterion {criterion}] PASS — {text}")


def skip(criterion, text):
    print(f"\n[criterion {criterion}] SKIP — {text}")
    pytest.skip(text)


def find_benchmark(key):
    roots = [os.environ.get("KGSAMPLER_DATA_ROOT", ""), os.path.join(REPO_ROOT, "data"), "data"]
    for root in roots:
        if not root:
            continue
        for name in BENCHMARK_DIRS[key]:
            d = os.path.join(root, name)
            if all(os.path.isfile(os.path.join(d, f"{s}.txt"))
                   for s in ("train", "valid", "test")):
                return d
    return None


@pytest.fixture(scope="module")
def fb15k237():
    d = find_benchmark("fb15k237")
    if d is None:
        return None
    return load_dataset(d)


def test_criterion_01_dataset_audit(fb15k237):
    wn_dir = find_benchmark("wn18rr")
    if fb15k237 is None or wn_dir is None:
        skip(1, "benchmark files not present (FB15k-237 / WN18RR are user-supplied)")
    g = fb15k237
    assert g.n_entities == 14541
    assert g.n_relations == 237
    assert len(g.train) == 272115
    assert len(g.valid) == 17535
    assert len(g.test) == 20466
    assert abs(g.degrees.mean() - 37.4) <= 0.1
    assert np.median(g.degrees) == 22

    wn = load_dataset(wn_dir)
    assert wn.n_entities == 40943
    assert wn.n_relations == 11
    assert len(wn.train) == 86835
    assert abs(wn.degrees.mean() - 4.2) <= 0.1
    assert np.median(wn.degrees) == 3
    report(1, "FB15k-237 and WN18RR audits match the published properties")


def test_criterion_02_sr_sparsity(fb15k237):
    if fb15k237 is None:
        skip(2, "FB15k-237 not present; the uniform-sampling sparsity check "
                "needs the real benchmark")
    g = fb15k237
    policy = SamplerPolicy(kind="sr", batch_size=1024, seed=0)
    hists = [minibatch_degree_distribution(m) for m in epoch_iterator(g, policy)]
    avg = averaged_distribution(hists)
    p1 = avg.probabilities[1]
    assert p1 > 0.80
    report(2, f"SR b=1024 over one epoch: P(degree=1) = {p1:.3f} > 0.80")


def test_criterion_03_rw_expected_degree(fb15k237):
    if fb15k237 is None:
        skip(3, "FB15k-237 not present; the walk expected-degree check needs "
                "the real benchmark")
    g = fb15k237
    policy = SamplerPolicy(kind="rw", batch_size=512, seed=0)
    rng = np.random.default_rng(0)
    eds = [expected_degree_of_batch(sample_minibatch(g, policy, rng=rng))
           for _ in range(100)]
    mean = float(np.mean(eds))
    assert 1.7 <= mean <= 2.3
    report(3, f"RW b=512 over 100 batches: E[D] = {mean:.3f} in [1.7, 2.3]")


def _ordering_for_graph(g, batch_sizes, n_batches=100):
    """mean/SE of E[D] per policy and batch size."""
    out = {}
    for b in batch_sizes:
        for kind in ("sr", "rw", "rwisg_n", "rwisg"):
            policy = SamplerPolicy(kind=kind, batch_size=b, seed=0)
            rng = np.random.default_rng([b, ("sr", "rw", "rwisg_n", "rwisg").index(kind)])
            eds = np.array([
                expected_degree_of_batch(sample_minibatch(g, policy, rng=rng))
                for _ in range(n_batches)
            ])
            out[(kind, b)] = (eds.mean(), eds.std(ddof=1) / np.sqrt(n_batches))
    return out


def _assert_ordering(stats, batch_sizes, label):
    chain = ("sr", "rw", "rwisg_n", "rwisg")
    for b in batch_sizes:
        for left, right in zip(chain, chain[1:]):
            ml, sl = stats[(left, b)]
            mr, sr_ = stats[(right, b)]
            sep = (mr - ml) / math.hypot(sl, sr_)
            assert sep >= 2.0, (
                f"{label} b={b}: E[D]({left})={ml:.3f} vs E[D]({right})={mr:.3f} "
                f"separated by only {sep:.1f} standard errors")


def test_criterion_04_sampler_ordering(fb15k237):
    # synthetic leg always runs; batch sizes span the same relative range of
    # the training set as the benchmark grid does on FB15k-237
    g = dense_sampler_graph(seed=0)
    batch_sizes = (32, 128, 512)
    stats = _ordering_for_graph(g, batch_sizes)
    _assert_ordering(stats, batch_sizes, "synthetic")
    detail = "; ".join(
        "b={}: {}".format(b, " < ".join(
            f"{k}={stats[(k, b)][0]:.2f}" for k in ("sr", "rw", "rwisg_n", "rwisg")))
        for b in batch_sizes)
    if fb15k237 is not None:
        fb_sizes = (256, 1024, 4096)
        fb_stats = _ordering_for_graph(fb15k237, fb_sizes)
        _assert_ordering(fb_stats, fb_sizes, "fb15k237")
        detail += "; FB15k-237 grid (256, 1024, 4096) ordered as well"
    else:
        detail += "; FB15k-237 leg skipped (benchmark absent)"
    report(4, f"E[D] ordering sr < rw < rwisg_n < rwisg at >=2 SE: {detail}")


def _fd_score_gradient(store, t, row_kind, row_id, h=1e-6):
    table = store.entities if row_kind == "entity" else store.relations
    out = np.empty(table.shape[1])
    for i in range(table.shape[1]):
        saved = table[row_id, i]
        table[row_id, i] = saved + h
        up = score(store, t)
        table[row_id, i] = saved - h
        down = score(store, t)
        table[row_id, i] = saved
        out[i] = (up - down) / (2 * h)
    return out


def _rel_err(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))


def test_criterion_05_gradient_correctness():
    worst = 0.0
    rng = np.random.default_rng(123)
    for kind in ("transe", "distmult", "complex", "rotate"):
        for k in (2, 8, 50):
            store = initialize(10, 3, kind, k, seed=int(rng.integers(1 << 30)))
            for _ in range(100):
                s, o = rng.integers(10, size=2)
                while s == o:
                    o = rng.integers(10)
                t = (int(s), int(rng.integers(3)), int(o))
                g = score_gradient(store, t)
                for row_kind, row_id, analytic in (
                    ("entity", t[0], g.d_subject),
                    ("relation", t[1], g.d_relation),
                    ("entity", t[2], g.d_object),
                ):
                    numeric = _fd_score_gradient(store, t, row_kind, row_id)
                    worst = max(worst, _rel_err(analytic, numeric))
                    assert worst < 1e-6

    # loss-level gradients: plain, adversarially reweighted, neighbor-aware
    def fd_loss(store, loss_fn, grads):
        worst_here = 0.0
        h = 1e-6
        for table_name, rows in (("entities", grads.entities),
                                 ("relations", grads.relations)):
            table = getattr(store, table_name)
            for row_id, analytic in zip(rows.ids, rows.rows):
                numeric = np.empty_like(analytic)
                for i in range(len(analytic)):
                    saved = table[row_id, i]
                    table[row_id, i] = saved + h
                    up = loss_fn(store)
                    table[row_id, i] = saved - h
                    down = loss_fn(store)
                    table[row_id, i] = saved
                    numeric[i] = (up - down) / (2 * h)
                worst_here = max(worst_here, _rel_err(analytic, numeric))
        return worst_here

    graph = random_graph(n_entities=10, n_relations=3, n_triples=60, seed=0)
    for kind in ("transe", "distmult", "complex", "rotate"):
        store = initialize(10, 3, kind, 8, seed=int(rng.integers(1 << 30)))
        t = tuple(map(int, graph.train[0]))
        negatives = [tuple(map(int, r)) for r in graph.train[1:6]]

        plain = LossConfig(margin=1.0, negatives_per_positive=5,
                           adversarial_temperature=0.0)
        _, grads = softmargin_loss_and_grads(store, t, negatives, plain)
        worst = max(worst, fd_loss(
            store, lambda st: softmargin_loss_and_grads(st, t, negatives, plain)[0],
            grads))

        adv = LossConfig(margin=1.0, negatives_per_positive=5,
                         adversarial_temperature=1.3)
        frozen = adversarial_weights(
            score_triples(store, np.asarray(negatives)), adv.adversarial_temperature)
        _, grads = softmargin_loss_and_grads(store, t, negatives, adv,
                                             frozen_weights=frozen)
        worst = max(worst, fd_loss(
            store,
            lambda st: softmargin_loss_and_grads(st, t, negatives, adv,
                                                 frozen_weights=frozen)[0],
            grads))

        from kgsampler.samplers import Minibatch
        m = Minibatch(positives=graph.train[:3])
        nl = LossConfig(margin=1.0, negatives_per_positive=4,
                        adversarial_temperature=0.0, filtered_negatives=False,
                        neighbors_loss_enabled=True, neighbor_cap=4)
        _, grads = neighbors_loss_and_grads(graph, store, m, nl,
                                            np.random.default_rng(5))
        worst = max(worst, fd_loss(
            store,
            lambda st: neighbors_loss_and_grads(graph, st, m, nl,
                                                np.random.default_rng(5))[0],
            grads))
        assert worst < 1e-6
    report(5, f"analytic vs central-difference gradients: worst relative error "
              f"{worst:.2e} < 1e-6 (4 models, K in {{2, 8, 50}}, score and loss level)")


def test_criterion_06_ranking_oracle_equivalence():
    g = random_graph(n_entities=50, n_relations=4, n_triples=350, seed=11,
                     holdout_fraction=0.2)
    store = initialize(g.n_entities, g.n_relations, "complex", 5, seed=31)
    known = known_triples(g)

    def oracle(t, protocol):
        # one score_triples call per side; rows score independently of their batch
        s, r, o = (int(x) for x in t)
        filt = protocol == "filtered"
        ranks = []
        for target, cands in ((o, [(s, r, c) for c in range(g.n_entities)]),
                              (s, [(c, r, o) for c in range(g.n_entities)])):
            scores = score_triples(store, np.asarray(cands, dtype=np.int64)).tolist()
            rank = 1
            for c, cand in enumerate(cands):
                if c == target:
                    continue
                if filt and tuple(cand) in known:
                    continue
                if scores[c] >= scores[target]:
                    rank += 1
            ranks.append(rank)
        return ranks[1], ranks[0]  # head, tail

    checked = 0
    for protocol in ("raw", "filtered"):
        split_ranks, oracle_ranks = [], []
        for t in g.test:
            res = rank_triple(g, store, t, protocol)
            head, tail = oracle(t, protocol)
            assert (res.head_rank, res.tail_rank) == (head, tail)
            split_ranks.extend([res.head_rank, res.tail_rank])
            oracle_ranks.extend([head, tail])
            checked += 1
        fast = evaluate_split(g, store, "test", protocol)
        slow = metrics_from_ranks(oracle_ranks, protocol)
        assert fast.mrr == slow.mrr and fast.mr == slow.mr
        assert fast.hits_at == slow.hits_at
    report(6, f"evaluate_split equals the per-triple brute-force oracle on every "
              f"rank ({checked} head+tail queries, raw and filtered)")


def test_criterion_07_neighbor_loss_degeneracy():
    g = random_graph(n_entities=80, n_relations=4, n_triples=600, seed=13)
    store = initialize(g.n_entities, g.n_relations, "rotate", 6, seed=17)
    base = dict(margin=4.0, negatives_per_positive=8, adversarial_temperature=1.0)
    nl_config = LossConfig(neighbors_loss_enabled=True, neighbor_cap=0, **base)
    v_config = LossConfig(neighbors_loss_enabled=False, **base)
    worst = 0.0
    for seed in range(100):
        m = sample_minibatch(g, SamplerPolicy(kind="sr", batch_size=24, seed=seed))
        nl, _ = neighbors_loss_and_grads(g, store, m, nl_config,
                                         np.random.default_rng(seed))
        vl, _ = vanilla_loss_and_grads(g, store, m, v_config,
                                       np.random.default_rng(seed))
        worst = max(worst, abs(nl - vl))
        assert worst <= 1e-12
    report(7, f"neighbor cap 0 equals the plain objective on 100 batches "
              f"(max |difference| = {worst:.1e})")


def test_criterion_08_variance_reduction():
    g = variance_probe_graph(seed=0)
    assert abs(g.degrees.mean() - 12.0) < 0.5
    store = initialize(g.n_entities, g.n_relations, "distmult", 16, seed=5)
    medians = {}
    for kind in ("sr", "rwisg"):
        config = TrainConfig(
            sampler_policy=SamplerPolicy(kind=kind, batch_size=256, seed=0),
            loss_config=LossConfig(margin=1.0, negatives_per_positive=16,
                                   adversarial_temperature=0.0),
            seed=3,
        )
        report_ = gradient_variance_probe(g, store, config, num_batches=200)
        medians[kind] = report_.median_variance(min_degree=5)
    assert medians["rwisg"] < medians["sr"]
    report(8, f"median per-entity gradient variance (degree >= 5): "
              f"rwisg {medians['rwisg']:.2e} < sr {medians['sr']:.2e}")


def test_criterion_09_desk_scale_learning():
    g = planted_toy_graph(seed=0)
    assert g.n_entities == 200 and g.n_relations == 3
    assert len(g.valid) + len(g.test) == round(0.1 * 600)

    random_store = initialize(g.n_entities, g.n_relations, "rotate", 32, seed=99)
    baseline = evaluate_split(g, random_store, "test", "filtered").mrr

    store = initialize(g.n_entities, g.n_relations, "rotate", 32, seed=7)
    config = TrainConfig(
        epochs=300,
        learning_rate=3e-3,
        sampler_policy=SamplerPolicy(kind="rwisg", batch_size=128, seed=1),
        loss_config=LossConfig(margin=6.0, negatives_per_positive=64,
                               adversarial_temperature=1.0),
        seed=2,
    )
    train(g, store, config)
    trained = evaluate_split(g, store, "test", "filtered").mrr
    assert trained >= 10 * baseline
    report(9, f"held-out filtered MRR {trained:.3f} >= 10 x random baseline "
              f"{baseline:.4f} (rotation model, K=32, 300 epochs)")


def test_criterion_10_full_scale_runs_documented_not_run():
    readme = os.path.join(REPO_ROOT, "README.md")
    assert os.path.isfile(readme), "README.md missing"
    with open(readme, encoding="utf-8") as fh:
        text = fh.read().lower()
    assert "db100k" in text, "README must document the full-scale commands"
    assert "rwisg_n" in text
    assert "0.396" in text and "0.296" in text, \
        "README must state the expected full-scale results"
    # the acceptance suite itself never trains at that scale; the commands
    # live in the README only
    report(10, "full-scale benchmark commands and expected results are "
               "documented in the README and excluded from this suite")
