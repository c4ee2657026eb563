"""Tests of the benchmark itself: its output checks and its seeding.

    python3 -m pytest -q perfbench/test_perfbench.py

The last test runs every workload for one second on two seeds, traced and
untraced, and takes about five minutes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import checks
import spec

sys.path.insert(0, spec.SRC)

from kgsampler.evaluation import metrics_from_ranks, rank_triple  # noqa: E402
from kgsampler.scorers import initialize, score_triples  # noqa: E402
from kgsampler.synth import random_graph  # noqa: E402

REFERENCE = checks.load_reference()


# --- each check rejects a wrong output --------------------------------------------

def test_loss_check_accepts_reference_and_rejects_nan_and_drift():
    ref = REFERENCE["loss"]
    assert checks.epoch_failures([ref["mean"]] * 3, 2, REFERENCE) == 0
    assert not checks.loss_ok(float("nan"), REFERENCE)
    assert checks.epoch_failures([ref["mean"], float("nan")], 2, REFERENCE) == 2
    drifted = ref["mean"] + 2 * ref["tolerance"]
    assert checks.epoch_failures([drifted], 2, REFERENCE) == 2


def test_loss_check_rejects_a_nondeterministic_epoch():
    ref = REFERENCE["loss"]
    other = ref["mean"] + ref["tolerance"] / 2
    assert checks.epoch_failures([ref["mean"], other], 2, REFERENCE) == 2


@pytest.fixture(scope="module")
def ranked():
    g = random_graph(n_entities=60, n_relations=4, n_triples=400, seed=3, holdout_fraction=0.2)
    store = initialize(g.n_entities, g.n_relations, "rotate", 8, seed=5)
    triples = g.test[:20]
    known = checks.known_keys((g.train, g.valid, g.test), g.n_entities, g.n_relations)
    oracle = checks.oracle_ranks(store, score_triples, triples, known, g.n_entities, g.n_relations)
    ranks = []
    for t in triples:
        res = rank_triple(g, store, t, "filtered")
        ranks.append((res.head_rank, res.tail_rank))
    return ranks, oracle


def test_rank_check_accepts_the_program_and_rejects_a_rank_off_by_one(ranked):
    ranks, oracle = ranked
    assert checks.rank_failures(ranks, oracle) == 0
    off = list(ranks)
    off[7] = (off[7][0], off[7][1] + 1)
    assert checks.rank_failures(off, oracle) == 1

    want = metrics_from_ranks([r for pair in oracle for r in pair], "filtered")
    got = metrics_from_ranks([r for pair in ranks for r in pair], "filtered")
    bad = metrics_from_ranks([r for pair in off for r in pair], "filtered")
    assert checks.metrics_match(got, want)
    assert not checks.metrics_match(bad, want)


def reference_rows():
    rows = []
    for key, ref in REFERENCE["expected_degree"].items():
        policy, b = key.split("/")
        rows.append({"policy": policy, "batch_size": int(b), "expected_degree": ref["mean"],
                     "std_error": ref["sd"], "num_batches": spec.SWEEP_BATCHES_PER_POINT})
    return rows


def test_sweep_check_accepts_reference_and_rejects_out_of_band():
    n = spec.SWEEP_BATCHES_PER_POINT
    assert checks.sweep_failures(reference_rows(), REFERENCE, n) == 0

    rows = reference_rows()
    ref = REFERENCE["expected_degree"]["rwisg/1024"]
    for row in rows:
        if (row["policy"], row["batch_size"]) == ("rwisg", 1024):
            row["expected_degree"] = ref["mean"] + (checks.ED_BAND_SDS + 1) * ref["sd"]
    assert checks.sweep_failures(rows, REFERENCE, n) == n

    rows = reference_rows()
    rows[0]["expected_degree"] = math.nan
    assert checks.sweep_failures(rows, REFERENCE, n) >= n

    assert checks.sweep_failures(reference_rows()[1:], REFERENCE, n) == n


def test_sweep_check_rejects_sr_above_a_walk_policy():
    n = spec.SWEEP_BATCHES_PER_POINT
    rows = reference_rows()
    sr = next(r for r in rows if (r["policy"], r["batch_size"]) == ("sr", 256))
    rw = next(r for r in rows if (r["policy"], r["batch_size"]) == ("rw", 256))
    sr["expected_degree"], rw["expected_degree"] = rw["expected_degree"], sr["expected_degree"]
    assert checks.sweep_failures(rows, REFERENCE, n) >= n


# --- seeding --------------------------------------------------------------------

def dataset_digest(workload, seed):
    with tempfile.TemporaryDirectory() as d:
        spec.generate_dataset(workload, seed, d)
        h = hashlib.sha256()
        for name in ("train.txt", "valid.txt", "test.txt"):
            with open(os.path.join(d, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


def test_seed_fixes_the_generated_inputs():
    assert dataset_digest("train_sr", 4) == dataset_digest("train_sr", 4)
    assert dataset_digest("train_sr", 4) != dataset_digest("train_sr", 5)


def run_benchmark(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(spec.ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300, cwd=spec.ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_seed_changes_values_but_not_metric_names(workload):
    with open(os.path.join(spec.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        a, b = (run_benchmark(workload, seed, trace) for seed in (11, 12))
        assert a["correct"] and b["correct"] and a["failed"] == b["failed"] == 0
        assert set(a["metrics"]) == set(b["metrics"]) == {m["name"] for m in declared}
        assert a["metrics"] != b["metrics"]
