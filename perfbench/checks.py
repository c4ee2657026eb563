"""Output checks for the benchmark workloads.

Each check returns the number of failed operations (batches or triples), so
the result line can count failures against attempts. The references live in
``reference.json``; ``calibrate.py`` rebuilds them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# An E[D] point may sit this many cross-seed standard deviations from its
# reference before it counts as wrong.
ED_BAND_SDS = 6.0
# MRR is a float mean, so a different summation order may change its last
# bits; MR and Hits@k are exact for integer ranks.
MRR_RTOL = 1e-12


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def point_key(policy: str, batch_size: int) -> str:
    return f"{policy}/{batch_size}"


# --- train_sr ----------------------------------------------------------------

def loss_ok(loss: float, reference: dict) -> bool:
    """A finite epoch loss within the reference tolerance."""
    ref = reference["loss"]
    return math.isfinite(loss) and abs(loss - ref["mean"]) <= ref["tolerance"]


def epoch_failures(losses, batches_per_epoch: int, reference: dict) -> int:
    """Batches of epochs whose loss is wrong.

    Every epoch of a run trains the same fresh store with the same seed, so
    besides matching the reference each loss must equal the first one.
    """
    failed = 0
    for loss in losses:
        if not (loss_ok(loss, reference) and loss == losses[0]):
            failed += batches_per_epoch
    return failed


# --- eval_filtered -------------------------------------------------------------

def pack(spo: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    spo = np.asarray(spo, dtype=np.int64)
    return (spo[..., 0] * n_relations + spo[..., 1]) * n_entities + spo[..., 2]


def known_keys(splits, n_entities: int, n_relations: int) -> np.ndarray:
    """Sorted keys of every triple in the given splits (the filter set)."""
    return np.unique(pack(np.concatenate(splits), n_entities, n_relations))


def oracle_ranks(store, score_triples, triples, known: np.ndarray,
                 n_entities: int, n_relations: int) -> list:
    """Filtered (head, tail) ranks by brute force over every candidate triple.

    Candidates forming a known triple are skipped; ties count against the
    target, as in ``evaluation.rank_triple``.
    """
    cand = np.arange(n_entities, dtype=np.int64)
    ranks = []
    for s, r, o in np.asarray(triples, dtype=np.int64):
        pair = []
        for target, rows in ((s, np.stack([cand, np.full_like(cand, r), np.full_like(cand, o)], 1)),
                             (o, np.stack([np.full_like(cand, s), np.full_like(cand, r), cand], 1))):
            scores = score_triples(store, rows)
            keys = pack(rows, n_entities, n_relations)
            at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
            allowed = known[at] != keys
            allowed[target] = False
            pair.append(1 + int(np.count_nonzero(allowed & (scores >= scores[target]))))
        ranks.append(tuple(pair))
    return ranks


def rank_failures(ranks, expected) -> int:
    """Triples whose (head, tail) ranks differ from the oracle's."""
    if len(ranks) != len(expected):
        return max(len(ranks), len(expected))
    return sum(1 for got, want in zip(ranks, expected) if tuple(got) != tuple(want))


def metrics_match(got, want) -> bool:
    """Aggregate metrics equal, up to summation order in the MRR."""
    return (got.count == want.count and got.protocol == want.protocol
            and got.mr == want.mr and got.hits_at == want.hits_at
            and math.isclose(got.mrr, want.mrr, rel_tol=MRR_RTOL, abs_tol=0.0))


# --- sample_sweep ----------------------------------------------------------------

def sweep_failures(rows, reference: dict, batches_per_point: int) -> int:
    """Batches of sweep points whose E[D] is out of band or out of order.

    A point is wrong when its E[D] is not finite, lies more than
    ``ED_BAND_SDS`` cross-seed standard deviations from its reference, or,
    for ``sr``, is not below every walk policy at the same batch size.
    """
    refs = reference["expected_degree"]
    by_point = {point_key(r["policy"], r["batch_size"]): r for r in rows}
    bad = set()
    for key, ref in refs.items():
        row = by_point.get(key)
        if row is None or row["num_batches"] != batches_per_point:
            bad.add(key)
            continue
        ed = row["expected_degree"]
        if not (math.isfinite(ed) and abs(ed - ref["mean"]) <= ED_BAND_SDS * ref["sd"]):
            bad.add(key)
    for row in rows:
        if row["policy"] != "sr":
            continue
        walks = [r["expected_degree"] for r in rows
                 if r["batch_size"] == row["batch_size"] and r["policy"] != "sr"]
        if not walks or row["expected_degree"] >= min(walks):
            bad.add(point_key("sr", row["batch_size"]))
    bad |= set(by_point) - set(refs)
    return len(bad) * batches_per_point
