"""Workload definitions shared by the benchmark runner (run.py) and its workload process.

Every workload runs RotatE at K=64 on a synthetic FB15k-237-shaped graph
(``random_graph(14500, 237, 272000)``) generated from the run's seed.
"""

from __future__ import annotations

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("train_sr", "eval_filtered", "sample_sweep")

N_ENTITIES, N_RELATIONS, N_TRIPLES = 14500, 237, 272000
FULL_HOLDOUT = 0.02

MODEL, DIMENSION = "rotate", 64
BATCH_SIZE = 1024
NEGATIVES = 64
ADVERSARIAL_TEMPERATURE = 1.0

# train_sr keeps only TRAIN_BATCHES batches of triples in its train split so
# that several whole epochs fit in one run; the rest is held out, which keeps
# the filtered-negative index at the full graph's 272k triples.
TRAIN_BATCHES = 1
# Batches in an sr epoch over the full graph's train split (261).
FULL_GRAPH_SR_BATCHES = -(-(N_TRIPLES - round(FULL_HOLDOUT * N_TRIPLES)) // BATCH_SIZE)

EVAL_TRIPLES = 40             # the fixed slice: the first triples of the test split

SWEEP_KINDS = ("sr", "rw", "rwr", "rwisg", "rwisg_n")
SWEEP_SIZES = (256, 1024)
SWEEP_BATCHES_PER_POINT = 30  # the minimum ed_vs_batchsize_sweep accepts

SETUP_REPS = 3                # setup_s is the median of this many set-ups


def graph_name(workload: str) -> str:
    """The graph a workload runs on: ``train_sr`` has its own split, the others share one."""
    return "train" if workload == "train_sr" else "full"


def holdout_fraction(workload: str) -> float:
    if workload == "train_sr":
        return (N_TRIPLES - TRAIN_BATCHES * BATCH_SIZE) / N_TRIPLES
    return FULL_HOLDOUT


def generate_dataset(workload: str, seed: int, directory: str) -> None:
    """Write the workload's graph for ``seed`` as train/valid/test TSV files."""
    from kgsampler.synth import random_graph, write_dataset

    g = random_graph(N_ENTITIES, N_RELATIONS, N_TRIPLES, seed=seed,
                     holdout_fraction=holdout_fraction(workload))
    write_dataset(g, directory)
