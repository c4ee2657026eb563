"""Rebuild perfbench/reference.json, the references the output checks use.

    python3 perfbench/calibrate.py

For each calibration seed it generates the workload graph exactly as a
benchmark run does and records the first-epoch ``train_sr`` loss and one
``sample_sweep`` unit's E[D] per point. The references are the means over
seeds; the tolerances come from the spread across seeds. Rerun it only when
the program's intended outputs change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile

from run import PINNED_THREADS

os.environ.update(PINNED_THREADS)

import checks  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from kgsampler import graph, stats  # noqa: E402

LOSS_SEEDS = range(10)
ED_SEEDS = range(30)
# The train_sr loss may sit this many cross-seed standard deviations from
# its reference mean.
LOSS_BAND_SDS = 6.0


def with_graph(workload: str, seed: int, fn):
    data = tempfile.mkdtemp(prefix="calibrate-", dir=spec.OUT)
    try:
        spec.generate_dataset(workload, seed, data)
        return fn(graph.load_dataset(data))
    finally:
        shutil.rmtree(data, ignore_errors=True)


def main() -> int:
    os.makedirs(spec.OUT, exist_ok=True)
    loss_values = []
    for seed in LOSS_SEEDS:
        _, loss = with_graph("train_sr", seed,
                             lambda g: workloads.train_epoch(g, seed, workloads.train_config(seed)))
        loss_values.append(loss)
        print(f"train_sr seed {seed}: mean loss {loss!r}", file=sys.stderr)
    loss_sd = statistics.stdev(loss_values)

    points: dict = {}
    for seed in ED_SEEDS:
        rows = with_graph("sample_sweep", seed, lambda g: stats.ed_vs_batchsize_sweep(
            g, workloads.sweep_policies(), spec.SWEEP_SIZES, spec.SWEEP_BATCHES_PER_POINT,
            seed=workloads.sweep_seed(seed, 0)))
        for row in rows:
            points.setdefault(checks.point_key(row["policy"], row["batch_size"]), []).append(
                row["expected_degree"])
        print(f"sample_sweep seed {seed} done", file=sys.stderr)

    reference = {
        "loss": {
            "mean": statistics.fmean(loss_values),
            "sd": loss_sd,
            "tolerance": LOSS_BAND_SDS * loss_sd,
            "seeds": len(loss_values),
        },
        "expected_degree": {
            key: {"mean": statistics.fmean(v), "sd": statistics.stdev(v), "seeds": len(v)}
            for key, v in points.items()
        },
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(json.dumps(reference, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
