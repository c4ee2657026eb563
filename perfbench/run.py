"""kgsampler benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. run.py generates the workload's graph
from the seed with ``kgsampler.synth`` and writes it as TSV under
``perfbench/out/`` (untimed), then runs the workload in its own
single-threaded process (``workloads.py``), so the peak RSS it reports is
the program's alone. It prints report lines, writes the run record to
``perfbench/out/``, and prints the result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of all three workloads' calls, so that every run
reports every metric the manifest declares for its mode. Workloads, metrics
and checks are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import spec

# One thread for BLAS and OpenMP in this process and in the workload process
# it starts: each workload is one caller on one core.
PINNED_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}
# The whole run, graph generation included, ends within this many seconds.
DEADLINE_S = 170


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="kgsampler benchmark runner")
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", required=True, type=non_negative_int)
    p.add_argument("--seconds", required=True, type=positive_int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join(spec.SRC, "kgsampler", "__init__.py")):
        print(f"perfbench: no kgsampler package under {spec.SRC}; "
              "run from the root of a kgsampler checkout", file=sys.stderr)
        return 2

    os.environ.update(PINNED_THREADS)
    # Fixed string hashing, so the name dicts load_dataset builds have the
    # same layout, and cost, in every run.
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, spec.SRC)
    os.makedirs(spec.OUT, exist_ok=True)
    data = tempfile.mkdtemp(prefix=f"data-{args.workload}-", dir=spec.OUT)
    try:
        # A traced run profiles every workload's calls, so it needs every graph.
        for workload in spec.WORKLOADS if args.trace else (args.workload,):
            graph_dir = os.path.join(data, spec.graph_name(workload))
            if not os.path.isdir(graph_dir):
                spec.generate_dataset(workload, args.seed, graph_dir)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--data", data],
            stdout=subprocess.PIPE, text=True, cwd=spec.ROOT,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    record_path = os.path.join(
        spec.OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({**out["record"], "result": out["result"]}, fh, indent=1)
    rec = out["record"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: nproc={rec['nproc']} "
          f"python={rec['python']} numpy={rec['numpy']} loop={rec['loop']}")
    print(f"wait time: {rec['wait_time']}")
    if "measure_phase_cpu" in rec:
        cpu = rec["measure_phase_cpu"]
        print(f"measure phase: user {cpu['user_s']:.2f} s, sys {cpu['sys_s']:.2f} s, "
              f"{cpu['minor_faults']} minor page faults")
    for line in out["report"]:
        print(line)
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"record: {os.path.relpath(record_path, spec.ROOT)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
