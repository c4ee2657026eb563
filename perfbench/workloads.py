"""One benchmark workload, run in its own single-threaded process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --data DIR

``run.py`` writes the workload's graph to DIR and starts this process with
BLAS and OpenMP pinned to one thread. The process loads the graph, runs the
workload as a closed loop of one caller for S seconds, checks every output
and prints one JSON object as its last stdout line: the result, the run
record and the report lines.

Untraced runs (``--trace 0``) give the end-to-end metrics of the named
workload. Traced runs (``--trace 1``) give the per-layer metrics of the whole
program: whichever workload is named, they run the traced calls of all three
workloads in turn, a third of S seconds each, so every traced run reports
every per-layer metric. They make the same calls into the kgsampler modules
that ``trainer.train``, ``evaluation.evaluate_split`` and
``stats.ed_vs_batchsize_sweep`` make, with a span around each, and they
alternate each traced unit of work with an untraced one to measure the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import checks
import spec
from tracing import Tracer

sys.path.insert(0, spec.SRC)

from kgsampler import evaluation, graph, losses, samplers, scorers, stats, trainer  # noqa: E402

# Per-batch times that ROADMAP.md recorded by hand before this benchmark
# existed; traced runs print their own numbers beside them.
ROADMAP_BASELINE = {
    "loss_grad_s": 1.66,
    "adam_step_s": 0.11,
    "eval_ms_per_triple": 21.5,
    "filter_maps_s": 3.6,
    "load_s": 1.4,
    "rw_sample_ms": 11.7,
    "rwisg_n_positives": 18720,
}


class Run:
    """What one workload run reports."""

    def __init__(self, args):
        self.args = args
        self.workload = args.workload  # the workload being measured; traced runs step through all
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.report = []
        self.record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed, one caller",
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "wait_time": "not measured: nothing waits on a queue in a one-caller closed loop",
        }

    def metric(self, name: str, value, unit: str):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def count(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    def timings(self, name: str, seconds: list):
        self.record[name] = {"n": len(seconds), "median": statistics.median(seconds),
                             "min": min(seconds), "max": max(seconds), "values": seconds}

    def baseline(self, what: str, traced: float, roadmap: float, unit: str):
        self.report.append(f"baseline  {what:<40} traced {traced:>10.4g} {unit:<3}"
                           f"  ROADMAP {roadmap:>8.4g} {unit}")

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def untraced_span(name, unit=None, probe=False):
    return contextlib.nullcontext()


def traced_seconds(run) -> float:
    """Each workload's share of a traced run."""
    return run.args.seconds / len(spec.WORKLOADS)


def until(seconds: float):
    """Unit indices 0, 1, ... until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    unit = 0
    while unit == 0 or time.perf_counter() - start < seconds:
        yield unit
        unit += 1


def graph_dir(data: str, workload: str) -> str:
    return os.path.join(data, spec.graph_name(workload))


def new_store(g, seed: int):
    return scorers.initialize(g.n_entities, g.n_relations, spec.MODEL, spec.DIMENSION, seed=seed)


def set_up(workload: str, data: str, seed: int, span=untraced_span):
    """Make the program ready: load, initialize, build the first-use index."""
    with span("graph.load_dataset"):
        g = graph.load_dataset(data)
    store = None
    if workload != "sample_sweep":
        with span("scorers.initialize"):
            store = new_store(g, seed)
    if workload == "train_sr":
        with span("graph.contains_triples"):
            g.contains_triples(g.train[:1])
    elif workload == "eval_filtered":
        s, r, _ = (int(x) for x in g.test[0])
        with span("graph.filter_objects"):
            g.filter_objects(s, r)
    return g, store


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms(seconds: float) -> float:
    return seconds * 1e3


# --- train_sr ---------------------------------------------------------------------

def train_config(seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        epochs=1,
        optimizer="adam",
        sampler_policy=samplers.SamplerPolicy(kind="sr", batch_size=spec.BATCH_SIZE),
        loss_config=losses.LossConfig(
            negatives_per_positive=spec.NEGATIVES,
            adversarial_temperature=spec.ADVERSARIAL_TEMPERATURE,
            filtered_negatives=True,
        ),
        seed=seed,
    )


def check_train_split(g):
    want = spec.TRAIN_BATCHES * spec.BATCH_SIZE
    if g.n_train != want:
        raise SystemExit(f"train_sr: train split has {g.n_train} triples, expected {want}")


def train_epoch(g, seed: int, cfg) -> tuple:
    """One ``trainer.train`` epoch on a fresh store: (seconds, mean loss)."""
    store = new_store(g, seed)
    t0 = time.perf_counter()
    _, records = trainer.train(g, store, cfg)
    return time.perf_counter() - t0, records[0]["mean_loss"]


def train_sr(run, g, _store, reference):
    check_train_split(g)
    cfg = train_config(run.args.seed)
    epoch_batches = samplers.batches_per_epoch(g, cfg.sampler_policy)
    # An untimed first epoch: it grows the heap, which later epochs reuse.
    _, loss = train_epoch(g, run.args.seed, cfg)
    times, mean_losses = [], [loss]
    for _ in until(run.args.seconds):
        seconds, loss = train_epoch(g, run.args.seed, cfg)
        times.append(seconds)
        mean_losses.append(loss)
    run.count(len(mean_losses) * epoch_batches,
              checks.epoch_failures(mean_losses, epoch_batches, reference))
    run.timings("epoch_s", times)
    run.record["mean_loss"] = mean_losses
    run.metric("ms_per_op", ms(statistics.median(times)) / epoch_batches, "ms")


def traced_train_epoch(tr, g, store, cfg, epoch: int, first_batch: int, counts: dict):
    """The calls ``trainer.train`` makes for one epoch, in order, each in a span.

    Returns the epoch's mean loss, the last batch and its negatives.
    """
    lc = cfg.loss_config
    with tr.span("bench.epoch", unit=f"epoch{epoch}"):
        with tr.span("trainer.make_optimizer", unit=f"epoch{epoch}"):
            optimizer = trainer.make_optimizer(store, cfg)
        sample_seed, corrupt_seed = np.random.SeedSequence(cfg.seed).spawn(2)
        corrupt_rng = np.random.default_rng(corrupt_seed)
        batches = samplers.epoch_iterator(g, cfg.sampler_policy,
                                          rng=np.random.default_rng(sample_seed))
        total_loss, total_pos = 0.0, 0
        n_batches = samplers.batches_per_epoch(g, cfg.sampler_policy)
        for b in range(first_batch, first_batch + n_batches):
            with tr.span("samplers.epoch_iterator", unit=b):
                m = next(batches)
            with tr.span("losses.corrupt_batch", unit=b):
                negs = losses.corrupt_batch(g, m.positives, lc.negatives_per_positive,
                                            lc.filtered_negatives, corrupt_rng)
            with tr.span("losses.softmargin_batch_loss_and_grads", unit=b):
                loss, grads = losses.softmargin_batch_loss_and_grads(store, m.positives, negs, lc)
            with tr.span("trainer.optimizer_step", unit=b):
                optimizer.step(store, grads)
            total_loss += loss
            total_pos += len(m)
            counts["invalid_negatives"].append(int((~negs.valid).sum()))
            counts["score_rows"].append(len(m) * (1 + lc.negatives_per_positive))
            counts["grad_rows_entities"].append(len(grads.entities))
            counts["grad_rows_relations"].append(len(grads.relations))
    return total_loss / max(total_pos, 1), m, negs


def probe_train_batch(tr, g, store, m, negs, unit) -> tuple:
    """Time the graph and scorer kernels on one batch's rows, off the blocking path.

    Returns (keys probed, rows probed).
    """
    with tr.span("probe.graph.contains_triples", unit=unit, probe=True):
        g.contains_triples(negs.triples)
    rows = np.concatenate([m.positives, negs.triples.reshape(-1, 3)])
    with tr.span("probe.scorers.score_triples", unit=unit, probe=True):
        scorers.score_triples(store, rows)
    with tr.span("probe.scorers.score_gradients", unit=unit, probe=True):
        scorers.score_gradients(store, rows)
    return negs.triples.shape[0] * negs.triples.shape[1], len(rows)


def train_sr_traced(run, tr, g, _store, reference):
    check_train_split(g)
    seed = run.args.seed
    cfg = train_config(seed)
    epoch_batches = samplers.batches_per_epoch(g, cfg.sampler_policy)
    counts = {k: [] for k in ("invalid_negatives", "score_rows",
                              "grad_rows_entities", "grad_rows_relations")}
    untraced, traced = [], []
    n_keys = n_rows = 0
    for epoch in until(traced_seconds(run)):
        seconds, plain_loss = train_epoch(g, seed, cfg)
        untraced.append(seconds)
        store = new_store(g, seed)
        t0 = time.perf_counter()
        loss, m, negs = traced_train_epoch(tr, g, store, cfg, epoch,
                                           epoch * epoch_batches, counts)
        traced.append(time.perf_counter() - t0)
        ok = loss == plain_loss and checks.loss_ok(loss, reference)
        run.count(2 * epoch_batches, 0 if ok else 2 * epoch_batches)
        n_keys, n_rows = probe_train_batch(tr, g, store, m, negs, (epoch + 1) * epoch_batches - 1)

    n_batches = len(traced) * epoch_batches
    loss_grad = statistics.median(tr.durations("losses.softmargin_batch_loss_and_grads"))
    step = statistics.median(tr.durations("trainer.optimizer_step"))
    run.metric("graph.packed_index_s", tr.durations("graph.contains_triples")[0], "s")
    run.metric("graph.contains_us_per_key",
               1e6 * statistics.median(tr.durations("probe.graph.contains_triples")) / n_keys, "us")
    run.metric("losses.corrupt_ms", ms(statistics.median(tr.durations("losses.corrupt_batch"))), "ms")
    run.metric("losses.loss_grad_ms", ms(loss_grad), "ms")
    for name, values in counts.items():
        run.metric(f"losses.{name}", statistics.fmean(values), "count")
    run.metric("scorers.score_us_per_row",
               1e6 * statistics.median(tr.durations("probe.scorers.score_triples")) / n_rows, "us")
    run.metric("scorers.grad_us_per_row",
               1e6 * statistics.median(tr.durations("probe.scorers.score_gradients")) / n_rows, "us")
    run.metric("trainer.step_ms", ms(step), "ms")
    report_self_times(run, tr, n_batches, ("losses", "trainer"))
    report_overhead(run, traced, untraced)

    per_batch = statistics.median(traced) / epoch_batches
    run.baseline("loss+grad per sr batch", loss_grad, ROADMAP_BASELINE["loss_grad_s"], "s")
    run.baseline("Adam step per sr batch", step, ROADMAP_BASELINE["adam_step_s"], "s")
    run.report.append(f"projected full-graph sr epoch: {spec.FULL_GRAPH_SR_BATCHES} batches x "
                      f"{per_batch:.3f} s = {spec.FULL_GRAPH_SR_BATCHES * per_batch:.0f} s")


# --- eval_filtered ------------------------------------------------------------------

def eval_slice(g):
    return g.test[:spec.EVAL_TRIPLES]


def eval_oracle(g, store, triples) -> tuple:
    """Brute-force (head, tail) ranks and the metrics they aggregate to."""
    known = checks.known_keys((g.train, g.valid, g.test), g.n_entities, g.n_relations)
    ranks = checks.oracle_ranks(store, scorers.score_triples, triples, known,
                                g.n_entities, g.n_relations)
    flat = [r for pair in ranks for r in pair]
    return ranks, evaluation.metrics_from_ranks(flat, "filtered")


def eval_filtered(run, g, store, _reference):
    triples = eval_slice(g)
    _, want = eval_oracle(g, store, triples)
    times = []
    for _ in until(run.args.seconds):
        t0 = time.perf_counter()
        got = evaluation.evaluate_split(g, store, triples, "filtered")
        times.append(time.perf_counter() - t0)
        run.count(len(triples), 0 if checks.metrics_match(got, want) else len(triples))
    run.timings("unit_s", times)
    run.metric("ms_per_op", ms(statistics.median(times)) / len(triples), "ms")


def eval_filtered_traced(run, tr, g, store, _reference):
    triples = eval_slice(g)
    expected, want = eval_oracle(g, store, triples)
    untraced, traced, filtered_ids = [], [], []
    for u in until(traced_seconds(run)):
        t0 = time.perf_counter()
        got = evaluation.evaluate_split(g, store, triples, "filtered")
        untraced.append(time.perf_counter() - t0)
        run.count(len(triples), 0 if checks.metrics_match(got, want) else len(triples))

        t0 = time.perf_counter()
        ranks = []
        with tr.span("bench.unit", unit=f"unit{u}"):
            for i, t in enumerate(triples):
                with tr.span("evaluation.rank_triple", unit=u * len(triples) + i):
                    res = evaluation.rank_triple(g, store, t, "filtered")
                ranks.append((res.head_rank, res.tail_rank))
            with tr.span("evaluation.metrics_from_ranks", unit=f"unit{u}"):
                evaluation.metrics_from_ranks([r for pair in ranks for r in pair], "filtered")
        traced.append(time.perf_counter() - t0)
        run.count(len(triples), checks.rank_failures(ranks, expected))

        for i, t in enumerate(triples):
            s, r, o = (int(x) for x in t)
            q = u * len(triples) + i
            with tr.span("probe.graph.filter_lookup", unit=q, probe=True):
                objs = g.filter_objects(s, r)
                subjs = g.filter_subjects(r, o)
            filtered_ids += [len(objs), len(subjs)]
            with tr.span("probe.scorers.all_entity", unit=q, probe=True):
                scorers.score_against_all_objects(store, s, r)
                scorers.score_against_all_subjects(store, r, o)

    rank = statistics.median(tr.durations("evaluation.rank_triple"))
    filter_maps = tr.durations("graph.filter_objects")[0]
    load = tr.durations("graph.load_dataset")[0]
    run.metric("graph.load_s", load, "s")
    run.metric("graph.filter_maps_s", filter_maps, "s")
    run.metric("graph.filter_lookup_us",
               1e6 * statistics.median(tr.durations("probe.graph.filter_lookup")), "us")
    run.metric("scorers.all_entity_ms",
               ms(statistics.median(tr.durations("probe.scorers.all_entity"))), "ms")
    run.metric("evaluation.rank_ms", ms(rank), "ms")
    run.metric("evaluation.filtered_ids_per_query", statistics.fmean(filtered_ids), "count")
    report_self_times(run, tr, len(traced) * len(triples), ("evaluation",))
    report_overhead(run, traced, untraced)

    run.baseline("eval per triple (rank_triple)", ms(rank),
                 ROADMAP_BASELINE["eval_ms_per_triple"], "ms")
    run.baseline("filter maps build", filter_maps, ROADMAP_BASELINE["filter_maps_s"], "s")
    run.baseline("load_dataset", load, ROADMAP_BASELINE["load_s"], "s")


# --- sample_sweep ---------------------------------------------------------------------

def sweep_policies():
    return [samplers.SamplerPolicy(kind=k) for k in spec.SWEEP_KINDS]


def sweep_seed(seed: int, unit: int) -> int:
    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


def sweep_batches() -> int:
    return len(spec.SWEEP_KINDS) * len(spec.SWEEP_SIZES) * spec.SWEEP_BATCHES_PER_POINT


def sample_sweep(run, g, _store, reference):
    policies = sweep_policies()
    times = []
    for u in until(run.args.seconds):
        t0 = time.perf_counter()
        rows = stats.ed_vs_batchsize_sweep(g, policies, spec.SWEEP_SIZES,
                                           spec.SWEEP_BATCHES_PER_POINT,
                                           seed=sweep_seed(run.args.seed, u))
        times.append(time.perf_counter() - t0)
        run.count(sweep_batches(),
                  checks.sweep_failures(rows, reference, spec.SWEEP_BATCHES_PER_POINT))
    run.timings("unit_s", times)
    run.metric("ms_per_op", ms(statistics.median(times)) / sweep_batches(), "ms")


def traced_sweep(tr, g, policies, seed: int, unit: int, points: dict) -> list:
    """The calls ``stats.ed_vs_batchsize_sweep`` makes, each in a span."""
    rows = []
    ss = np.random.SeedSequence(seed)
    with tr.span("bench.unit", unit=f"unit{unit}"):
        for policy in policies:
            for b in spec.SWEEP_SIZES:
                rng = np.random.default_rng(ss.spawn(1)[0])
                pol = dataclasses.replace(policy, batch_size=b)
                point = points.setdefault(checks.point_key(pol.kind, b),
                                          {"sample_s": [], "positives": [], "restarts": [],
                                           "ed": []})
                eds = []
                for i in range(spec.SWEEP_BATCHES_PER_POINT):
                    batch_id = f"{unit}/{pol.kind}/{b}/{i}"
                    with tr.span("samplers.sample_minibatch", unit=batch_id) as sp:
                        m = samplers.sample_minibatch(g, pol, rng=rng)
                    point["sample_s"].append(sp["end"] - sp["start"])
                    point["positives"].append(len(m))
                    point["restarts"].append(m.restarts)
                    with tr.span("stats.expected_degree_of_batch", unit=batch_id):
                        eds.append(stats.expected_degree_of_batch(m))
                eds = np.array(eds)
                point["ed"].append(float(eds.mean()))
                rows.append({
                    "policy": pol.kind,
                    "batch_size": b,
                    "expected_degree": float(eds.mean()),
                    "std_error": float(eds.std(ddof=1) / np.sqrt(len(eds))),
                    "num_batches": spec.SWEEP_BATCHES_PER_POINT,
                })
    return rows


def sample_sweep_traced(run, tr, g, _store, reference):
    policies = sweep_policies()
    untraced, traced, points = [], [], {}
    for u in until(traced_seconds(run)):
        seed = sweep_seed(run.args.seed, u)
        t0 = time.perf_counter()
        plain = stats.ed_vs_batchsize_sweep(g, policies, spec.SWEEP_SIZES,
                                            spec.SWEEP_BATCHES_PER_POINT, seed=seed)
        untraced.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        rows = traced_sweep(tr, g, policies, seed, u, points)
        traced.append(time.perf_counter() - t0)
        bad = checks.sweep_failures(rows, reference, spec.SWEEP_BATCHES_PER_POINT)
        run.count(2 * sweep_batches(), 2 * sweep_batches() if rows != plain else 2 * bad)

    for key, point in points.items():
        kind, b = key.split("/")
        run.metric(f"samplers.sample_ms.{kind}.{b}", ms(statistics.median(point["sample_s"])), "ms")
        run.metric(f"samplers.positives_per_batch.{kind}.{b}",
                   statistics.fmean(point["positives"]), "count")
        run.metric(f"samplers.restarts_per_batch.{kind}.{b}",
                   statistics.fmean(point["restarts"]), "count")
        run.metric(f"stats.expected_degree.{kind}.{b}", statistics.fmean(point["ed"]), "count")
    run.metric("stats.ed_ms", ms(statistics.median(tr.durations("stats.expected_degree_of_batch"))),
               "ms")
    report_self_times(run, tr, len(traced) * sweep_batches(), ("samplers", "stats"))
    report_overhead(run, traced, untraced)

    rw = points[checks.point_key("rw", 1024)]
    rwisg_n = points[checks.point_key("rwisg_n", 1024)]
    run.baseline("rw sample at b=1024", ms(statistics.median(rw["sample_s"])),
                 ROADMAP_BASELINE["rw_sample_ms"], "ms")
    run.baseline("rwisg_n positives at b=1024", statistics.fmean(rwisg_n["positives"]),
                 ROADMAP_BASELINE["rwisg_n_positives"], "")


# --- shared reporting -------------------------------------------------------------------

def report_self_times(run, tr, n_units: int, layers):
    """Self time per layer, per batch or query of the measured loop.

    Only the layers that do a workload's work are reported from it, so each
    ``<layer>.self_ms`` comes from one workload.
    """
    own = tr.self_times()
    for layer in layers:
        run.metric(f"{layer}.self_ms", ms(own.get(layer, 0.0)) / n_units, "ms")
    run.record["self_s"][run.workload] = own


def report_overhead(run, traced: list, untraced: list):
    """Traced minus untraced wall time of one unit of work (medians)."""
    run.timings(f"{run.workload}.traced_unit_s", traced)
    run.timings(f"{run.workload}.untraced_unit_s", untraced)
    run.metric(f"trace.overhead_s.{run.workload}",
               statistics.median(traced) - statistics.median(untraced), "s")


UNTRACED = {"train_sr": train_sr, "eval_filtered": eval_filtered, "sample_sweep": sample_sweep}
TRACED = {"train_sr": train_sr_traced, "eval_filtered": eval_filtered_traced,
          "sample_sweep": sample_sweep_traced}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--data", required=True,
                   help="directory holding one graph directory per spec.graph_name")
    args = p.parse_args(argv)

    run = Run(args)
    reference = checks.load_reference()
    if args.trace:
        run.record["self_s"], run.record["spans"] = {}, []
        for workload in spec.WORKLOADS:
            run.workload = workload
            tr = Tracer()
            g, store = set_up(workload, graph_dir(args.data, workload), args.seed, tr.span)
            TRACED[workload](run, tr, g, store, reference)
            spans = os.path.join(spec.OUT, f"spans-{workload}-seed{args.seed}.jsonl")
            tr.write(spans)
            run.record["spans"].append(os.path.relpath(spans, spec.ROOT))
            g = store = tr = None
            gc.collect()
    else:
        setup_times = []
        for _ in range(spec.SETUP_REPS):
            g = store = None
            gc.collect()
            t0 = time.perf_counter()
            g, store = set_up(args.workload, graph_dir(args.data, args.workload), args.seed)
            setup_times.append(time.perf_counter() - t0)
        run.timings("setup_s", setup_times)
        run.metric("setup_s", statistics.median(setup_times), "s")
        before = resource.getrusage(resource.RUSAGE_SELF)
        UNTRACED[args.workload](run, g, store, reference)
        after = resource.getrusage(resource.RUSAGE_SELF)
        # Kernel time is mostly page faults on large numpy temporaries; it is
        # the part of a unit's time that varies most with the host.
        run.record["measure_phase_cpu"] = {"user_s": after.ru_utime - before.ru_utime,
                                           "sys_s": after.ru_stime - before.ru_stime,
                                           "minor_faults": after.ru_minflt - before.ru_minflt}
        run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps({"result": run.result(), "record": run.record, "report": run.report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
