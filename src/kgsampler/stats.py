"""Minibatch degree-distribution diagnostics.

The central quantities are the within-batch degree distribution P(d) of the
minibatch subgraph, its average over many batches, and the expected total
degree E[D] derived from it. E[D] measures how densely connected sampled
minibatches are; uniformly random triple selection stays near 1 while walk
and induced-subgraph samplers push it up.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph
from .samplers import Minibatch, SamplerPolicy, fit_batch_size, sample_minibatch

NORMALIZATION_TOL = 1e-9


@dataclass
class DegreeHistogram:
    """Probability mass over within-batch total degree.

    ``probabilities[d]`` is the mass at degree d; index 0 is always zero
    because every entity of a minibatch subgraph occurs in at least one
    triple. ``n_batches`` is the number of minibatches averaged in.
    """

    probabilities: np.ndarray
    n_batches: int = 1

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or len(p) < 2:
            raise ValueError("probabilities must be a 1-d array with d_max >= 1")
        if p[0] != 0.0:
            raise ValueError("degree 0 must carry no mass")
        if np.any(p < 0):
            raise ValueError("negative probability mass")
        if abs(p.sum() - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"masses sum to {p.sum()!r}, not 1")
        self.probabilities = p

    @property
    def d_max(self) -> int:
        return len(self.probabilities) - 1

    def as_dict(self) -> dict:
        """Map degree -> probability, zero-mass degrees omitted."""
        return {int(d): float(p) for d, p in enumerate(self.probabilities) if p > 0}


def minibatch_degree_distribution(m: Minibatch) -> DegreeHistogram:
    """Degree distribution of a single minibatch subgraph (N = 1); a self-loop counts twice."""
    if len(m.positives) == 0:
        raise ValueError("empty minibatch has no degree distribution")
    ends = np.sort(m.positives[:, [0, 2]], axis=None)
    starts = np.flatnonzero(np.concatenate(([True], ends[1:] != ends[:-1], [True])))
    counts = np.bincount(np.diff(starts))    # how many entities have each degree
    return DegreeHistogram(probabilities=counts / counts.sum(), n_batches=1)


def averaged_distribution(histograms) -> DegreeHistogram:
    """Unweighted mean of per-batch distributions."""
    histograms = list(histograms)
    if not histograms:
        raise ValueError("need at least one histogram")
    d_max = max(h.d_max for h in histograms)
    acc = np.zeros(d_max + 1, dtype=np.float64)
    for h in histograms:
        acc[: h.d_max + 1] += h.probabilities
    acc /= len(histograms)
    return DegreeHistogram(probabilities=acc, n_batches=len(histograms))


def expected_degree(h: DegreeHistogram) -> float:
    """First moment sum(d * P(d))."""
    d = np.arange(len(h.probabilities))
    return float(np.dot(d, h.probabilities))


def expected_degree_of_batch(m: Minibatch) -> float:
    return expected_degree(minibatch_degree_distribution(m))


def sweep_points(g: KnowledgeGraph, policies, batch_sizes, batches_per_point: int,
                 seed: int = 0):
    """Iterator of ``(policy at batch size b, per-batch histograms)`` per grid point.

    The arguments are checked on the call, before any batch is drawn. Points
    run policy-major. Each draws ``batches_per_point`` independent batches
    from its own generator, the next child spawned from
    ``SeedSequence(seed)``. A batch size above the train split is cut to it,
    with one warning per point, and the point still names the requested size.
    """
    grid = [dataclasses.replace(policy, batch_size=b) for policy in policies for b in batch_sizes]
    if batches_per_point < 30:
        raise ValueError(f"got {batches_per_point} batches per point; a usable standard "
                         "error needs at least 30")
    children = np.random.SeedSequence(seed).spawn(len(grid))
    fitted = (fit_batch_size(g, pol) for pol in grid)    # each as its point runs
    return ((pol, [minibatch_degree_distribution(sample_minibatch(g, fit, rng=rng))
                   for _ in range(batches_per_point)])
            for pol, fit, rng in zip(grid, fitted, map(np.random.default_rng, children)))


def sweep_row(policy: SamplerPolicy, histograms) -> dict:
    """Mean E[D] of one grid point's batches and its standard error, as a sweep CSV row."""
    eds = np.array([expected_degree(h) for h in histograms])
    return {
        "policy": policy.kind,
        "batch_size": policy.batch_size,
        "expected_degree": float(eds.mean()),
        "std_error": float(eds.std(ddof=1) / np.sqrt(len(eds))),
        "num_batches": len(eds),
    }


def ed_vs_batchsize_sweep(
    g: KnowledgeGraph,
    policies,
    batch_sizes,
    batches_per_point: int,
    seed: int = 0,
) -> list:
    """Mean E[D] and standard error per (policy, batch size) grid point.

    Each point averages ``batches_per_point`` independent batches. Returns
    rows shaped for the sweep CSV schema.
    """
    return [sweep_row(pol, hists)
            for pol, hists in sweep_points(g, policies, batch_sizes, batches_per_point, seed)]


SWEEP_FIELDS = ["policy", "batch_size", "expected_degree", "std_error", "num_batches"]
DISTRIBUTION_FIELDS = ["policy", "batch_size", "degree", "probability"]


def distribution_rows(policy: SamplerPolicy, batch_size: int, h: DegreeHistogram) -> list:
    return [
        {"policy": policy.kind, "batch_size": batch_size, "degree": d, "probability": p}
        for d, p in sorted(h.as_dict().items())
    ]


def write_csv(rows, path: str, fields) -> None:
    """Write dict ``rows`` as CSV under the header ``fields``, e.g. ``SWEEP_FIELDS``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
