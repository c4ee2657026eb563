"""Link-prediction ranking and metrics.

Every evaluated triple is ranked twice: once against all candidate objects
and once against all candidate subjects. Under the filtered protocol,
candidates that form a known triple (train, valid, or test) are ignored.
Ties break pessimistically: a candidate scoring equal to the target counts
as ranked above it.

Ranks are exact: they equal the ranks a brute-force loop over
:func:`scorers.score_triples` gives, whatever the BLAS or its threading.
:func:`evaluate_split` ranks blocks of at most ``QUERY_BLOCK`` triples in
three steps.

1. **Screen.** One query row per distinct ``(s, r)`` (object side) or
   ``(r, o)`` (subject side) pair of the block, built by
   :func:`scorers.query_rows`, as ``score_triples``' are, and one GEMM
   ``Q @ E.T`` of all of them against every entity row. DistMult and
   ComplEx scores are such dot products. TransE and RotatE scores are
   distances ``-||x - e||``, screened as ``-sqrt(||x||² + ||e||² - 2 x·e)``;
   on the subject side RotatE's query is the object rotated back. Each
   screen value ``S`` comes with a proven bound ``B`` on ``|S - X|``, where
   ``X`` is the candidate's ``score_triples`` value (from
   :func:`scorers.query_bounds`; derivation in :func:`_screen`).
2. **Refine.** With ``T`` the target's own ``score_triples`` value, a
   candidate with ``S - T > B`` scores at least ``T`` and counts against
   the target; one with ``T - S > B`` scores below ``T`` and does not.
   Every other candidate, the near-tie band, and every pair with a
   non-finite screen or bound, is re-scored with ``score_triples`` in one
   batched call and counts when its score is ``>= T``. Filtered
   candidates and the target itself are excluded first.
3. **Rank.** ``1 +`` the candidates that count. :func:`rank_triple` is the
   one-triple case.

Exactness rests on ``score_triples`` scoring each row independently of
the other rows in the call, which the tests pin bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph
from .scorers import (DISTANCE_MODELS, UNIT_ROUNDOFF, EmbeddingStore, query_bounds,
                      query_rows, score_triples)

HITS_KS = (1, 3, 10)
PROTOCOLS = ("raw", "filtered")

# Test triples ranked per screen. A block holds about four
# QUERY_BLOCK x n_entities float64 arrays (the screen of both sides, then
# one side's screen rows and bounds); 64 ranked fastest among 16-256 on a
# FB15k-237-shaped graph.
QUERY_BLOCK = 64

_TINY = np.finfo(np.float64).tiny      # smallest normal float64, 2⁻¹⁰²²
_NORM_CAP = 2.0 ** 500                 # larger norms are treated as infinite
SAFETY = 4.0                           # the bound's factor over the derived error


def _gamma(n: int) -> float:
    """Higham's γₙ = nu / (1 - nu): the relative error of n roundings."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


@dataclass
class RankResult:
    triple: tuple
    head_rank: int
    tail_rank: int
    protocol: str


@dataclass
class Metrics:
    mrr: float
    mr: float
    hits_at: dict
    count: int
    protocol: str

    def as_record(self) -> dict:
        rec = {"mrr": self.mrr, "mr": self.mr}
        rec.update({f"hits{k}": v for k, v in sorted(self.hits_at.items())})
        rec.update({"count": self.count, "protocol": self.protocol})
        return rec

    def as_json_line(self) -> str:
        return json.dumps(self.as_record())


def _norms(sq: np.ndarray, width: int) -> np.ndarray:
    """Row norms from the rows' sums of squares, bounding the true norms from above.

    ``sqrt(Σx² + w·λ)``, with λ the smallest normal float64, stays an upper
    bound when squares underflow (each loses less than λ). Norms above 2⁵⁰⁰
    become inf, so that no sum of products below them can overflow.
    """
    n = np.sqrt(sq + width * _TINY)
    n[~(n < _NORM_CAP)] = np.inf
    return n


def _row_sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _screen(store: EmbeddingStore, q: np.ndarray, q_abs: np.ndarray, eps: float,
            entity_sq: np.ndarray, entity_norms: np.ndarray) -> tuple:
    """Screen scores ``S`` of every entity for each query row, and their bounds.

    Returns ``(S, query_bound, entity_bound, combine)``: ``S`` is a
    (queries, entities) array, and ``B = combine.outer(query_bound,
    entity_bound)`` bounds ``|S - X|`` for the candidate's
    ``score_triples`` value ``X`` wherever ``B`` is finite.

    ``q`` holds rows of :func:`scorers.query_rows`; ``q_abs`` and ``eps``
    are their :func:`scorers.query_bounds`.

    Derivation. Let u = 2⁻⁵³ (``scorers.UNIT_ROUNDOFF``), γₙ = nu / (1 - nu),
    w the entity row width, e a candidate row and x the candidate's score
    in exact real arithmetic on the same float inputs (for RotatE, on the
    cos/sin of ``query_rows``' table). ``X`` scores the candidate's
    tail-side query row q' (on the object side the screen's own q) against
    its object o. A sum of products, each carrying at most n roundings
    along its way into the sum, differs from its exact value by at most γₙ
    times the sum of the products' absolute values, whatever the summation
    order and whether FMA is used (Higham, Accuracy and Stability of
    Numerical Algorithms, Lemma 3.1 and eq. 3.5).

    * DistMult and ComplEx: ``X`` and ``S`` are both such sums of the
      products of x (s·r·o, or the four terms of ComplEx), each carrying
      at most w + 3 roundings (up to 3 in its query entry, one times the
      entity entry, w - 1 in the sum), and the products' absolute values
      sum to ``Σ q_abs·|e| <= ||q_abs||·||e||``. So
      |S - X| <= 2γ_{w+4}·||q_abs||·||e||.
    * TransE and RotatE: x = -d for the exact distance d. Let y be the
      exact query point: s + r, o - r, the rotated subject Rs, or the
      object rotated back, Rᵀo. Then d = ||y - e||, except on RotatE's
      subject side, where d² = ||Re - o||² differs from ||y - e||² by at
      most eps·(||e||² + ||o||²), since RᵀR = diag(cos² + sin²). Let
      m = ||q_abs|| + ||e||, which bounds ||y|| + ||e|| and d (up to a
      factor 1 + eps). The float query row lies within γ₂·q_abs of y
      entrywise, and ``D = ||q||² + ||e||² - 2 q·e`` carries at most
      w + 2 roundings per term, so D is within α = (γ_{w+12} + eps)·m² of
      d². As |√a - √b| <= √|a - b|, the screen ``-sqrt(max(D, 0))`` is
      within √α + 2u·m of x. ``score_triples`` forms each entry of
      q' - o with at most 4 roundings from inputs whose norms m bounds,
      then squares, sums and takes the root:
      |X - x| <= γ_{w+4}·(2d + 3m) <= 6γ_{w+6}·m. So
      |S - X| <= (√(γ_{w+12} + eps) + 7γ_{w+12})·m.

    ``B`` is ``SAFETY`` (4) times these bounds, which also covers the
    rounding of ``q_abs``, of the norms, of ``B`` itself and of the
    comparisons against it. Norms come from :func:`_norms`: upper bounds
    that stay so when squares underflow (the w·λ floor also exceeds the
    absolute error of products that underflow) and that are inf beyond
    2⁵⁰⁰, so no sum of products can overflow while ``B`` is finite. A
    non-finite input (inf, nan) makes ``B`` non-finite.
    """
    w = q.shape[1]
    entities = store.entities
    q_norms = _norms(_row_sq(q_abs), w)
    if store.model_kind in DISTANCE_MODELS:
        with np.errstate(invalid="ignore", over="ignore"):
            # -2 scales exactly; S = -sqrt(max(||q||² + ||e||² - 2 q·e, 0))
            s = (-2.0 * q) @ entities.T
            s += entity_sq
            s += _row_sq(q)[:, None]
            np.maximum(s, 0.0, out=s)
            np.sqrt(s, out=s)
            np.negative(s, out=s)
        c = SAFETY * (np.sqrt(_gamma(w + 12) + eps) + 7 * _gamma(w + 12))
        return s, c * q_norms, c * entity_norms, np.add
    c = SAFETY * 2 * _gamma(w + 4)
    with np.errstate(invalid="ignore", over="ignore"):
        s = q @ entities.T
    return s, c * q_norms, entity_norms, np.multiply


def _refine(screen: np.ndarray, target: np.ndarray, bound: np.ndarray,
            ex_rows: np.ndarray, ex_cols: np.ndarray) -> tuple:
    """Split the candidates of one side by their screen, one row per triple.

    ``screen`` (overwritten) and ``bound`` are the triples' screen rows and
    bounds; the pairs ``(ex_rows, ex_cols)`` are excluded. Returns the
    count per row of candidates that surely score ``>= target``, and the
    (row, candidate) pairs of the band, which the screen cannot decide.
    """
    with np.errstate(invalid="ignore"):
        screen -= target[:, None]
        above = screen > bound
        np.abs(screen, out=screen)
        band = ~(screen > bound)   # a nan screen, target or bound lands in the band
    above[ex_rows, ex_cols] = False
    band[ex_rows, ex_cols] = False
    owner, cand = np.divmod(np.flatnonzero(band), band.shape[1])
    return np.count_nonzero(above, axis=1), owner, cand


def _rank_block(g: KnowledgeGraph, store: EmbeddingStore, spo: np.ndarray, filtered: bool,
                entity_sq: np.ndarray, entity_norms: np.ndarray) -> tuple:
    """(head ranks, tail ranks) of the rows of ``spo``: screen, refine, rank.

    ``entity_sq``/``entity_norms`` come from :func:`_entity_stats`.
    """
    n = len(spo)
    target = score_triples(store, spo)
    rows = np.arange(n)
    sides = (0, 2)   # rank the subjects (head), then the objects (tail)
    # One query per distinct fixed pair of each side, all in one GEMM.
    queries, bounds, inverses = [], [], []
    for side in sides:
        fixed = spo[:, [1, 2] if side == 0 else [0, 1]]
        _, first, inv = np.unique(fixed, axis=0, return_index=True, return_inverse=True)
        queries.append(query_rows(store, spo[first], side))
        bounds.append(query_bounds(store, spo[first], side))
        inverses.append(inv.reshape(-1))
    screen, query_bound, entity_bound, combine = _screen(
        store, np.concatenate(queries), np.concatenate([b[0] for b in bounds]),
        max(b[1] for b in bounds), entity_sq, entity_norms)

    ranks = np.ones((2, n), dtype=np.int64)
    band_rows, band_owner = [], []
    offsets = (0, len(queries[0]))   # the first query row of each side
    for k, side in enumerate(sides):
        at = offsets[k] + inverses[k]
        # exclude the target and, filtered, every known triple's candidate
        ex_rows, ex_cols = [rows], [spo[:, side]]
        if filtered:
            indptr, ids = (g.filter_subjects_batch(spo[:, 1], spo[:, 2]) if side == 0
                           else g.filter_objects_batch(spo[:, 0], spo[:, 1]))
            ex_rows.append(np.repeat(rows, np.diff(indptr)))
            ex_cols.append(ids)
        above, owner, cand = _refine(screen[at], target,
                                     combine.outer(query_bound[at], entity_bound),
                                     np.concatenate(ex_rows), np.concatenate(ex_cols))
        ranks[k] += above
        cand_rows = spo[owner]
        cand_rows[:, side] = cand
        band_rows.append(cand_rows)
        band_owner.append(k * n + owner)

    # the near-tie band, re-scored exactly in one call; ties count against the target
    owner = np.concatenate(band_owner)
    exact = score_triples(store, np.concatenate(band_rows))
    counts = np.bincount(owner[exact >= target[owner % n]], minlength=2 * n)
    ranks += counts.reshape(2, n)
    return ranks[0], ranks[1]


def _entity_stats(store: EmbeddingStore) -> tuple:
    """The entities' squared norms and :func:`_norms`, shared by the blocks of a split."""
    sq = _row_sq(store.entities)
    return sq, _norms(sq, store.entities.shape[1])


def rank_triple(g: KnowledgeGraph, store: EmbeddingStore, t, protocol: str = "filtered") -> RankResult:
    """Filtered or raw head/tail ranks of one triple."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}")
    spo = np.asarray(t, dtype=np.int64).reshape(1, 3)
    head, tail = _rank_block(g, store, spo, protocol == "filtered", *_entity_stats(store))
    return RankResult(triple=tuple(int(x) for x in spo[0]), head_rank=int(head[0]),
                      tail_rank=int(tail[0]), protocol=protocol)


def metrics_from_ranks(ranks, protocol: str) -> Metrics:
    ranks = np.asarray(ranks, dtype=np.float64)
    return Metrics(
        mrr=float(np.mean(1.0 / ranks)),
        mr=float(np.mean(ranks)),
        hits_at={k: float(np.mean(ranks <= k)) for k in HITS_KS},
        count=len(ranks),
        protocol=protocol,
    )


def evaluate_split(g: KnowledgeGraph, store: EmbeddingStore, split: str = "test",
                   protocol: str = "filtered") -> Metrics:
    """Rank every triple of a split in both directions and aggregate.

    Triples are ranked in blocks of ``QUERY_BLOCK``; the ranks are listed
    head, tail per triple, in split order.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}")
    triples = g.split(split) if isinstance(split, str) else np.asarray(split)
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if len(triples) == 0:
        raise ValueError("cannot evaluate an empty split")
    stats = _entity_stats(store)
    ranks = np.empty((len(triples), 2), dtype=np.int64)
    for i in range(0, len(triples), QUERY_BLOCK):
        block = triples[i:i + QUERY_BLOCK]
        ranks[i:i + QUERY_BLOCK] = np.stack(
            _rank_block(g, store, block, protocol == "filtered", *stats), axis=1)
    return metrics_from_ranks(ranks.reshape(-1), protocol)
