"""Link-prediction ranking and metrics.

Every evaluated triple is ranked twice: once against all candidate objects
and once against all candidate subjects. Under the filtered protocol,
candidates that form a known triple (train, valid, or test) are ignored.
Ties break pessimistically: a candidate scoring equal to the target counts
as ranked above it.

Ranks are exact: they equal the ranks a brute-force loop over
:func:`scorers.score_triples` gives, whatever the BLAS or its threading.
:func:`rank_split` gives the product, a split's exact head and tail ranks;
:func:`evaluate_split` and :func:`rank_triple` derive from it. It ranks
blocks of at most ``QUERY_BLOCK`` triples in three steps.

1. **Screen.** One query row per triple and side, built by
   :func:`scorers.query_rows` as ``score_triples``' are (on the subject
   side RotatE's query is the object rotated back), and one GEMM of all
   of them against every entity row. DistMult and ComplEx scores are such
   dot products; TransE and RotatE scores are distances ``-||x - e||``,
   screened through ``D = ||x||² + ||e||² - 2 x·e``. Each row gets a proven
   bound ``β`` on the gap between its screen scores and the candidates'
   ``score_triples`` values, from :func:`scorers.query_bounds` and the
   largest finite entity norm (derivation in :func:`_screen`).
2. **Refine.** With ``T`` the target's own ``score_triples`` value, two
   thresholds per row, ``T ± β`` (squared for ``D``) and rounded outward,
   decide each candidate: beyond the upper one it scores at least ``T``
   and counts against the target; beyond the lower one it scores below
   ``T`` and does not. Every other candidate, the near-tie band, every
   NaN and every entity of non-finite norm is re-scored with
   ``score_triples``, ``scorers.BLOCK_ROWS`` at a time, and counts when
   its score is ``>= T``. Filtered candidates and the target itself are
   excluded first.
3. **Rank.** ``1 +`` the candidates that count.

Exactness rests on ``score_triples`` scoring each row independently of
the other rows in the call, which the tests pin bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph
from .scorers import (BLOCK_ROWS, DISTANCE_MODELS, UNIT_ROUNDOFF, EmbeddingStore,
                      query_bounds, query_rows, score_triples)

HITS_KS = (1, 3, 10)
PROTOCOLS = ("raw", "filtered")

# Test triples ranked per screen. A block holds one 2·QUERY_BLOCK x n_entities
# float64 screen (both sides) plus two boolean masks of that shape, and its
# near-tie band at most 2·QUERY_BLOCK x n_entities flat indices, re-scored
# scorers.BLOCK_ROWS at a time: memory is O(QUERY_BLOCK x n_entities) for any
# store, even one whose scores all tie. On a FB15k-237-shaped graph 64 and 128
# ranked fastest among 16-256, within 5% of each other; 64 keeps blocks smaller.
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
            target: np.ndarray, entity_sq: np.ndarray, entity_max: float,
            loose: np.ndarray) -> tuple:
    """Boolean (rows, entities) masks ``(above, band)``: each entity against each row's target.

    ``q`` holds rows of :func:`scorers.query_rows`, ``q_abs`` and ``eps``
    their :func:`scorers.query_bounds`, ``target`` each row's target ``T``;
    the rest comes from :func:`_entity_stats`. A candidate in ``above`` has
    a ``score_triples`` value ``X >= T``, one in neither ``X < T``; the band
    holds the rest, every NaN and every entity of non-finite norm.

    Screen. One GEMM gives every (row, entity) pair a value ``V``. DistMult
    and ComplEx score ``S = q·e``, and ``V = (-q)·e = -S`` (negation is
    exact). TransE and RotatE score distances, screened as ``S = -√D⁺`` with
    ``V = D = ||q||² + ||e||² - 2 q·e`` and D⁺ = max(D, 0); on the subject
    side RotatE's query is the object rotated back.

    Bound. Let u = 2⁻⁵³ (``scorers.UNIT_ROUNDOFF``), γₙ = nu / (1 - nu),
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
      entrywise, and D carries at most w + 2 roundings per term, so D is
      within α = (γ_{w+12} + eps)·m² of d², and as |√a - √b| <= √|a - b|,
      |S - x| <= √α. ``score_triples`` forms each entry of q' - o with at
      most 4 roundings from inputs whose norms m bounds, then squares,
      sums and takes the root: |X - x| <= γ_{w+4}·(2d + 3m) <= 6γ_{w+6}·m.
      So |S - X| <= (√(γ_{w+12} + eps) + 7γ_{w+12})·m.

    β, per row, is ``SAFETY`` (4) times these bounds with ||e|| replaced by
    ``entity_max``, the largest finite entity norm, so it bounds |S - X|
    for every entity of its row of finite norm; the factor also covers the
    rounding of ``q_abs``, of the norms and of β itself. Norms come from
    :func:`_norms`: upper bounds that stay so when squares underflow (the
    w·λ floor also exceeds the absolute error of products that underflow)
    and that are inf beyond 2⁵⁰⁰, so no sum of products can overflow while
    β is finite.

    Thresholds. S > T + β gives X > T, and S < T - β gives X < T. In V:
    ``V < lo`` counts and ``V > hi`` does not, with lo = -T - β and
    hi = β - T for the dot models, and for the distance models
    lo = (-T - β)², or -inf where -T - β <= 0, and hi = (β - T)² (β - T
    >= 0, as T <= 0), since √D⁺ < a ⇔ D < a² for a > 0 and √D⁺ > a ⇔
    D > a² for a >= 0. Each difference and square is rounded to nearest,
    then moved one ulp outward (``nextafter``), which puts it on the safe
    side of its exact value, subnormals included; the comparisons
    themselves are exact. A non-finite β, target or ``V`` fails both
    comparisons and lands in the band.
    """
    w = q.shape[1]
    q_norms = _norms(_row_sq(q_abs), w)
    distance = store.model_kind in DISTANCE_MODELS
    with np.errstate(invalid="ignore", over="ignore"):
        if distance:
            v = (-2.0 * q) @ store.entities.T   # -2 scales exactly
            v += entity_sq
            v += _row_sq(q)[:, None]
            beta = SAFETY * (np.sqrt(_gamma(w + 12) + eps) + 7 * _gamma(w + 12)) * (
                q_norms + entity_max)
        else:
            v = (-q) @ store.entities.T
            beta = SAFETY * 2 * _gamma(w + 4) * q_norms * entity_max
        lo = np.nextafter(-target - beta, -np.inf)
        hi = np.nextafter(beta - target, np.inf)
        if distance:
            lo = np.where(lo > 0, np.nextafter(lo * lo, -np.inf), -np.inf)
            hi = np.nextafter(hi * hi, np.inf)
        above = v < lo[:, None]
        band = v > hi[:, None]
    band |= above
    np.logical_not(band, out=band)
    above[:, loose] = False
    band[:, loose] = True
    return above, band


def _rank_block(g: KnowledgeGraph, store: EmbeddingStore, spo: np.ndarray, filtered: bool,
                stats: tuple) -> tuple:
    """(head ranks, tail ranks) of the rows of ``spo``: screen, refine, rank.

    ``stats`` is :func:`_entity_stats`.
    """
    n = len(spo)
    # one query row per triple and side, subjects (head) first, all in one GEMM
    both, sides = np.tile(spo, (2, 1)), np.repeat([0, 2], n)
    target = np.tile(score_triples(store, spo), 2)
    above, band = _screen(store, query_rows(store, both, sides)[0],
                          *query_bounds(store, both, sides), target, *stats)
    # exclude the target and, filtered, every known triple's candidate
    rows = np.arange(2 * n)
    ex_rows, ex_cols = [rows], [both[rows, sides]]
    if filtered:
        for k, (counts, ids) in enumerate((g.filter_subjects_batch(spo[:, 1], spo[:, 2]),
                                           g.filter_objects_batch(spo[:, 0], spo[:, 1]))):
            ex_rows.append(np.repeat(rows[k * n:(k + 1) * n], counts))
            ex_cols.append(ids)
    excluded = np.concatenate(ex_rows), np.concatenate(ex_cols)
    above[excluded] = False
    band[excluded] = False
    ranks = 1 + np.count_nonzero(above, axis=1)
    flat = np.flatnonzero(band)
    # the near-tie band, re-scored exactly a chunk at a time; ties count against the target
    for i in range(0, len(flat), BLOCK_ROWS):
        owner, cand = np.divmod(flat[i:i + BLOCK_ROWS], store.n_entities)
        cand_rows = both[owner]
        cand_rows[np.arange(len(owner)), sides[owner]] = cand
        exact = score_triples(store, cand_rows)
        ranks += np.bincount(owner[exact >= target[owner]], minlength=2 * n)
    return ranks[:n], ranks[n:]


def _entity_stats(store: EmbeddingStore) -> tuple:
    """Shared by the blocks of a split: the entities' squared norms, their largest
    finite :func:`_norms` and the ids whose norm is not finite."""
    sq = _row_sq(store.entities)
    norms = _norms(sq, store.entities.shape[1])
    finite = np.isfinite(norms)
    return sq, float(np.max(norms[finite], initial=0.0)), np.flatnonzero(~finite)


def rank_split(g: KnowledgeGraph, store: EmbeddingStore, split="test",
               protocol: str = "filtered") -> np.ndarray:
    """(n, 2) int64 head, tail ranks of ``split`` (a name or id rows), in split order."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}")
    triples = g.split(split) if isinstance(split, str) else split
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    stats = _entity_stats(store)
    ranks = np.empty((len(triples), 2), dtype=np.int64)
    for i in range(0, len(triples), QUERY_BLOCK):
        ranks[i:i + QUERY_BLOCK] = np.stack(_rank_block(
            g, store, triples[i:i + QUERY_BLOCK], protocol == "filtered", stats), axis=1)
    return ranks


def rank_triple(g: KnowledgeGraph, store: EmbeddingStore, t, protocol: str = "filtered") -> RankResult:
    """Filtered or raw head/tail ranks of one triple: :func:`rank_split` of one row."""
    spo = np.asarray(t, dtype=np.int64).reshape(1, 3)
    head, tail = rank_split(g, store, spo, protocol)[0].tolist()
    return RankResult(tuple(spo[0].tolist()), head, tail, protocol)


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
    """Metrics of :func:`rank_split`'s ranks, listed head, tail per triple in split order."""
    ranks = rank_split(g, store, split, protocol)
    if len(ranks) == 0:
        raise ValueError("cannot evaluate an empty split")
    return metrics_from_ranks(ranks.reshape(-1), protocol)
