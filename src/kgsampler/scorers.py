"""Score functions for triple plausibility and their analytic gradients.

Four models are supported. ``transe`` treats a relation as a translation
vector, ``distmult`` as a diagonal bilinear form, ``complex`` as a complex
trilinear product with a conjugated object, and ``rotate`` as a unit-modulus
complex rotation. Higher scores mean more plausible triples for all four;
the two norm-based models are bounded above by zero.

Complex-valued rows are stored as one real row: the first K entries are
real parts, the last K imaginary parts. ``rotate`` relation rows store K
phase angles, so the effective rotation coefficient always has modulus 1.

Each model's formula is written once, in :func:`query_rows`, which every
score goes through; :func:`query_rows_backward` is its gradient map and
:func:`query_bounds` gives the rank screen its error-bound terms.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

MODEL_KINDS = ("transe", "distmult", "complex", "rotate")
DISTANCE_MODELS = ("transe", "rotate")   # scores are -||query - candidate||
UNIT_ROUNDOFF = 2.0 ** -53               # of float64

_CKPT_MAGIC = b"KGSCKPT1"


@dataclass
class EmbeddingStore:
    """Dense trainable parameters: one row per entity and per relation."""

    model_kind: str
    dimension: int                 # K; complex models use 2K-wide entity rows
    entities: np.ndarray
    relations: np.ndarray

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        ew, rw = row_widths(self.model_kind, self.dimension)
        if self.entities.shape[1] != ew or self.relations.shape[1] != rw:
            raise ValueError("embedding matrix widths do not match model kind")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)


@dataclass
class ScoreGradient:
    """Partial derivatives of one triple's score w.r.t. its three rows."""

    d_subject: np.ndarray
    d_relation: np.ndarray
    d_object: np.ndarray


def row_widths(model_kind: str, k: int) -> tuple:
    """(entity row width, relation row width) for a model of dimension k."""
    if model_kind in ("transe", "distmult"):
        return k, k
    if model_kind == "complex":
        return 2 * k, 2 * k
    if model_kind == "rotate":
        return 2 * k, k
    raise ValueError(f"unknown model kind {model_kind!r}")


def initialize(n_entities: int, n_relations: int, model_kind: str, k: int,
               seed: int = 0) -> EmbeddingStore:
    """Uniform init on [-6/sqrt(K), 6/sqrt(K)]; rotation phases on [-pi, pi]."""
    if n_entities <= 0 or n_relations <= 0 or k <= 0:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(k)
    ew, rw = row_widths(model_kind, k)
    entities = rng.uniform(-bound, bound, size=(n_entities, ew))
    if model_kind == "rotate":
        relations = rng.uniform(-np.pi, np.pi, size=(n_relations, rw))
    else:
        relations = rng.uniform(-bound, bound, size=(n_relations, rw))
    return EmbeddingStore(model_kind, k, entities, relations)


def check_ids(store: EmbeddingStore, spo: np.ndarray):
    """Raise IndexError unless every id of the (m, 3) triples ``spo`` indexes ``store``.

    Runs before any fancy index, so a negative id never wraps around.
    """
    if len(spo) == 0:
        return
    if spo[:, [0, 2]].max() >= store.n_entities or spo[:, [0, 2]].min() < 0:
        raise IndexError("entity id out of range")
    if spo[:, 1].max() >= store.n_relations or spo[:, 1].min() < 0:
        raise IndexError("relation id out of range")


def _halves(x: np.ndarray):
    k = x.shape[-1] // 2
    return x[..., :k], x[..., k:]


def _rotations(store: EmbeddingStore, r: np.ndarray):
    """(cos, sin) of the rotate phase rows of relations ``r``, one row per id.

    The trig functions run once per distinct relation, on a small table that
    is then gathered per row; being elementwise, they give the same bits as
    evaluating every row.
    """
    uniq, inv = np.unique(r, return_inverse=True)
    phases = store.relations[uniq]
    return np.cos(phases)[inv], np.sin(phases)[inv]


def score_triples(store: EmbeddingStore, spo: np.ndarray) -> np.ndarray:
    """Scores for an (m, 3) array of triples.

    Each triple is one tail-side query of :func:`query_rows` scored against
    its object by :func:`query_scores`; every row's score keeps its
    arithmetic order, so scores do not depend on the other rows.
    """
    spo = np.asarray(spo, dtype=np.int64).reshape(-1, 3)
    check_ids(store, spo)
    return query_scores(store, query_rows(store, spo, 2), store.entities[spo[:, 2]])


def score(store: EmbeddingStore, t) -> float:
    """Score of a single (s, r, o) triple."""
    return float(score_triples(store, np.asarray(t).reshape(1, 3))[0])


def score_gradients(store: EmbeddingStore, spo: np.ndarray):
    """Per-triple analytic gradients.

    Returns (d_subject, d_relation, d_object) arrays of shape
    (m, entity width) / (m, relation width). Each triple is one tail-side
    query of :func:`query_rows` scored against its object: the partials of
    :func:`query_scores` are mapped back through :func:`query_rows_backward`.
    The norm-based models use the zero subgradient at an exact match.
    """
    spo = np.asarray(spo, dtype=np.int64).reshape(-1, 3)
    check_ids(store, spo)
    q = query_rows(store, spo, 2)
    dq, d_object = query_score_grads(store, q, store.entities[spo[:, 2]], np.ones(len(spo)))
    d_subject, d_relation = query_rows_backward(store, spo, 2, dq)
    return d_subject, d_relation, d_object


def score_gradient(store: EmbeddingStore, t) -> ScoreGradient:
    """Gradient of a single triple's score w.r.t. its three embedding rows."""
    ds, dr, do = score_gradients(store, np.asarray(t).reshape(1, 3))
    return ScoreGradient(d_subject=ds[0], d_relation=dr[0], d_object=do[0])


def _complex_relations(store: EmbeddingStore, rel: np.ndarray):
    """Real and imaginary parts (p, r) of the complex relation rows ``rel``.

    ComplEx stores them; RotatE's are the unit rotations (cos, sin) of its
    phases, from :func:`_rotations`.
    """
    if store.model_kind == "rotate":
        return _rotations(store, rel)
    return _halves(store.relations[rel])


def query_rows(store: EmbeddingStore, spo: np.ndarray, side: int) -> np.ndarray:
    """Query rows for scoring every entity in column ``side`` (0 or 2) of each row of ``spo``.

    For DistMult and ComplEx the score with entity row ``e`` in that column
    is ``q @ e``; for the ``DISTANCE_MODELS`` it is ``-||q - e||`` (on
    RotatE's subject side up to the rotation's rounding, see
    :func:`query_bounds`). :func:`query_scores` computes both.
    """
    kind = store.model_kind
    fixed = store.entities[spo[:, 2 - side]]
    if kind in ("transe", "distmult"):
        wr = store.relations[spo[:, 1]]
        if kind == "distmult":
            return fixed * wr
        return fixed + wr if side == 2 else fixed - wr
    p, r = _complex_relations(store, spo[:, 1])
    x, y = _halves(fixed)
    if side == 2:   # the subject x + iy times p + ir
        return np.concatenate([p * x - r * y, p * y + r * x], axis=1)
    # the object x + iy times p - ir: for RotatE, rotated back
    return np.concatenate([p * x + r * y, p * y - r * x], axis=1)


def query_bounds(store: EmbeddingStore, spo: np.ndarray, side: int):
    """``(q_abs, eps)`` of the rows of :func:`query_rows`, for ``evaluation._screen``'s bound.

    ``q_abs`` is each query entry's sums and products taken on absolute
    values. ``eps`` bounds ``|cos² + sin² - 1|`` of RotatE's rotations plus
    4u, and is 0 for the other models.
    """
    kind = store.model_kind
    fixed = np.abs(store.entities[spo[:, 2 - side]])
    if kind in ("transe", "distmult"):
        wr = np.abs(store.relations[spo[:, 1]])
        return (fixed * wr if kind == "distmult" else fixed + wr), 0.0
    p, r = _complex_relations(store, spo[:, 1])
    eps = 0.0
    if kind == "rotate":
        eps = float(np.max(np.abs(p * p + r * r - 1.0), initial=0.0)) + 4 * UNIT_ROUNDOFF
    p, r = np.abs(p), np.abs(r)
    x, y = _halves(fixed)
    return np.concatenate([p * x + r * y, p * y + r * x], axis=1), eps


def query_rows_backward(store: EmbeddingStore, spo: np.ndarray, side: int,
                        dq: np.ndarray):
    """Map gradients w.r.t. the query rows of :func:`query_rows` back to their inputs.

    ``dq`` holds one gradient row per row of ``spo``. Returns
    ``(d_fixed, d_relation)``: the gradients w.r.t. the entity row in column
    ``2 - side`` and the relation row of each triple.
    """
    kind = store.model_kind
    fixed = store.entities[spo[:, 2 - side]]
    if kind == "transe":   # q = fixed ± wr
        return dq, dq.copy() if side == 2 else -dq
    if kind == "distmult":
        return dq * store.relations[spo[:, 1]], dq * fixed
    p, r = _complex_relations(store, spo[:, 1])
    x, y = _halves(fixed)
    u, v = _halves(dq)
    if side == 2:   # q = (px - ry, py + rx)
        d_fixed = np.concatenate([u * p + v * r, v * p - u * r], axis=1)
        if kind == "rotate":   # (p, r) = (cos, sin) of the phase
            return d_fixed, u * (-x * r - y * p) + v * (x * p - y * r)
        return d_fixed, np.concatenate([u * x + v * y, v * x - u * y], axis=1)
    # q = (px + ry, py - rx)
    d_fixed = np.concatenate([u * p - v * r, u * r + v * p], axis=1)
    if kind == "rotate":
        return d_fixed, u * (y * p - x * r) - v * (x * p + y * r)
    return d_fixed, np.concatenate([u * x + v * y, u * y - v * x], axis=1)


def query_scores(store: EmbeddingStore, q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Score of each candidate entity row ``e[i]`` against query row ``q[i]``.

    ``-||q - e||`` for the ``DISTANCE_MODELS``, ``q · e`` for the others.
    """
    if store.model_kind in DISTANCE_MODELS:
        d = q - e
        return -np.sqrt(np.einsum("ij,ij->i", d, d))
    return np.einsum("ij,ij->i", q, e)


def query_score_grads(store: EmbeddingStore, q: np.ndarray, e: np.ndarray,
                      coef: np.ndarray):
    """``coef[i]`` times the partials of :func:`query_scores` w.r.t. ``q[i]`` and ``e[i]``.

    Returns ``(dq, de)``; the distance models use the zero subgradient
    where ``q[i] == e[i]``.
    """
    if store.model_kind in DISTANCE_MODELS:
        d = q - e
        n = np.sqrt(np.einsum("ij,ij->i", d, d))
        d *= np.divide(-coef, n, out=np.zeros_like(n), where=n > 0)[:, None]
        return d, -d
    c = coef[:, None]
    return e * c, q * c


def _score_all(store: EmbeddingStore, t, side: int) -> np.ndarray:
    """Scores of triple ``t`` with column ``side`` replaced by every entity."""
    spo = np.array([t], dtype=np.int64)
    check_ids(store, spo)
    return query_scores(store, query_rows(store, spo, side), store.entities)


def score_against_all_objects(store: EmbeddingStore, s: int, r: int) -> np.ndarray:
    """score(s, r, o) for every entity o."""
    return _score_all(store, (s, r, 0), 2)


def score_against_all_subjects(store: EmbeddingStore, r: int, o: int) -> np.ndarray:
    """score(s, r, o) for every entity s."""
    return _score_all(store, (0, r, o), 0)


@contextmanager
def atomic_open(path: str):
    """Binary file handle whose contents replace ``path`` only once complete.

    Writes go to ``path + ".tmp"`` in the same directory, which is synced
    and then renamed over ``path``; if the block raises, ``path`` keeps its
    previous contents and the temp file is removed.
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(store: EmbeddingStore, path: str) -> None:
    """Binary checkpoint: header plus row-major little-endian float64 matrices.

    The file is replaced atomically, so a crash mid-write leaves the
    previous checkpoint intact.
    """
    kind_bytes = store.model_kind.encode("ascii").ljust(16, b"\0")
    header = _CKPT_MAGIC + kind_bytes + struct.pack(
        "<QQQ", store.n_entities, store.n_relations, store.dimension
    )
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(store.entities, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(store.relations, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> EmbeddingStore:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    kind = blob[8:24].rstrip(b"\0").decode("ascii")
    if kind not in MODEL_KINDS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    n_e, n_r, k = struct.unpack("<QQQ", blob[24:48])
    ew, rw = row_widths(kind, k)
    need = 48 + 8 * (n_e * ew + n_r * rw)
    if len(blob) != need:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} bytes, expected {need})")
    ent_end = 48 + 8 * n_e * ew
    entities = np.frombuffer(blob[48:ent_end], dtype="<f8").reshape(n_e, ew).copy()
    relations = np.frombuffer(blob[ent_end:], dtype="<f8").reshape(n_r, rw).copy()
    return EmbeddingStore(kind, k, entities, relations)
