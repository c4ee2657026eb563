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
score goes through before :func:`query_scores`. Both return with their
result a backward map that reuses what their forward computed;
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

# Checkpoint header: magic, NUL-padded ASCII model kind, entity and relation counts, K.
# KGSCKPT2 follows it with the 32-byte id_space digest.
_CKPT_HEADER = struct.Struct("<8s16sQQQ")
_CKPT_DIGEST_BYTES = {b"KGSCKPT1": 0, b"KGSCKPT2": 32}

# Rows per block of score_triples, score_gradients and the loss pass, so
# their temporaries stay cache-sized; 1024 read fastest of 512-4096 on a
# b=1024, 64-negative, K=64 RotatE loss batch.
BLOCK_ROWS = 1024


@dataclass
class EmbeddingStore:
    """Dense trainable parameters: one row per entity and per relation."""

    model_kind: str
    dimension: int                 # K; complex models use 2K-wide entity rows
    entities: np.ndarray
    relations: np.ndarray
    # sha256 of the names the rows belong to (cli.id_space_digest); None if unknown
    id_space: bytes | None = None

    def __post_init__(self):
        ew, rw = row_widths(self.model_kind, self.dimension)
        if self.entities.shape[1] != ew or self.relations.shape[1] != rw:
            raise ValueError("embedding matrix widths do not match model kind")
        if self.id_space is not None and len(self.id_space) != 32:
            raise ValueError("id_space must be a 32-byte sha256 digest")

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
    """(entity row width, relation row width) for a model of dimension k; the one check
    of a model's shape, so an unknown kind or a k below 1 is a ValueError."""
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}; expected one of {MODEL_KINDS}")
    if k < 1:
        raise ValueError(f"model dimension must be >= 1, got {k}")
    if model_kind in ("transe", "distmult"):
        return k, k
    if model_kind == "complex":
        return 2 * k, 2 * k
    return 2 * k, k    # rotate: complex entity rows, one phase per dimension


def initialize(n_entities: int, n_relations: int, model_kind: str, k: int,
               seed: int = 0) -> EmbeddingStore:
    """Uniform init on [-6/sqrt(K), 6/sqrt(K)]; rotation phases on [-pi, pi]."""
    ew, rw = row_widths(model_kind, k)
    if n_entities <= 0 or n_relations <= 0:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(k)
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


def _blockwise(store: EmbeddingStore, spo: np.ndarray, fn) -> tuple:
    """``fn``'s tuple of per-row arrays for the (m, 3) triples ``spo``, by ``BLOCK_ROWS`` rows."""
    spo = np.asarray(spo, dtype=np.int64).reshape(-1, 3)
    check_ids(store, spo)
    # one empty block when m = 0, so the outputs keep their widths
    parts = [fn(spo[i:i + BLOCK_ROWS]) for i in range(0, max(len(spo), 1), BLOCK_ROWS)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def score_triples(store: EmbeddingStore, spo: np.ndarray) -> np.ndarray:
    """Scores for an (m, 3) array of triples.

    Each triple is one tail-side query of :func:`query_rows` scored against
    its object by :func:`query_scores`; every row's score keeps its
    arithmetic order, so scores do not depend on the other rows, and
    :func:`_blockwise` can take them ``BLOCK_ROWS`` at a time.
    """
    return _blockwise(store, spo, lambda b: (
        query_scores(store, query_rows(store, b, 2)[0], store.entities[b[:, 2]])[0],))[0]


def score(store: EmbeddingStore, t) -> float:
    """Score of a single (s, r, o) triple."""
    return float(score_triples(store, np.asarray(t).reshape(1, 3))[0])


def score_gradients(store: EmbeddingStore, spo: np.ndarray):
    """Per-triple analytic gradients.

    Returns (d_subject, d_relation, d_object) arrays of shape
    (m, entity width) / (m, relation width). Each triple is one tail-side
    query of :func:`query_rows` scored against its object: the backward map
    of :func:`query_scores` gives the partials w.r.t. the query and object
    rows, and that of :func:`query_rows` maps the query's back to the
    subject and relation rows. The norm-based models use the zero
    subgradient at an exact match.
    """
    def gradients(b):
        q, rows_backward = query_rows(store, b, 2)
        dq, d_object = query_scores(store, q, store.entities[b[:, 2]], out=q)[1](np.ones(len(b)))
        return (*rows_backward(dq), d_object)

    return _blockwise(store, spo, gradients)


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


def _side(spo: np.ndarray, side):
    """Fixed entity ids of ``spo`` and the sign of the relation's odd part, candidates in ``side``.

    ``side`` is 0 or 2, or one of them per row. The odd part (TransE's
    translation, the complex models' imaginary part) enters with sign +1 on
    the object side and -1 on the subject side: the inverse translation, the
    conjugate. A factor of ±1 is exact, so both sides share one formula.
    """
    tail = np.asarray(side) == 2
    return np.where(tail, spo[:, 0], spo[:, 2]), np.where(tail, 1.0, -1.0)[..., None]


def query_rows(store: EmbeddingStore, spo: np.ndarray, side):
    """Query rows for scoring every entity in column ``side`` (0 or 2) of each row of ``spo``.

    ``side`` may also give the column per row. For DistMult and ComplEx the
    score with entity row ``e`` in that column is ``q @ e``; for the
    ``DISTANCE_MODELS`` it is ``-||q - e||`` (on RotatE's subject side up to
    the rotation's rounding, see :func:`query_bounds`). :func:`query_scores`
    computes both.

    Returns ``(q, backward)``: ``backward(dq)`` maps gradients w.r.t. ``q``
    to ``(d_fixed, d_relation)``, those w.r.t. the fixed entity row (column
    ``2 - side``) and relation row of each triple, from the rows (and
    RotatE's cos/sin) gathered here.
    """
    kind = store.model_kind
    fixed_ids, sign = _side(spo, side)
    fixed = store.entities[fixed_ids]
    if kind == "transe":   # q = fixed + sign·wr
        return fixed + sign * store.relations[spo[:, 1]], lambda dq: (dq, sign * dq)
    if kind == "distmult":
        wr = store.relations[spo[:, 1]]
        return fixed * wr, lambda dq: (dq * wr, dq * fixed)
    p, r = _complex_relations(store, spo[:, 1])
    r = sign * r
    x, y = _halves(fixed)
    # the fixed entity x + iy times p + ir; on the subject side p - ir, which
    # for RotatE rotates the object back
    q = np.concatenate([p * x - r * y, p * y + r * x], axis=1)

    def backward(dq):
        u, v = _halves(dq)
        d_fixed = np.concatenate([u * p + v * r, v * p - u * r], axis=1)
        if kind == "rotate":   # (p, r) = (cos, sign·sin) of the phase
            return d_fixed, sign * (u * (-x * r - y * p) + v * (x * p - y * r))
        return d_fixed, np.concatenate([u * x + v * y, sign * (v * x - u * y)], axis=1)

    return q, backward


def query_bounds(store: EmbeddingStore, spo: np.ndarray, side):
    """``(q_abs, eps)`` of :func:`query_rows`' rows (``side`` as there), for ``evaluation._screen``.

    ``q_abs`` is each query entry's sums and products taken on absolute
    values. ``eps`` bounds ``|cos² + sin² - 1|`` of RotatE's rotations plus
    4u, and is 0 for the other models.
    """
    kind = store.model_kind
    fixed = np.abs(store.entities[_side(spo, side)[0]])
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


def query_scores(store: EmbeddingStore, q: np.ndarray, e: np.ndarray,
                 out: np.ndarray = None):
    """Score of each candidate entity row ``e[i]`` against query row ``q[i]``.

    ``-||q - e||`` for the ``DISTANCE_MODELS``, ``q · e`` for the others.
    The distance models write ``q - e`` into ``out`` (shaped like ``q``; it
    may be ``q``) when one is given.

    Returns ``(scores, backward)``: ``backward(coef)`` gives ``(dq, de)``,
    ``coef[i]`` times the partials of ``scores[i]`` w.r.t. ``q[i]`` and
    ``e[i]`` (zero where a distance is 0), from the forward's ``q - e`` and
    norms. It overwrites ``e``, and ``q`` (dot models) or ``out``.
    """
    if store.model_kind in DISTANCE_MODELS:
        d = np.subtract(q, e, out=out)
        n = np.sqrt(np.einsum("ij,ij->i", d, d))

        def backward(coef):
            dq = np.multiply(d, np.divide(-coef, n, out=np.zeros_like(n), where=n > 0)[:, None],
                             out=d)
            return dq, np.negative(dq, out=e)

        return -n, backward

    def backward(coef):
        c = coef[:, None]
        return np.multiply(e, c, out=e), np.multiply(q, c, out=q)

    return np.einsum("ij,ij->i", q, e), backward


def _score_all(store: EmbeddingStore, t, side: int) -> np.ndarray:
    """Scores of triple ``t`` with column ``side`` replaced by every entity."""
    spo = np.array([t], dtype=np.int64)
    check_ids(store, spo)
    return query_scores(store, query_rows(store, spo, side)[0], store.entities)[0]


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
    and then renamed over ``path``, and the directory is synced so that the
    rename itself survives a power loss; if the block raises, ``path`` keeps
    its previous contents and the temp file is removed.
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
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_checkpoint(store: EmbeddingStore, path: str) -> None:
    """Binary checkpoint: header plus row-major little-endian float64 matrices.

    The header is ``KGSCKPT2`` and ends in the store's ``id_space`` digest,
    or ``KGSCKPT1`` without it when the store has none. The file is replaced
    atomically, so a crash mid-write leaves the previous checkpoint intact.
    """
    magic = b"KGSCKPT1" if store.id_space is None else b"KGSCKPT2"
    with atomic_open(path) as fh:
        fh.write(_CKPT_HEADER.pack(magic, store.model_kind.encode("ascii"), store.n_entities,
                                   store.n_relations, store.dimension) + (store.id_space or b""))
        for table in (store.entities, store.relations):
            fh.write(np.ascontiguousarray(table, dtype="<f8"))


def load_checkpoint(path: str) -> EmbeddingStore:
    """A ``KGSCKPT1`` or ``KGSCKPT2`` checkpoint (``id_space`` None for the former); the
    file's size is checked before the tables are read straight into their arrays."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # a file shorter than the header is padded to unpack; only its magic is read before its size
        magic, kind, n_e, n_r, k = _CKPT_HEADER.unpack(
            fh.read(_CKPT_HEADER.size).ljust(_CKPT_HEADER.size, b"\0"))
        if magic not in _CKPT_DIGEST_BYTES:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        start = _CKPT_HEADER.size + _CKPT_DIGEST_BYTES[magic]
        if size < start:
            raise ValueError(f"{path}: truncated checkpoint ({size} bytes, header is {start})")
        id_space = fh.read(_CKPT_DIGEST_BYTES[magic]) or None
        kind = kind.rstrip(b"\0").decode("ascii", "replace")
        try:
            ew, rw = row_widths(kind, k)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        need = start + 8 * (n_e * ew + n_r * rw)
        if size != need:
            fault = "truncated checkpoint" if size < need else "checkpoint with trailing bytes"
            raise ValueError(f"{path}: {fault} ({size} bytes, expected {need})")
        # a file that shrank since its size was read comes up short and does not reshape
        entities = np.fromfile(fh, "<f8", n_e * ew).reshape(n_e, ew)
        relations = np.fromfile(fh, "<f8", n_r * rw).reshape(n_r, rw)
    return EmbeddingStore(kind, k, entities, relations, id_space)
