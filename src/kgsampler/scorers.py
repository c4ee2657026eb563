"""Score functions for triple plausibility and their analytic gradients.

Four models are supported. ``transe`` treats a relation as a translation
vector, ``distmult`` as a diagonal bilinear form, ``complex`` as a complex
trilinear product with a conjugated object, and ``rotate`` as a unit-modulus
complex rotation. Higher scores mean more plausible triples for all four;
the two norm-based models are bounded above by zero.

Complex-valued rows are stored as one real row: the first K entries are
real parts, the last K imaginary parts. ``rotate`` relation rows store K
phase angles, so the effective rotation coefficient always has modulus 1.
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


def _check_ids(store: EmbeddingStore, spo: np.ndarray):
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

    ``rotate`` evaluates cos/sin once per distinct relation in ``spo``
    (see :func:`_rotations`); every row's score keeps the arithmetic order
    of the per-row formula, so scores do not depend on the other rows.
    """
    spo = np.asarray(spo, dtype=np.int64).reshape(-1, 3)
    _check_ids(store, spo)
    es = store.entities[spo[:, 0]]
    eo = store.entities[spo[:, 2]]
    kind = store.model_kind

    if kind == "rotate":
        a, b = _halves(es)
        c, d = _halves(eo)
        cos, sin = _rotations(store, spo[:, 1])
        re = a * cos - b * sin - c
        im = a * sin + b * cos - d
        return -np.sqrt(np.einsum("ij->i", re * re + im * im))
    wr = store.relations[spo[:, 1]]
    if kind == "transe":
        return -np.linalg.norm(es + wr - eo, axis=1)
    if kind == "distmult":
        return np.einsum("ij,ij,ij->i", es, wr, eo)
    if kind == "complex":
        a, b = _halves(es)
        p, q = _halves(wr)
        c, d = _halves(eo)
        return np.einsum("ij->i", p * a * c + p * b * d + q * a * d - q * b * c)
    raise ValueError(kind)


def score(store: EmbeddingStore, t) -> float:
    """Score of a single (s, r, o) triple."""
    return float(score_triples(store, np.asarray(t).reshape(1, 3))[0])


def score_gradients(store: EmbeddingStore, spo: np.ndarray):
    """Per-triple analytic gradients.

    Returns (d_subject, d_relation, d_object) arrays of shape
    (m, entity width) / (m, relation width). The norm-based models use the
    zero subgradient at an exact match. ``rotate`` takes cos/sin from a
    per-relation table, as :func:`score_triples` does.
    """
    spo = np.asarray(spo, dtype=np.int64).reshape(-1, 3)
    _check_ids(store, spo)
    es = store.entities[spo[:, 0]]
    eo = store.entities[spo[:, 2]]
    kind = store.model_kind

    if kind == "rotate":
        a, b = _halves(es)
        c, d = _halves(eo)
        cos, sin = _rotations(store, spo[:, 1])
        re = a * cos - b * sin - c
        im = a * sin + b * cos - d
        n = np.sqrt(np.einsum("ij->i", re * re + im * im))[:, None]
        inv = np.divide(-1.0, n, out=np.zeros_like(n), where=n > 0)
        da = inv * (re * cos + im * sin)
        db = inv * (-re * sin + im * cos)
        dth = inv * (re * (-a * sin - b * cos) + im * (a * cos - b * sin))
        dc = -inv * re
        dd = -inv * im
        return np.concatenate([da, db], axis=1), dth, np.concatenate([dc, dd], axis=1)
    wr = store.relations[spo[:, 1]]
    if kind == "transe":
        diff = es + wr - eo
        n = np.linalg.norm(diff, axis=1, keepdims=True)
        unit = np.divide(diff, n, out=np.zeros_like(diff), where=n > 0)
        return -unit, -unit.copy(), unit.copy()
    if kind == "distmult":
        return wr * eo, es * eo, es * wr
    if kind == "complex":
        a, b = _halves(es)
        p, q = _halves(wr)
        c, d = _halves(eo)
        ds = np.concatenate([p * c + q * d, p * d - q * c], axis=1)
        dr = np.concatenate([a * c + b * d, a * d - b * c], axis=1)
        do = np.concatenate([p * a - q * b, p * b + q * a], axis=1)
        return ds, dr, do
    raise ValueError(kind)


def score_gradient(store: EmbeddingStore, t) -> ScoreGradient:
    """Gradient of a single triple's score w.r.t. its three embedding rows."""
    ds, dr, do = score_gradients(store, np.asarray(t).reshape(1, 3))
    return ScoreGradient(d_subject=ds[0], d_relation=dr[0], d_object=do[0])


def query_rows(store: EmbeddingStore, spo: np.ndarray, side: int):
    """Query rows for scoring every entity in column ``side`` (0 or 2) of each row of ``spo``.

    Returns ``(q, q_abs, eps)``. For DistMult and ComplEx the score with
    entity row ``e`` in that column is ``q @ e``; for the
    ``DISTANCE_MODELS`` it is ``-||q - e||`` (on RotatE's subject side up
    to the rotation's rounding, see ``eps``). ``q_abs`` bounds, entry by
    entry, the absolute values the query is built from, for the error
    bound of ``evaluation._screen``. ``eps`` bounds ``|cos² + sin² - 1|``
    of RotatE's rotations, 0 for the other models.
    """
    kind = store.model_kind
    fixed = store.entities[spo[:, 2 - side]]
    eps = 0.0
    if kind == "rotate":
        cos, sin = _rotations(store, spo[:, 1])
        x, y = _halves(fixed)
        if side == 2:   # the rotated subject
            q = np.concatenate([x * cos - y * sin, x * sin + y * cos], axis=1)
        else:           # the object under the inverse rotation
            q = np.concatenate([x * cos + y * sin, y * cos - x * sin], axis=1)
        q_abs = np.concatenate([np.abs(x) * np.abs(cos) + np.abs(y) * np.abs(sin),
                                np.abs(x) * np.abs(sin) + np.abs(y) * np.abs(cos)], axis=1)
        eps = float(np.max(np.abs(cos * cos + sin * sin - 1.0))) + 4 * UNIT_ROUNDOFF
        return q, q_abs, eps
    wr = store.relations[spo[:, 1]]
    if kind == "transe":
        q = fixed + wr if side == 2 else fixed - wr
        return q, np.abs(fixed) + np.abs(wr), eps
    if kind == "distmult":
        q = fixed * wr
        return q, np.abs(q), eps
    if kind == "complex":
        p, r = _halves(wr)
        x, y = _halves(fixed)
        if side == 2:   # subject x + iy: score = c·(px - ry) + d·(py + rx)
            q = np.concatenate([p * x - r * y, p * y + r * x], axis=1)
        else:           # object x + iy: score = a·(px + ry) + b·(py - rx)
            q = np.concatenate([p * x + r * y, p * y - r * x], axis=1)
        q_abs = np.concatenate([np.abs(p) * np.abs(x) + np.abs(r) * np.abs(y),
                                np.abs(p) * np.abs(y) + np.abs(r) * np.abs(x)], axis=1)
        return q, q_abs, eps
    raise ValueError(kind)


def _score_all(store: EmbeddingStore, t, side: int) -> np.ndarray:
    """Scores of triple ``t`` with column ``side`` replaced by every entity."""
    spo = np.array([t], dtype=np.int64)
    _check_ids(store, spo)
    q = query_rows(store, spo, side)[0][0]
    if store.model_kind in DISTANCE_MODELS:
        d = store.entities - q
        return -np.sqrt(np.einsum("ij,ij->i", d, d))
    return store.entities @ q


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
