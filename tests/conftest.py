import os
import re

import numpy as np
import pytest

from kgsampler.graph import from_id_triples, induced_ids
from kgsampler.samplers import SAMPLER_KINDS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.fixture
def chain3():
    """a-r-b, b-r-c, c-r-d."""
    return from_id_triples([(0, 0, 1), (1, 0, 2), (2, 0, 3)], n_entities=4, n_relations=1)


@pytest.fixture
def path5():
    """Path a-b-c-d-e: four triples, five entities."""
    return from_id_triples([(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4)],
                           n_entities=5, n_relations=1)


@pytest.fixture
def triangle():
    return from_id_triples([(0, 0, 1), (1, 0, 2), (2, 0, 0)], n_entities=3, n_relations=1)


@pytest.fixture
def star6():
    """Hub entity 0 with six spokes."""
    return from_id_triples([(0, 0, i) for i in range(1, 7)], n_entities=7, n_relations=1)


def chi_square(counts) -> float:
    """Pearson's statistic of observed counts against equal expected counts."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = counts.sum() / len(counts)
    return float(((counts - expected) ** 2 / expected).sum())


# Upper 0.1% points of the chi-square distribution with 9, 19 and 29 degrees of freedom.
CHI2_CRIT = {9: 27.88, 19: 43.82, 29: 58.30}


def readme_record_keys():
    """The epoch record keys the README lists: every epoch's, and an evaluation epoch's
    extra ones."""
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    every = text.split("holds one JSON record per epoch (")[1].split("); on evaluation epochs")[0]
    extra = text.split("on evaluation epochs it also carries")[1].split(". Checkpoints")[0]

    def names(part):    # the restarts entry names the `sr` sampler
        return set(re.findall(r"`(\w+)`", part)) - set(SAMPLER_KINDS)
    return names(every), names(extra)


def known_triples(g):
    """Brute-force set of every (s, r, o) in train, valid and test."""
    return {tuple(int(x) for x in row) for split in (g.train, g.valid, g.test) for row in split}


def induced_rows(g, vertices):
    """Train rows induced by ``vertices`` (any iterable of entity ids), in train order."""
    vertices = np.fromiter(vertices, dtype=np.int64)
    return g.train.take(induced_ids(g, vertices, *g.incident(vertices)), axis=0)


def random_id_triples(rng, n_entities, n_relations, n_triples):
    rows = set()
    while len(rows) < n_triples:
        s = int(rng.integers(n_entities))
        o = int(rng.integers(n_entities))
        if s == o:
            continue
        rows.add((s, int(rng.integers(n_relations)), o))
    return sorted(rows)


@pytest.fixture
def small_random_graph():
    rng = np.random.default_rng(7)
    triples = random_id_triples(rng, n_entities=30, n_relations=3, n_triples=120)
    return from_id_triples(triples[:100], n_entities=30, n_relations=3,
                           valid=triples[100:110], test=triples[110:120])
