"""Knowledge-graph-completion toolkit with swappable minibatch samplers."""

__version__ = "0.1.0"

from .graph import KnowledgeGraph, load_dataset
from .samplers import Minibatch, SamplerPolicy, sample_minibatch
from .scorers import EmbeddingStore, initialize

__all__ = [
    "KnowledgeGraph",
    "load_dataset",
    "Minibatch",
    "SamplerPolicy",
    "sample_minibatch",
    "EmbeddingStore",
    "initialize",
    "__version__",
]
