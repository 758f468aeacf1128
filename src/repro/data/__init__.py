"""Synthetic dataset generators.

The paper evaluates on two ~31 GB synthetic rating matrices, the DBpedia-500k
knowledge graph, and the One Billion Word benchmark.  None of these can be
shipped or processed here, so this package generates scaled-down synthetic
equivalents that preserve the properties the experiments depend on:

* :mod:`repro.data.synthetic_matrix` — sparse rating matrices drawn from a
  low-rank ground-truth model (so matrix factorization actually converges),
* :mod:`repro.data.synthetic_graph` — knowledge graphs with a DBpedia-like
  entity/relation ratio and Zipf-skewed entity usage,
* :mod:`repro.data.synthetic_corpus` — text corpora with Zipf-distributed
  word frequencies (the skew that drives localization conflicts in the
  word-vector experiment).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.data.synthetic_corpus import SyntheticCorpus, generate_corpus
    from repro.data.synthetic_graph import SyntheticKnowledgeGraph, generate_knowledge_graph
    from repro.data.synthetic_matrix import SyntheticMatrix, generate_matrix

#: Each generator loads where a run draws its dataset.
__getattr__ = lazy_exports(__name__, {
    "repro.data.synthetic_corpus": ("SyntheticCorpus", "generate_corpus"),
    "repro.data.synthetic_graph": ("SyntheticKnowledgeGraph", "generate_knowledge_graph"),
    "repro.data.synthetic_matrix": ("SyntheticMatrix", "generate_matrix"),
})

__all__ = [
    "SyntheticCorpus",
    "SyntheticKnowledgeGraph",
    "SyntheticMatrix",
    "generate_corpus",
    "generate_knowledge_graph",
    "generate_matrix",
]
