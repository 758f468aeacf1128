"""Distributed ML tasks implemented against the parameter-server client API.

The three tasks of the paper's evaluation (Table 4), each written once against
the generic ``pull`` / ``push`` / ``localize`` / ``clock`` API so that the same
algorithm runs on the classic PS, the stale PS, and Lapse:

* :mod:`repro.ml.matrix_factorization` — DSGD low-rank matrix factorization
  with the parameter-blocking PAL technique,
* :mod:`repro.ml.kge` — knowledge-graph embeddings (RESCAL and ComplEx) with
  AdaGrad, negative sampling, data clustering for relation parameters and
  latency hiding (prelocalization) for entity parameters,
* :mod:`repro.ml.word2vec` — skip-gram word vectors with negative sampling and
  latency hiding.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports
from repro.ml.metrics import log_loss, rmse, sigmoid
from repro.ml.results import EpochResult

if TYPE_CHECKING:
    from repro.ml.kge import KGEConfig, KGETrainer
    from repro.ml.matrix_factorization import MatrixFactorizationConfig, MatrixFactorizationTrainer
    from repro.ml.optim import AdaGradPacking, adagrad_update
    from repro.ml.word2vec import Word2VecConfig, Word2VecTrainer

#: Each task loads where a run builds its trainer; every task uses metrics and results.
__getattr__ = lazy_exports(__name__, {
    "repro.ml.kge": ("KGEConfig", "KGETrainer"),
    "repro.ml.matrix_factorization": ("MatrixFactorizationConfig", "MatrixFactorizationTrainer"),
    "repro.ml.optim": ("AdaGradPacking", "adagrad_update"),
    "repro.ml.word2vec": ("Word2VecConfig", "Word2VecTrainer"),
})

__all__ = [
    "AdaGradPacking",
    "EpochResult",
    "KGEConfig",
    "KGETrainer",
    "MatrixFactorizationConfig",
    "MatrixFactorizationTrainer",
    "Word2VecConfig",
    "Word2VecTrainer",
    "adagrad_update",
    "log_loss",
    "rmse",
    "sigmoid",
]
