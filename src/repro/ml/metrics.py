"""Loss and evaluation metrics shared by the ML tasks."""

from __future__ import annotations

import numpy as np

from repro.errors import ExperimentError


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``1 / (1 + exp(-x))`` for ``x >= 0`` and ``exp(x) / (1 + exp(x))`` below:
    both are ``numerator / (1 + exp(-|x|))``, so one ``exp`` serves all entries.
    """
    x = np.asarray(x, dtype=np.float64)
    decay = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, decay) / (1.0 + decay)


def log_loss(scores: np.ndarray, labels: np.ndarray, epsilon: float = 1e-12) -> float:
    """Mean binary cross-entropy of logits ``scores`` against 0/1 ``labels``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ExperimentError("scores and labels must have the same shape")
    if scores.size == 0:
        raise ExperimentError("log_loss requires at least one score")
    probabilities = np.clip(sigmoid(scores), epsilon, 1.0 - epsilon)
    return float(
        -np.mean(labels * np.log(probabilities) + (1.0 - labels) * np.log(1.0 - probabilities))
    )


def rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root-mean-square error."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ExperimentError("predictions and targets must have the same shape")
    if predictions.size == 0:
        raise ExperimentError("rmse requires at least one prediction")
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))
