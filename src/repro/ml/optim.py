"""Optimizer helpers: AdaGrad state packed into PS values.

The KGE experiments of the paper run SGD with AdaGrad and store the AdaGrad
metadata *in* the parameter server (Appendix A).  We reproduce this by packing
``[parameter | accumulated squared gradients]`` into each PS value vector:
a key with model dimension ``d`` uses a PS value of length ``2 d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ExperimentError


@dataclass(frozen=True)
class AdaGradPacking:
    """Describes how model values and AdaGrad accumulators share a PS value."""

    model_dim: int

    def __post_init__(self) -> None:
        if self.model_dim < 1:
            raise ExperimentError(f"model_dim must be >= 1, got {self.model_dim}")

    @property
    def value_length(self) -> int:
        """Length of the packed PS value (parameter + accumulator)."""
        return 2 * self.model_dim

    def unpack(self, packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split a packed PS value into (parameter, accumulator)."""
        packed = np.asarray(packed)
        if packed.shape[-1] != self.value_length:
            raise ExperimentError(
                f"packed value has length {packed.shape[-1]}, expected {self.value_length}"
            )
        return packed[..., : self.model_dim], packed[..., self.model_dim :]

    def pack(self, parameter: np.ndarray, accumulator: np.ndarray) -> np.ndarray:
        """Concatenate (parameter, accumulator) into a packed PS value."""
        parameter = np.asarray(parameter, dtype=np.float64)
        accumulator = np.asarray(accumulator, dtype=np.float64)
        if parameter.shape != accumulator.shape or parameter.shape[-1] != self.model_dim:
            raise ExperimentError("parameter and accumulator shapes do not match the packing")
        return np.concatenate([parameter, accumulator], axis=-1)


def adagrad_update(
    packing: AdaGradPacking,
    packed_value: np.ndarray,
    gradient: np.ndarray,
    learning_rate: float,
    epsilon: float = 1e-8,
) -> np.ndarray:
    """Compute the *cumulative PS update* for one AdaGrad step.

    Given the currently pulled packed value and a gradient, returns the delta
    to ``push`` so that the stored value becomes the post-step packed value:
    the parameter moves by ``-lr * g / sqrt(acc + g^2)`` and the accumulator
    grows by ``g^2``.  Inputs may carry leading batch dimensions ``[..., d]``.
    """
    if learning_rate <= 0:
        raise ExperimentError(f"learning_rate must be positive, got {learning_rate}")
    _, accumulator = packing.unpack(packed_value)
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != accumulator.shape:
        raise ExperimentError(
            f"gradient shape {gradient.shape} does not match parameter shape {accumulator.shape}"
        )
    squared = gradient * gradient
    # Expression order is part of the bit-identity contract: (acc + g*g) + eps.
    step = -learning_rate * gradient / np.sqrt(accumulator + squared + epsilon)
    return np.concatenate([step, squared], axis=-1)


def sgd_update(gradient: np.ndarray, learning_rate: float) -> np.ndarray:
    """Plain SGD cumulative update: ``-lr * gradient``."""
    if learning_rate <= 0:
        raise ExperimentError(f"learning_rate must be positive, got {learning_rate}")
    return -learning_rate * np.asarray(gradient, dtype=np.float64)
