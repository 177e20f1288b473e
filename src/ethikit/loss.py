"""Binary cross-entropy objective and its analytic logit gradient.

The loss is mean-reduced over the batch; gradient accumulation later divides
by the window size, so the effective reduction over an accumulation window is
a mean of means. Probabilities are clamped away from {0, 1} before the logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ethikit.errors import EmptyInput, LengthMismatch
from ethikit.special import expit

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossValue:
    mean_loss: float
    n: int


def bce(probs, labels) -> LossValue:
    """Mean binary cross-entropy of predicted probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise LengthMismatch(f"{probs.shape} vs {labels.shape}")
    if probs.size == 0:
        raise EmptyInput("no samples")
    return LossValue(mean_loss=float(bce_terms(probs, labels).mean()), n=probs.size)


def bce_terms(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example binary cross-entropy of clamped probabilities."""
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))


def bce_grad_logits(logits, labels) -> np.ndarray:
    """d(mean BCE)/d(logits) for a sigmoid output: (sigmoid(z) - y) / N."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise LengthMismatch(f"{logits.shape} vs {labels.shape}")
    if logits.size == 0:
        raise EmptyInput("no samples")
    return (expit(logits) - labels) / logits.size
