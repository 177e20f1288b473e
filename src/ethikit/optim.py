"""AdamW with decoupled weight decay, gradient accumulation, and 1/sqrt(t) decay.

``model.backward`` adds each micro-batch's gradients into ``state.g_acc`` and
``accumulate`` then counts that micro-batch. A flush divides the sum by the
count, applies the bias-corrected moment update at the scheduled rate, and
decays weight matrices (never biases or norm parameters) in the same step.
How many micro-batches a window holds is the caller's choice: ``trainer.train``
flushes after every ``OptimConfig.n_acc`` of them and at each epoch's end.
The schedule step t counts flushes, not micro-batches.

The moments and the gradient buffer share the parameters' flat layout
(``model.FlatTensors``), so a flush walks all four buffers together in tiles
of ``model._TILE`` elements, in place, with each element taking the same
operations in the same order as a per-tensor update would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ethikit.errors import ConfigError, IncompleteAccumulation, InvalidStep, ShapeMismatch
from ethikit.model import FlatTensors, ModelParams, _row_tiles

# Adam's published constants (Kingma & Ba 2015); no recipe sets other values.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class OptimConfig:
    eta0: float = 6e-5
    weight_decay: float = 0.01
    n_acc: int = 4

    def __post_init__(self) -> None:
        if self.eta0 <= 0:
            raise ConfigError("eta0 must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.n_acc < 1:
            raise ConfigError("n_acc must be >= 1")


@dataclass
class OptimState:
    m: FlatTensors
    v: FlatTensors
    g_acc: FlatTensors
    t: int = 0
    counter: int = 0


def init_state(params: ModelParams) -> OptimState:
    zeros = params.tensors.zeros_like
    return OptimState(m=zeros(), v=zeros(), g_acc=zeros())


def lr_at(t: int, eta0: float) -> float:
    """Inverse-square-root decay: eta0 / sqrt(t) for flush step t >= 1."""
    if t < 1:
        raise InvalidStep(f"schedule undefined at step {t}")
    return eta0 / math.sqrt(t)


def accumulate(state: OptimState) -> None:
    """Count one micro-batch whose gradients are already added into ``state.g_acc``."""
    state.counter += 1


def flush(params: ModelParams, state: OptimState, cfg: OptimConfig) -> None:
    """Apply one AdamW step from the mean of the micro-batches the window holds.

    The mean divides by the actual count, so an under-filled window (an
    epoch's leftover micro-batches) still takes an unbiased step.
    """
    if state.counter == 0:
        raise IncompleteAccumulation("nothing accumulated")

    if not all(buf.same_layout(params.tensors.shapes, params.dtype) for buf in (state.m, state.v, state.g_acc)):
        raise ShapeMismatch("optimizer state was built for another parameter layout")

    state.t += 1
    eta = lr_at(state.t, cfg.eta0)
    bias1 = 1.0 - BETA1 ** state.t
    bias2 = 1.0 - BETA2 ** state.t
    decay = eta * cfg.weight_decay
    n_decayed = params.tensors.n_decayed if cfg.weight_decay > 0.0 else 0

    theta, m, v, g_acc = (buf.flat for buf in (params.tensors, state.m, state.v, state.g_acc))
    tiles = _row_tiles(theta.size, 1)
    scratch = np.empty(min(theta.size, tiles[0].stop), dtype=theta.dtype)
    for sl in tiles:
        g, m_t, v_t, theta_t = g_acc[sl], m[sl], v[sl], theta[sl]
        update = scratch[:g.size]
        g /= state.counter
        m_t *= BETA1
        np.multiply(g, 1.0 - BETA1, out=update)
        m_t += update
        v_t *= BETA2
        np.multiply(g, 1.0 - BETA2, out=update)
        update *= g
        v_t += update
        # The mean gradient is used up; g holds the denominator, then the decay.
        np.divide(m_t, bias1, out=update)
        update *= eta
        np.divide(v_t, bias2, out=g)
        np.sqrt(g, out=g)
        g += EPSILON
        update /= g
        decayed = max(0, min(sl.stop, n_decayed) - sl.start)
        if decayed:
            np.multiply(theta_t[:decayed], decay, out=g[:decayed])
            update[:decayed] += g[:decayed]
        theta_t -= update
        g[...] = 0
    state.counter = 0
