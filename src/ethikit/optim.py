"""AdamW with decoupled weight decay, gradient accumulation, and 1/sqrt(t) decay.

``accumulate`` counts a micro-batch and hands out the gradient sum, which
``model.backward`` adds into. A flush divides by the window size, applies the
bias-corrected moment update at the scheduled rate, and decays weight
matrices (never biases or norm parameters) in the same step. The schedule
step t counts flushes, not micro-batches.

The moments and the gradient buffer share the parameters' flat layout
(``model.FlatTensors``), so a flush walks all four buffers together in tiles
of ``model._TILE`` elements, in place, with each element taking the same
operations in the same order as a per-tensor update would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ethikit.errors import (
    ConfigError,
    IncompleteAccumulation,
    InvalidStep,
    OverAccumulation,
    ShapeMismatch,
)
from ethikit.model import FlatTensors, ModelParams, _row_tiles


@dataclass(frozen=True)
class OptimConfig:
    eta0: float = 6e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    n_acc: int = 4

    def __post_init__(self) -> None:
        if self.eta0 <= 0:
            raise ConfigError("eta0 must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.n_acc < 1:
            raise ConfigError("n_acc must be >= 1")


@dataclass
class OptimState:
    m: FlatTensors
    v: FlatTensors
    g_acc: FlatTensors
    n_acc: int
    t: int = 0
    counter: int = 0


def init_state(params: ModelParams, cfg: OptimConfig) -> OptimState:
    zeros = params.tensors.zeros_like
    return OptimState(m=zeros(), v=zeros(), g_acc=zeros(), n_acc=cfg.n_acc)


def lr_at(t: int, eta0: float) -> float:
    """Inverse-square-root decay: eta0 / sqrt(t) for flush step t >= 1."""
    if t < 1:
        raise InvalidStep(f"schedule undefined at step {t}")
    return eta0 / math.sqrt(t)


def accumulate(state: OptimState) -> FlatTensors:
    """Count one micro-batch into the window; return the sum its gradients add into.

    No parameter changes. A full window raises before the buffer is handed out.
    """
    if state.counter >= state.n_acc:
        raise OverAccumulation(f"window already holds {state.n_acc} micro-batches")
    state.counter += 1
    return state.g_acc


def flush(
    params: ModelParams,
    state: OptimState,
    cfg: OptimConfig,
    allow_partial: bool = False,
) -> ModelParams:
    """Apply one AdamW step from the accumulated mean gradient.

    ``allow_partial`` permits an under-filled window (an epoch's leftover
    micro-batches); the mean then divides by the actual count so the update
    stays unbiased.
    """
    if state.counter == 0:
        raise IncompleteAccumulation("nothing accumulated")
    if state.counter < state.n_acc and not allow_partial:
        raise IncompleteAccumulation(
            f"window holds {state.counter} of {state.n_acc} micro-batches"
        )

    if not all(buf.same_layout(params.tensors) for buf in (state.m, state.v, state.g_acc)):
        raise ShapeMismatch("optimizer state was built for another parameter layout")

    state.t += 1
    eta = lr_at(state.t, cfg.eta0)
    bias1 = 1.0 - cfg.beta1 ** state.t
    bias2 = 1.0 - cfg.beta2 ** state.t
    decay = eta * cfg.weight_decay
    n_decayed = params.tensors.n_decayed if cfg.weight_decay > 0.0 else 0

    theta, m, v, g_acc = (buf.flat for buf in (params.tensors, state.m, state.v, state.g_acc))
    tiles = _row_tiles(theta.size, 1)
    scratch = np.empty(min(theta.size, tiles[0].stop), dtype=theta.dtype)
    for sl in tiles:
        g, m_t, v_t, theta_t = g_acc[sl], m[sl], v[sl], theta[sl]
        update = scratch[:g.size]
        g /= state.counter
        m_t *= cfg.beta1
        np.multiply(g, 1.0 - cfg.beta1, out=update)
        m_t += update
        v_t *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=update)
        update *= g
        v_t += update
        # The mean gradient is used up; g holds the denominator, then the decay.
        np.divide(m_t, bias1, out=update)
        update *= eta
        np.divide(v_t, bias2, out=g)
        np.sqrt(g, out=g)
        g += cfg.epsilon
        update /= g
        decayed = max(0, min(sl.stop, n_decayed) - sl.start)
        if decayed:
            np.multiply(theta_t[:decayed], decay, out=g[:decayed])
            update[:decayed] += g[:decayed]
        theta_t -= update
        g[...] = 0
    state.counter = 0
    return params
