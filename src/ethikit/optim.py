"""AdamW with decoupled weight decay, gradient accumulation, and 1/sqrt(t) decay.

Micro-batch gradients are summed into a buffer; a flush divides by the window
size, applies the bias-corrected moment update at the scheduled rate, and
decays weight matrices (never biases or norm parameters) in the same step.
The schedule step t counts flushes, not micro-batches.
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
from ethikit.model import ModelParams, is_weight_param


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
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    g_acc: dict[str, np.ndarray]
    n_acc: int
    t: int = 0
    counter: int = 0


def init_state(params: ModelParams, cfg: OptimConfig) -> OptimState:
    zeros = lambda: {k: np.zeros_like(v) for k, v in params.tensors.items()}
    return OptimState(m=zeros(), v=zeros(), g_acc=zeros(), n_acc=cfg.n_acc)


def lr_at(t: int, eta0: float) -> float:
    """Inverse-square-root decay: eta0 / sqrt(t) for flush step t >= 1."""
    if t < 1:
        raise InvalidStep(f"schedule undefined at step {t}")
    return eta0 / math.sqrt(t)


def _check_shapes(state: OptimState, grads: dict[str, np.ndarray]) -> None:
    if set(grads) != set(state.g_acc):
        raise ShapeMismatch("gradient names do not match optimizer state")
    for name, g in grads.items():
        if g.shape != state.g_acc[name].shape:
            raise ShapeMismatch(
                f"{name}: gradient {g.shape} vs state {state.g_acc[name].shape}"
            )


def accumulate(state: OptimState, grads: dict[str, np.ndarray]) -> OptimState:
    """Sum one micro-batch's gradients into the buffer; no parameter changes."""
    if state.counter >= state.n_acc:
        raise OverAccumulation(f"window already holds {state.n_acc} micro-batches")
    _check_shapes(state, grads)
    for name, g in grads.items():
        state.g_acc[name] += g
    state.counter += 1
    return state


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

    state.t += 1
    eta = lr_at(state.t, cfg.eta0)
    bias1 = 1.0 - cfg.beta1 ** state.t
    bias2 = 1.0 - cfg.beta2 ** state.t
    divisor = state.counter

    for name, theta in params.tensors.items():
        g_mean = state.g_acc[name] / divisor
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g_mean
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g_mean * g_mean
        m_hat = m / bias1
        v_hat = v / bias2
        update = eta * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        if cfg.weight_decay > 0.0 and is_weight_param(name):
            update = update + eta * cfg.weight_decay * theta
        theta -= update.astype(theta.dtype, copy=False)
        state.g_acc[name][...] = 0
    state.counter = 0
    return params
