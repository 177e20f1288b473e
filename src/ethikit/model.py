"""Compact transformer encoder with a single-logit sigmoid head.

Forward and backward passes are written out by hand on numpy arrays; the
backward pass is exact reverse-mode differentiation through every layer, so
no parameter is ever excluded from updates. Dropout follows the classic
scheme: activations are zeroed during training and scaled by the keep
probability at inference. Every activation, logit and gradient is computed in
the configured dtype, and the last layer computes only the CLS row, the one
row the head reads.

The layers before the last compute every position, but only the real ones
matter: a model with more than one layer keeps its hidden state as packed
[N, D] rows of the N real tokens, so the projections, layer norms, GELU and
residuals skip padding. Attention alone scatters Q/K/V into the padded
[B, H, L, dk] layout. A one-layer model has no such layer and stays padded.

Attention and GELU run over tiles of whole rows (batch rows in attention),
about ``_TILE`` elements each (at least one row). Attention runs softmax on
a tile's query rows up to the longest row of the tile only, while its
products keep every query row, zero past that extent. A tile therefore
calls the same BLAS products and elementwise operations on each element as
whole-batch evaluation would, so every result is bit-identical to it, and
eval mode never holds a [B, H, L, L] array.
"""

from __future__ import annotations

import io
import math
import os
import struct
import typing
from dataclasses import dataclass, fields

import numpy as np

from ethikit.batching import DEFAULT_MAX_LEN, TokenBatch
from ethikit.errors import (
    ConfigError,
    CorruptHeader,
    ShapeMismatch,
    StaleCache,
    TruncatedCheckpoint,
    reading,
)
from ethikit.special import erf, expit
from ethikit.tokenizer import SPECIAL_TOKENS

LN_EPS = 1e-5
MASK_BIAS = 1e30
LOGIT_CLAMP = 30.0

_INIT_STD = 0.02
_INIT_TRUNC = 2.0  # in units of std

_CKPT_MAGIC = b"ETHIKIT-CKPT-1\n"

# Elements per tile of the attention and GELU passes: about 256 KB of
# float32, so a tile's temporaries stay in cache.
_TILE = 1 << 16

_WEIGHT_LEAVES = frozenset({"tok", "pos", "wq", "wk", "wv", "wo", "w1", "w2", "w"})


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    max_len: int = DEFAULT_MAX_LEN
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    dropout_p: float = 0.3
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_model", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.max_len < 2:
            raise ConfigError("max_len must be >= 2")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.vocab_size < len(SPECIAL_TOKENS):
            raise ConfigError("vocab_size must cover the special tokens")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unsupported dtype {self.dtype!r}")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Stable name -> shape map; the single source of truth for layout."""
    d, f = cfg.d_model, cfg.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "embed.tok": (cfg.vocab_size, d),
        "embed.pos": (cfg.max_len, d),
    }
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        for proj in ("q", "k", "v", "o"):
            shapes[p + f"attn.w{proj}"] = (d, d)
            shapes[p + f"attn.b{proj}"] = (d,)
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        shapes[p + "ff.w1"] = (d, f)
        shapes[p + "ff.b1"] = (f,)
        shapes[p + "ff.w2"] = (f, d)
        shapes[p + "ff.b2"] = (d,)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
    shapes["head.w"] = (d,)
    shapes["head.b"] = ()
    return shapes


def is_weight_param(name: str) -> bool:
    """Weight matrices and embeddings, as opposed to biases and norm params."""
    return name.rsplit(".", 1)[-1] in _WEIGHT_LEAVES


class ModelParams:
    """Every trainable tensor, addressable by stable name."""

    def __init__(self, tensors: dict[str, np.ndarray], cfg: ModelConfig):
        self.tensors = tensors
        self.cfg = cfg

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def names(self) -> list[str]:
        return list(self.tensors)

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["head.w"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()}, self.cfg)


def _truncated_normal(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Standard normal resampled until inside +-_INIT_TRUNC, scaled by the std."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > _INIT_TRUNC
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > _INIT_TRUNC
    return (out * _INIT_STD).astype(dtype)


def init_params(cfg: ModelConfig) -> ModelParams:
    """Seeded init: truncated-normal weights, zero biases, unit norm gains."""
    rng = np.random.default_rng(cfg.seed)
    dtype = np.dtype(cfg.dtype)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if is_weight_param(name):
            tensors[name] = _truncated_normal(rng, shape, dtype)
        elif name.endswith("ln1.g") or name.endswith("ln2.g"):
            tensors[name] = np.ones(shape, dtype=dtype)
        else:
            tensors[name] = np.zeros(shape, dtype=dtype)
    return ModelParams(tensors, cfg)


# --- elementwise pieces ---

# Python floats, not numpy scalars: a numpy float64 scalar would promote
# float32 activations to float64 (NEP 50).
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _row_tiles(n_rows: int, row_size: int) -> list[slice]:
    """Slices of whole rows, each about ``_TILE`` elements (at least one row)."""
    step = max(1, _TILE // row_size)
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _gelu(x: np.ndarray, erf_out: np.ndarray | None) -> np.ndarray:
    """Exact GELU, one tile of rows at a time.

    The erf term, which the backward pass reuses, is written to ``erf_out``
    (shaped like ``x``) when one is given.
    """
    act = np.empty_like(x)
    for sl in _row_tiles(len(x), x[0].size):
        erf_term = erf(x[sl] * _INV_SQRT2)
        if erf_out is not None:
            erf_out[sl] = erf_term
        erf_term += 1.0
        np.multiply(0.5 * x[sl], erf_term, out=act[sl])
    return act


def _gelu_backward(d_act: np.ndarray, x: np.ndarray, erf_term: np.ndarray) -> np.ndarray:
    """Gradient through GELU, written over ``d_act`` one tile of rows at a time."""
    for sl in _row_tiles(len(x), x[0].size):
        xs = x[sl]
        grad = -0.5 * xs
        grad *= xs
        np.exp(grad, out=grad)
        grad *= xs
        grad *= _INV_SQRT_2PI
        grad += 0.5 * (1.0 + erf_term[sl])
        d_act[sl] *= grad
    return d_act


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last: packed [N, D] rows or [B, L, D]."""
    return a.sum(axis=tuple(range(a.ndim - 1)))


def _layer_norm_backward(dy: np.ndarray, ln_cache, g: np.ndarray):
    xhat, inv = ln_cache
    g_g = _sum_rows(dy * xhat)
    g_b = _sum_rows(dy)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, g_g, g_b


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _softmax_rows(extent, sl: slice, n_q: int) -> int:
    """Query rows a tile runs softmax on: up to its longest row, or all of them."""
    return n_q if extent is None else min(n_q, int(extent[sl].max()))


def _attention(q, k, v, attn_bias, extent, scale: float, keep_probs: bool):
    """Masked softmax attention, one tile of batch rows at a time.

    ``q`` is [B, H, Lq, K], ``k`` and ``v`` are [B, H, L, K]; ``extent``,
    unless None, gives the query rows of each batch row that matter, and
    ``q`` is zero past them. Returns the context with heads merged,
    [B, Lq, H*K], and, when ``keep_probs``, the [B, H, Lq, L] probabilities
    the backward pass reads. A tile runs softmax on its query rows up to its
    longest row only; past that, its scores, probabilities and context stay
    zero. A tile holds every key of its rows, so each softmax row is
    computed whole, as it would be over the full batch.
    """
    b, h, n_q, dk = q.shape
    length = k.shape[2]
    ctx = np.empty((b, n_q, h * dk), dtype=q.dtype)
    ctx_heads = _split_heads(ctx, h)
    probs = np.empty((b, h, n_q, length), dtype=q.dtype) if keep_probs else None
    k_t = k.transpose(0, 1, 3, 2)
    for sl in _row_tiles(b, h * n_q * length):
        scores = np.matmul(q[sl], k_t[sl], out=None if probs is None else probs[sl])
        p = scores[:, :, : _softmax_rows(extent, sl, n_q)]
        p *= scale
        p += attn_bias[sl]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(scores, v[sl], out=ctx_heads[sl])
    return ctx, probs


def _attention_backward(d_ctx, q, k, v, probs, extent, scale: float):
    """Gradients of q, k and v with heads merged, one tile of batch rows at a time.

    ``d_ctx`` is [B, H, Lq, K] and zero past each row's extent; the results
    are [B, Lq, H*K], [B, L, H*K] and [B, L, H*K]. Like the forward pass, a
    tile runs the softmax gradient on its query rows up to its longest row;
    every product keeps all Lq rows, so its rounding matches whole-batch
    evaluation.
    """
    b, h, n_q, dk = q.shape
    length = k.shape[2]
    d_q = np.empty((b, n_q, h * dk), dtype=q.dtype)
    d_k = np.empty((b, length, h * dk), dtype=q.dtype)
    d_v = np.empty_like(d_k)
    d_q_heads, d_k_heads, d_v_heads = (_split_heads(d, h) for d in (d_q, d_k, d_v))
    v_t = v.transpose(0, 1, 3, 2)
    for sl in _row_tiles(b, h * n_q * length):
        m = _softmax_rows(extent, sl, n_q)
        p = probs[sl]
        np.matmul(p.transpose(0, 1, 3, 2), d_ctx[sl], out=d_v_heads[sl])
        # d_probs, turned into d_scores in place
        d_scores = d_ctx[sl] @ v_t[sl]
        d_rows, p_rows = d_scores[:, :, :m], p[:, :, :m]
        d_rows -= (d_rows * p_rows).sum(axis=-1, keepdims=True)
        d_rows *= p_rows
        np.matmul(d_scores, k[sl], out=d_q_heads[sl])
        d_q_heads[sl] *= scale
        np.matmul(d_scores.transpose(0, 1, 3, 2), q[sl], out=d_k_heads[sl])
        d_k_heads[sl] *= scale
    return d_q, d_k, d_v


class _Rows:
    """Where the encoder keeps a batch's hidden rows.

    A model with more than one layer keeps the computed positions only, the
    real ones and CLS, packed as [N, D] rows in batch-row order; ``real``
    holds their flat indices into the [B, L] batch and ``extent`` counts
    each batch row's query rows for attention. A one-layer model, whose only
    layer computes just the CLS row past K/V, keeps the padded [B, L, D]
    layout, and both are None. ``x[rows.cls]`` is each batch row's CLS row,
    [B, 1, D], in either layout.
    """

    def __init__(self, batch: TokenBatch, n_layers: int):
        self.ids = batch.ids
        self.mask = batch.mask
        if n_layers == 1:
            self.real = self.extent = None
            self.cls = np.s_[:, :1]
            return
        b, length = batch.ids.shape
        computed = self._computed()
        self.real = np.flatnonzero(computed)
        # One past each row's last computed position.
        self.extent = length - np.argmax(computed[:, ::-1], axis=1)
        self.cls = np.searchsorted(self.real, np.arange(b) * length)[:, None]

    def _computed(self) -> np.ndarray:
        """The real positions and CLS, which the head reads whatever its mask says."""
        computed = self.mask != 0
        computed[:, 0] = True
        return computed

    def embed(self, tok: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Token plus position embeddings of the kept rows."""
        length = self.ids.shape[1]
        if self.real is None:
            return tok[self.ids] + pos[None, :length]
        return tok[self.ids.reshape(-1)[self.real]] + pos[self.real % length]

    def padded(self, x: np.ndarray) -> np.ndarray:
        """Rows in the padded [B, L, D] layout, zero at padding."""
        if self.real is None:
            return x
        out = np.zeros((self.ids.size, x.shape[-1]), dtype=x.dtype)
        out[self.real] = x
        return out.reshape(*self.ids.shape, -1)

    def pack(self, padded: np.ndarray) -> np.ndarray:
        """The rows of a padded [B, L, D] array that this layout keeps."""
        if self.real is None:
            return padded
        return padded.reshape(-1, padded.shape[-1])[self.real]

    def embed_grads(self, dx: np.ndarray, cfg: ModelConfig):
        """Token and position embedding gradients from the first layer's input.

        Only computed positions reach the token gradient, so no PAD id is read.
        """
        length = self.ids.shape[1]
        if self.real is None:
            real = np.flatnonzero(self._computed())
            g_pos = np.zeros((cfg.max_len, cfg.d_model), dtype=dx.dtype)
            g_pos[:length] = dx.sum(axis=0)
            dx = dx.reshape(-1, cfg.d_model)[real]
        else:
            real = self.real
            g_pos = _scatter_rows(cfg.max_len, real % length, dx)
        return _scatter_rows(cfg.vocab_size, self.ids.reshape(-1)[real], dx), g_pos


@dataclass
class ForwardCache:
    """Intermediate activations and dropout mask needed for exact backprop."""

    rows: _Rows                  # layout of the hidden rows, with the batch's ids
    layer_caches: list[dict]
    h_cls: np.ndarray            # [B, D] encoder output at the CLS position
    head_mask: np.ndarray | None  # [B, D] Bernoulli keep mask, None when p == 0
    h_task: np.ndarray           # [B, D] head input after dropout
    cfg: ModelConfig             # config of the parameters that produced it


def _check_batch(params: ModelParams, batch: TokenBatch) -> None:
    cfg = params.cfg
    if batch.ids.shape != batch.mask.shape:
        raise ShapeMismatch("ids and mask shapes differ")
    if batch.ids.shape[1] > cfg.max_len:
        raise ShapeMismatch(
            f"sequence length {batch.ids.shape[1]} exceeds max_len {cfg.max_len}"
        )
    if int(batch.ids.max(initial=0)) >= cfg.vocab_size:
        raise ShapeMismatch("token id outside the model vocabulary")


def _encoder(params: ModelParams, batch: TokenBatch, want_cache: bool):
    """Shared encoder pass; returns (h_cls, rows, layer_caches or None).

    The head reads the CLS row of the last layer alone, so there every
    position still supplies keys and values but only CLS is a query. Every
    earlier layer computes all of its rows.
    """
    cfg = params.cfg
    t = params.tensors
    rows = _Rows(batch, cfg.n_layers)
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    attn_bias = ((batch.mask.astype(params.dtype) - 1.0) * MASK_BIAS)[:, None, None, :]

    x = rows.embed(t["embed.tok"], t["embed.pos"])
    layer_caches: list[dict] | None = [] if want_cache else None

    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        last = i == cfg.n_layers - 1
        x_q = x[rows.cls if last else slice(None)]
        q = x_q @ t[p + "attn.wq"] + t[p + "attn.bq"]
        k = x @ t[p + "attn.wk"] + t[p + "attn.bk"]
        v = x @ t[p + "attn.wv"] + t[p + "attn.bv"]
        q = _split_heads(q if last else rows.padded(q), cfg.n_heads)
        k = _split_heads(rows.padded(k), cfg.n_heads)
        v = _split_heads(rows.padded(v), cfg.n_heads)
        ctx, probs = _attention(q, k, v, attn_bias, rows.extent, scale,
                                keep_probs=want_cache)
        if not last:
            ctx = rows.pack(ctx)
        attn_out = ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]
        h1 = x_q + attn_out
        x_mid, ln1 = _layer_norm(h1, t[p + "ln1.g"], t[p + "ln1.b"])
        ff_pre = x_mid @ t[p + "ff.w1"] + t[p + "ff.b1"]
        erf_term = np.empty_like(ff_pre) if want_cache else None
        act = _gelu(ff_pre, erf_term)
        ff_out = act @ t[p + "ff.w2"] + t[p + "ff.b2"]
        h2 = x_mid + ff_out
        x_next, ln2 = _layer_norm(h2, t[p + "ln2.g"], t[p + "ln2.b"])
        if want_cache:
            layer_caches.append(
                dict(x_in=x, q=q, k=k, v=v, probs=probs, ctx=ctx, ln1=ln1,
                     x_mid=x_mid, ff_pre=ff_pre, erf=erf_term, act=act, ln2=ln2)
            )
        x = x_next

    return x[:, 0, :], rows, layer_caches


def cls_representation(params: ModelParams, batch: TokenBatch) -> np.ndarray:
    """Deterministic encoder output at the CLS position, before the head."""
    _check_batch(params, batch)
    h_cls, _, _ = _encoder(params, batch, want_cache=False)
    return h_cls


def forward(
    params: ModelParams,
    batch: TokenBatch,
    train: bool = False,
    rng: np.random.Generator | None = None,
    head_mask: np.ndarray | None = None,
):
    """One logit per row from the CLS position through the head.

    Training mode samples a Bernoulli keep mask for the head input (classic
    dropout, no rescaling) and returns a cache for backward; eval mode is
    deterministic and scales the head input by the keep probability instead.
    ``head_mask`` reuses a previously sampled mask, e.g. for gradient checks.
    Logits, like every activation, are in the parameters' dtype.
    """
    _check_batch(params, batch)
    cfg = params.cfg
    h_cls, rows, layer_caches = _encoder(params, batch, want_cache=train)

    if train:
        if cfg.dropout_p > 0.0:
            if head_mask is None:
                if rng is None:
                    raise ValueError("train-mode forward with dropout needs an rng")
                keep = 1.0 - cfg.dropout_p
                head_mask = (rng.random(h_cls.shape) < keep).astype(params.dtype)
            elif head_mask.shape != h_cls.shape:
                raise ShapeMismatch("head_mask shape does not match CLS activations")
            h_task = head_mask * h_cls
        else:
            head_mask = None
            h_task = h_cls
    else:
        h_task = (1.0 - cfg.dropout_p) * h_cls

    logits = h_task @ params["head.w"] + params["head.b"]

    if not train:
        return logits, None
    cache = ForwardCache(
        rows=rows,
        layer_caches=layer_caches,
        h_cls=h_cls,
        head_mask=head_mask,
        h_task=h_task,
        cfg=cfg,
    )
    return logits, cache


def classify(params: ModelParams, batch: TokenBatch) -> np.ndarray:
    """Eval-mode float64 probabilities; logits are clamped to +-30 first."""
    logits, _ = forward(params, batch, train=False)
    return expit(np.clip(logits.astype(np.float64), -LOGIT_CLAMP, LOGIT_CLAMP))


def _scatter_rows(n_rows: int, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum ``rows[j]`` into row ``ids[j]`` of an [n_rows, D] zero array.

    A stable sort groups equal ids, and one ``add.reduceat`` sums each group.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    out = np.zeros((n_rows, rows.shape[1]), dtype=rows.dtype)
    out[sorted_ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def backward(params: ModelParams, cache: ForwardCache, dl_dlogits: np.ndarray):
    """Exact gradients for every named parameter, reusing cached dropout masks."""
    if cache is None:
        raise StaleCache("backward needs the cache from a train-mode forward")
    cfg = params.cfg
    if cache.cfg != cfg:
        raise StaleCache("cache does not match these parameters")
    rows = cache.rows
    if dl_dlogits.shape != (rows.ids.shape[0],):
        raise ShapeMismatch("dl_dlogits must have one entry per batch row")

    t = params.tensors
    dtype = params.dtype
    dl = dl_dlogits.astype(dtype)
    grads: dict[str, np.ndarray] = {}
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)

    grads["head.w"] = cache.h_task.T @ dl
    grads["head.b"] = np.asarray(dl.sum(), dtype=dtype)
    d_h_task = dl[:, None] * t["head.w"][None, :]
    d_h_cls = d_h_task if cache.head_mask is None else d_h_task * cache.head_mask

    # Gradient with respect to the last layer's output, whose only row is CLS.
    dx = d_h_cls[:, None, :]

    for i in reversed(range(cfg.n_layers)):
        p = f"layers.{i}."
        lc = cache.layer_caches[i]
        last = i == cfg.n_layers - 1

        dh2, g_ln2g, g_ln2b = _layer_norm_backward(dx, lc["ln2"], t[p + "ln2.g"])
        grads[p + "ln2.g"] = g_ln2g
        grads[p + "ln2.b"] = g_ln2b

        # h2 = x_mid + act @ w2 + b2
        d_ff_out = dh2
        flat_act = lc["act"].reshape(-1, cfg.d_ff)
        grads[p + "ff.w2"] = flat_act.T @ d_ff_out.reshape(-1, cfg.d_model)
        grads[p + "ff.b2"] = _sum_rows(d_ff_out)
        d_act = d_ff_out @ t[p + "ff.w2"].T
        d_ff_pre = _gelu_backward(d_act, lc["ff_pre"], lc["erf"])
        flat_mid = lc["x_mid"].reshape(-1, cfg.d_model)
        grads[p + "ff.w1"] = flat_mid.T @ d_ff_pre.reshape(-1, cfg.d_ff)
        grads[p + "ff.b1"] = _sum_rows(d_ff_pre)
        dx_mid = dh2 + d_ff_pre @ t[p + "ff.w1"].T

        dh1, g_ln1g, g_ln1b = _layer_norm_backward(dx_mid, lc["ln1"], t[p + "ln1.g"])
        grads[p + "ln1.g"] = g_ln1g
        grads[p + "ln1.b"] = g_ln1b

        # h1 = x_q + ctx @ wo + bo
        d_attn_out = dh1
        flat_ctx = lc["ctx"].reshape(-1, cfg.d_model)
        grads[p + "attn.wo"] = flat_ctx.T @ d_attn_out.reshape(-1, cfg.d_model)
        grads[p + "attn.bo"] = _sum_rows(d_attn_out)
        d_ctx = d_attn_out @ t[p + "attn.wo"].T
        d_ctx = _split_heads(d_ctx if last else rows.padded(d_ctx), cfg.n_heads)

        d_q, d_k, d_v = _attention_backward(
            d_ctx, lc["q"], lc["k"], lc["v"], lc["probs"], rows.extent, scale
        )
        d_k, d_v = rows.pack(d_k), rows.pack(d_v)
        if not last:
            d_q = rows.pack(d_q)

        # Q reads the query rows of x_in (only CLS in the last layer), K and V
        # read all of them.
        x_in = lc["x_in"]
        at_q = rows.cls if last else slice(None)
        for proj, d_proj, x_proj in (
            ("q", d_q, x_in[at_q]), ("k", d_k, x_in), ("v", d_v, x_in)
        ):
            flat_x = x_proj.reshape(-1, cfg.d_model)
            grads[p + f"attn.w{proj}"] = flat_x.T @ d_proj.reshape(-1, cfg.d_model)
            grads[p + f"attn.b{proj}"] = _sum_rows(d_proj)
        dx = d_k @ t[p + "attn.wk"].T + d_v @ t[p + "attn.wv"].T
        dx[at_q] += dh1 + d_q @ t[p + "attn.wq"].T

    grads["embed.tok"], grads["embed.pos"] = rows.embed_grads(dx, cfg)

    return {name: grads[name] for name in params.tensors}


# --- checkpoint I/O ---

def _cfg_to_text(cfg: ModelConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def _cfg_from_text(text: str) -> ModelConfig:
    values: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        key, _, val = line.partition("=")
        values[key] = val
    # Each field's annotation (int, float or str) parses its value.
    try:
        return ModelConfig(**{
            name: parse(values[name])
            for name, parse in typing.get_type_hints(ModelConfig).items()
        })
    except (KeyError, ValueError) as exc:
        raise CorruptHeader(f"bad checkpoint config: {exc}") from exc


def save_checkpoint(params: ModelParams, path) -> None:
    """Header (``params.cfg`` as text) plus named little-endian float32 tensors."""
    buf = io.BytesIO()
    buf.write(_CKPT_MAGIC)
    header = _cfg_to_text(params.cfg).encode("utf-8")
    buf.write(struct.pack("<I", len(header)))
    buf.write(header)
    buf.write(struct.pack("<I", len(params.tensors)))
    for name, tensor in params.tensors.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", tensor.ndim))
        for dim in tensor.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n: int, size: int) -> bytes:
    """Read exactly n bytes of a file of ``size`` bytes.

    A declared length is checked against the bytes left before it is read,
    so a corrupt length fails here instead of requesting gigabytes.
    """
    left = size - fh.tell()
    if n > left:
        raise TruncatedCheckpoint(f"expected {n} bytes, only {left} left in the file")
    return fh.read(n)


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint."""
    with reading(path), open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise CorruptHeader("not a checkpoint file")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, size))
        try:
            header = _read_exact(fh, header_len, size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptHeader("undecodable header") from exc
        cfg = _cfg_from_text(header)
        expected = param_shapes(cfg)
        (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, size))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, size))
            name = _read_exact(fh, name_len, size).decode("utf-8", errors="replace")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, size))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, size))[0] for _ in range(ndim)
            )
            # Validate the declared layout before trusting it for a read size.
            if name not in expected or name in tensors:
                raise ShapeMismatch(f"unexpected or duplicate tensor {name!r}")
            if shape != expected[name]:
                raise ShapeMismatch(
                    f"{name}: stored {shape}, config implies {expected[name]}"
                )
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = _read_exact(fh, 4 * count, size)
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
            tensors[name] = arr.astype(cfg.dtype)
        trailing = size - fh.tell()
        if trailing:
            raise CorruptHeader(f"{trailing} trailing bytes after the last tensor")

    if len(tensors) != len(expected):
        raise ShapeMismatch("checkpoint tensors do not match the config layout")
    ordered = {name: tensors[name] for name in expected}
    return ModelParams(ordered, cfg)
