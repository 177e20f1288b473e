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
[N, D] rows of the N real tokens, so every layer skips padding; attention
tiles reach their Q/K/V rows through a [B, L] map of positions to packed
rows. A one-layer model has no such layer and stays padded.

Attention and GELU run over tiles of whole rows (batch rows in attention),
about ``_TILE`` elements each (at least one row), so eval mode never holds a
[B, H, L, L] array. With more than one layer, attention computes a tile's
scores, softmax and context over its first m positions only, as queries and
as keys, m being the tile's longest row: the keys dropped are masked in
every row of the tile. Softmax rows then sum over m keys rather than L, so
these models' bits depend on which rows share a tile; ``_TILE`` is a
constant, so a replay is still bit-identical. A one-layer model keeps every
key, and its results are those of whole-batch evaluation.
"""

from __future__ import annotations

import math
import os
import struct
import typing
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

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


class FlatTensors(Mapping):
    """Named tensors, each a view into one flat buffer, ``flat``.

    The buffer holds the decayed tensors (``is_weight_param``) first and the
    rest after them, each group in name order, so ``flat[:n_decayed]`` is
    every element that weight decay touches. Names iterate in the order of
    ``shapes``, and a write through a view writes the buffer.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray):
        self.shapes = dict(shapes)
        self.flat = flat
        order = sorted(self.shapes, key=lambda name: not is_weight_param(name))
        views, offset = {}, 0
        for name in order:
            size = math.prod(self.shapes[name])
            views[name] = flat[offset:offset + size].reshape(self.shapes[name])
            offset += size
        self.n_decayed = sum(views[name].size for name in order if is_weight_param(name))
        self._views = {name: views[name] for name in self.shapes}

    @classmethod
    def zeros(cls, shapes: dict[str, tuple[int, ...]], dtype) -> "FlatTensors":
        return cls(shapes, np.zeros(sum(math.prod(s) for s in shapes.values()), dtype))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def same_layout(self, shapes: dict[str, tuple[int, ...]], dtype) -> bool:
        """Whether these tensors are ``shapes``, in that order, in ``dtype``."""
        return list(self.shapes.items()) == list(shapes.items()) and self.flat.dtype == dtype

    def zeros_like(self) -> "FlatTensors":
        return FlatTensors.zeros(self.shapes, self.flat.dtype)

    def copy(self) -> "FlatTensors":
        return FlatTensors(self.shapes, self.flat.copy())


class ModelParams:
    """Every trainable tensor, addressable by stable name.

    ``tensors`` is a ``FlatTensors`` with the layout of ``param_shapes(cfg)`` in
    ``cfg.dtype``: one passed in is kept, any other mapping is copied into one.
    """

    def __init__(self, tensors: Mapping[str, np.ndarray], cfg: ModelConfig):
        if not isinstance(tensors, FlatTensors):
            flat = FlatTensors.zeros({name: np.shape(t) for name, t in tensors.items()},
                                     np.result_type(*tensors.values()))
            for name, t in tensors.items():
                flat[name][...] = t
            tensors = flat
        if not tensors.same_layout(param_shapes(cfg), cfg.dtype):
            raise ShapeMismatch("tensors do not match the layout of their config")
        self.tensors = tensors
        self.cfg = cfg

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def names(self) -> list[str]:
        return list(self.tensors)

    @property
    def dtype(self) -> np.dtype:
        return self.tensors.flat.dtype

    def copy(self) -> "ModelParams":
        return ModelParams(self.tensors.copy(), self.cfg)


def _truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal resampled until inside +-_INIT_TRUNC, scaled by the std."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > _INIT_TRUNC
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > _INIT_TRUNC
    out *= _INIT_STD
    return out


def init_params(cfg: ModelConfig) -> ModelParams:
    """Seeded init: truncated-normal weights, zero biases, unit norm gains."""
    rng = np.random.default_rng(cfg.seed)
    tensors = FlatTensors.zeros(param_shapes(cfg), cfg.dtype)
    for name, tensor in tensors.items():
        if is_weight_param(name):
            tensor[...] = _truncated_normal(rng, tensor.shape)
        elif name.endswith("ln1.g") or name.endswith("ln2.g"):
            tensor[...] = 1.0
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


def _gelu(x: np.ndarray, out: np.ndarray, erf_out=None, erf_in=None) -> np.ndarray:
    """Exact GELU written to ``out``, which may be ``x``, one tile of rows at a time.

    The erf term is read from ``erf_in`` if given (backward rebuilds the
    output so, bit for bit), else computed and written to ``erf_out`` if given.
    """
    for sl in _row_tiles(len(x), x[0].size):
        erf_term = erf(x[sl] * _INV_SQRT2) if erf_in is None else erf_in[sl].copy()
        if erf_out is not None:
            erf_out[sl] = erf_term
        erf_term += 1.0
        np.multiply(0.5 * x[sl], erf_term, out=out[sl])
    return out


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


def _affine_grads(x: np.ndarray, dy: np.ndarray):
    """Weight and bias gradients of ``x @ w + b`` given the output gradient ``dy``."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1]), _sum_rows(dy)


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


def _matmul_into(dest: np.ndarray, at, a: np.ndarray, b: np.ndarray, scale=None) -> None:
    """``dest[at] = a @ b`` of [t, H, m, K] heads, merged, times ``scale`` if given."""
    view = isinstance(at, tuple)
    out = dest[at] if view else np.empty((len(a), a.shape[2], dest.shape[-1]), dest.dtype)
    np.matmul(a, b, out=_split_heads(out, a.shape[1]))
    if scale is not None:
        out *= scale
    if not view:
        dest[at] = out


def _slotted(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``x @ w + b``, packed [N, D] rows gaining a zero row N for ``_Rows.slot``."""
    out = x @ w if x.ndim == 3 else np.empty((len(x) + 1, w.shape[1]), dtype=x.dtype)
    if x.ndim == 2:
        out[-1] = 0.0
        np.matmul(x, w, out=out[:-1])
    if b is not None:
        out[:len(x)] += b
    return out


def _attention(q, k, v, attn_bias, rows, n_heads: int, keep_probs: bool):
    """Masked softmax attention, one tile of batch rows at a time.

    Each of ``q``, ``k`` and ``v`` is padded, [B, Lq, D] (Lq = L for ``k``
    and ``v``), or packed [N+1, D] rows that ``rows.slot`` maps the [B, L]
    positions to. Scores are scaled by 1/sqrt(D / n_heads). Returns the
    context in ``q``'s layout without row N, and, when ``keep_probs``, the
    probabilities the backward pass reads: one [t, H, mq, m] array per tile
    of t rows. With ``rows.extent``, a tile computes its first m positions
    only, m being its longest row's extent, as keys and, up to Lq, as
    queries; a padded context past them is left unset. The keys dropped are
    masked in every row of the tile, so their probabilities are exact zeros,
    but each softmax row now sums over m keys, not L, so the bits depend on
    the tile's rows.
    """
    b, length = rows.ids.shape
    n_q = length if q.ndim == 2 else q.shape[1]
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    ctx = np.empty_like(q)
    probs = []
    for sl in _row_tiles(b, n_heads * n_q * length):
        m = length if rows.extent is None else int(rows.extent[sl].max())
        at_q, at = rows.at(q, sl, min(n_q, m)), rows.at(k, sl, m)
        q_t, k_t, v_t = (_split_heads(a[i], n_heads) for a, i in ((q, at_q), (k, at), (v, at)))
        p = q_t @ k_t.transpose(0, 1, 3, 2)
        p *= scale
        p += attn_bias[sl, :, :, :m]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        _matmul_into(ctx, at_q, p, v_t)
        if keep_probs:
            probs.append(p)
    return ctx[:-1] if ctx.ndim == 2 else ctx, tuple(probs) if keep_probs else None


def _attention_backward(d_ctx, q, k, v, probs, rows, n_heads: int):
    """Gradients of q, k and v, one tile of batch rows at a time.

    ``q``, ``k``, ``v`` and ``rows`` are as ``_attention`` read them,
    ``probs`` holds its per-tile probabilities, and ``d_ctx`` is in ``q``'s
    layout and zero past each row's extent. Each gradient is in its input's
    layout without row N; a padded one is left unset past the positions the
    tile's probabilities cover.
    """
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    d_q, d_k, d_v = (np.empty_like(a) for a in (q, k, v))
    n_q = rows.ids.shape[1] if q.ndim == 2 else q.shape[1]
    for sl, p in zip(_row_tiles(len(rows.ids), n_heads * n_q * rows.ids.shape[1]), probs):
        at_q, at = rows.at(q, sl, p.shape[2]), rows.at(k, sl, p.shape[3])
        d_c, q_t, k_t, v_t = (_split_heads(a[i], n_heads)
                              for a, i in ((d_ctx, at_q), (q, at_q), (k, at), (v, at)))
        _matmul_into(d_v, at, p.transpose(0, 1, 3, 2), d_c)
        # d_probs, turned into d_scores in place
        d_scores = d_c @ v_t.transpose(0, 1, 3, 2)
        d_scores -= (d_scores * p).sum(axis=-1, keepdims=True)
        d_scores *= p
        _matmul_into(d_q, at_q, d_scores, k_t, scale)
        _matmul_into(d_k, at, d_scores.transpose(0, 1, 3, 2), q_t, scale)
    return tuple(g[:-1] if g.ndim == 2 else g for g in (d_q, d_k, d_v))


class _Rows:
    """Where the encoder keeps a batch's hidden rows.

    A model with more than one layer keeps the computed positions only, the
    real ones and CLS, packed as [N, D] rows in batch-row order; ``real``
    holds their flat indices into the [B, L] batch, ``slot`` maps each
    position to its packed row (N if not computed) and ``extent`` counts each
    batch row's positions up to its last computed one, which attention trims
    its tiles to. A one-layer model, whose only layer computes just the CLS
    row past K/V, keeps the padded [B, L, D] layout, and all three are None.
    ``x[rows.cls]`` is each batch row's CLS row, [B, 1, D], in either layout.
    """

    def __init__(self, batch: TokenBatch, n_layers: int):
        self.ids = batch.ids
        self.mask = batch.mask
        if n_layers == 1:
            self.real = self.slot = self.extent = None
            self.cls = np.s_[:, :1]
            return
        computed = self._computed()
        self.real = np.flatnonzero(computed)
        # One past each row's last computed position.
        self.extent = computed.shape[1] - np.argmax(computed[:, ::-1], axis=1)
        self.slot = np.where(computed, computed.cumsum().reshape(computed.shape) - 1,
                             len(self.real))
        self.cls = self.slot[:, :1]

    def _computed(self) -> np.ndarray:
        """The real positions and CLS, which the head reads whatever its mask says."""
        computed = self.mask != 0
        computed[:, 0] = True
        return computed

    def at(self, a: np.ndarray, sl: slice, m: int):
        """Index of rows ``sl``'s first m positions in ``a``: a slice, or ``slot`` rows."""
        if a.ndim == 3:
            return np.s_[sl, :m]
        slots = self.slot[sl, :m]
        first, last = slots[0, 0], slots[0, -1]
        consecutive = len(slots) == 1 and last - first == m - 1 and last < len(self.real)
        return np.s_[None, first:last + 1] if consecutive else slots

    def embed(self, tok: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Token plus position embeddings of the kept rows."""
        length = self.ids.shape[1]
        if self.real is None:
            return tok[self.ids] + pos[None, :length]
        return tok[self.ids.reshape(-1)[self.real]] + pos[self.real % length]

    def add_embed_grads(self, dx: np.ndarray, g_tok: np.ndarray, g_pos: np.ndarray) -> None:
        """Add the token and position embedding gradients from the first layer's input.

        Only computed positions reach the token gradient, so no PAD id is read.
        """
        length = self.ids.shape[1]
        if self.real is None:
            real = np.flatnonzero(self._computed())
            g_pos[:length] += dx.sum(axis=0)
            dx = dx.reshape(-1, dx.shape[-1])[real]
        else:
            real = self.real
            _scatter_add(g_pos, real % length, dx)
        _scatter_add(g_tok, self.ids.reshape(-1)[real], dx)


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
    if int(batch.ids.min(initial=0)) < 0 or int(batch.ids.max(initial=0)) >= cfg.vocab_size:
        raise ShapeMismatch("token id outside the model vocabulary")
    # A row with no key would get a uniform softmax over however many keys
    # its attention tile holds.
    if not batch.mask.any(axis=1).all():
        raise ShapeMismatch("a batch row has no unmasked token")


def _encoder(params: ModelParams, batch: TokenBatch, want_cache: bool):
    """Shared encoder pass; returns (h_cls, rows, layer_caches or None).

    The head reads the CLS row of the last layer alone, so there every
    position still supplies keys and values but only CLS is a query. Every
    earlier layer computes all of its rows.
    """
    cfg = params.cfg
    t = params.tensors
    rows = _Rows(batch, cfg.n_layers)
    attn_bias = ((batch.mask.astype(params.dtype) - 1.0) * MASK_BIAS)[:, None, None, :]

    x = rows.embed(t["embed.tok"], t["embed.pos"])
    layer_caches: list[dict] | None = [] if want_cache else None

    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        x_q = x[rows.cls if i == cfg.n_layers - 1 else slice(None)]
        q = _slotted(x_q, t[p + "attn.wq"], t[p + "attn.bq"])
        k = _slotted(x, t[p + "attn.wk"], t[p + "attn.bk"])
        v = _slotted(x, t[p + "attn.wv"], t[p + "attn.bv"])
        ctx, probs = _attention(q, k, v, attn_bias, rows, cfg.n_heads, keep_probs=want_cache)
        if want_cache:
            layer_caches.append(dict(x_in=x, q=q, k=k, v=v, probs=probs, ctx=ctx))
        del q, k, v, probs
        x_mid, ln1 = _layer_norm(x_q + (ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]),
                                 t[p + "ln1.g"], t[p + "ln1.b"])
        del ctx, x_q, x
        ff_pre = x_mid @ t[p + "ff.w1"] + t[p + "ff.b1"]
        if want_cache:
            erf_term = np.empty_like(ff_pre)
            layer_caches[-1].update(ln1=ln1, x_mid=x_mid, ff_pre=ff_pre, erf=erf_term)
            act = _gelu(ff_pre, np.empty_like(ff_pre), erf_out=erf_term)
        else:
            act = _gelu(ff_pre, ff_pre)  # nothing keeps the pre-activation
        del ln1, ff_pre
        h2 = act @ t[p + "ff.w2"] + t[p + "ff.b2"]
        h2 += x_mid
        del act, x_mid
        x, ln2 = _layer_norm(h2, t[p + "ln2.g"], t[p + "ln2.b"])
        if want_cache:
            layer_caches[-1]["ln2"] = ln2
        del h2, ln2

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
                    raise ConfigError("train-mode forward with dropout needs an rng")
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


def _scatter_add(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """Add ``rows[j]`` into row ``ids[j]`` of ``out``.

    A stable sort groups equal ids, and one ``add.reduceat`` sums each group.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    out[sorted_ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def _add(grads: FlatTensors, names, values) -> None:
    """Add each value into the gradient of its name, in place."""
    for name, value in zip(names, values):
        np.add(grads[name], value, out=grads[name])


def backward(params: ModelParams, cache: ForwardCache, dl_dlogits: np.ndarray,
             grads: FlatTensors) -> FlatTensors:
    """Add every parameter's exact gradient into ``grads`` and return it.

    ``grads`` must have the parameters' layout, checked before any write.
    Each gradient, computed whole with the cached dropout masks, is added
    into its view once. The cache is only read, so backward may run on it
    again; the GELU output it lacks is rebuilt from ``ff_pre`` and ``erf``,
    and each temporary is dropped after its last reader.
    """
    if cache is None:
        raise StaleCache("backward needs the cache from a train-mode forward")
    cfg = params.cfg
    if cache.cfg != cfg:
        raise StaleCache("cache does not match these parameters")
    rows = cache.rows
    if dl_dlogits.shape != (rows.ids.shape[0],):
        raise ShapeMismatch("dl_dlogits must have one entry per batch row")
    if not grads.same_layout(params.tensors.shapes, params.dtype):
        raise ShapeMismatch("gradient buffer does not have the parameters' layout")

    t = params.tensors
    dl = dl_dlogits.astype(params.dtype)
    _add(grads, ("head.w", "head.b"), (cache.h_task.T @ dl, dl.sum()))
    d_h_task = dl[:, None] * t["head.w"][None, :]
    d_h_cls = d_h_task if cache.head_mask is None else d_h_task * cache.head_mask

    # Gradient with respect to the last layer's output, whose only row is CLS.
    dx = d_h_cls[:, None, :]

    for i in reversed(range(cfg.n_layers)):
        p = f"layers.{i}."
        lc = cache.layer_caches[i]

        dh2, *ln2 = _layer_norm_backward(dx, lc["ln2"], t[p + "ln2.g"])
        del dx
        _add(grads, (p + "ln2.g", p + "ln2.b"), ln2)

        # h2 = x_mid + act @ w2 + b2, act rebuilt from ff_pre and its erf term
        act = _gelu(lc["ff_pre"], np.empty_like(lc["ff_pre"]), erf_in=lc["erf"])
        _add(grads, (p + "ff.w2", p + "ff.b2"), _affine_grads(act, dh2))
        del act
        d_ff_pre = _gelu_backward(dh2 @ t[p + "ff.w2"].T, lc["ff_pre"], lc["erf"])
        _add(grads, (p + "ff.w1", p + "ff.b1"), _affine_grads(lc["x_mid"], d_ff_pre))
        dh2 += d_ff_pre @ t[p + "ff.w1"].T
        del d_ff_pre
        dh1, *ln1 = _layer_norm_backward(dh2, lc["ln1"], t[p + "ln1.g"])
        del dh2
        _add(grads, (p + "ln1.g", p + "ln1.b"), ln1)

        # h1 = x_q + ctx @ wo + bo
        _add(grads, (p + "attn.wo", p + "attn.bo"), _affine_grads(lc["ctx"], dh1))
        d_ctx = _slotted(dh1, t[p + "attn.wo"].T)
        d_q, d_k, d_v = _attention_backward(d_ctx, lc["q"], lc["k"], lc["v"], lc["probs"],
                                            rows, cfg.n_heads)
        del d_ctx

        # Q reads the query rows of x_in (only CLS in the last layer), K and V
        # read all of them.
        x_in = lc["x_in"]
        at_q = rows.cls if i == cfg.n_layers - 1 else slice(None)
        for proj, d_proj, x_proj in (
            ("q", d_q, x_in[at_q]), ("k", d_k, x_in), ("v", d_v, x_in)
        ):
            _add(grads, (p + f"attn.w{proj}", p + f"attn.b{proj}"),
                 _affine_grads(x_proj, d_proj))
        dx = d_k @ t[p + "attn.wk"].T + d_v @ t[p + "attn.wv"].T
        dx[at_q] += dh1 + d_q @ t[p + "attn.wq"].T
        del d_q, d_k, d_v, dh1

    rows.add_embed_grads(dx, grads["embed.tok"], grads["embed.pos"])
    return grads


# --- checkpoint I/O ---

def _cfg_to_text(cfg: ModelConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def _cfg_from_text(text: str) -> ModelConfig:
    """Inverse of _cfg_to_text: the header must be exactly the lines it writes.

    One ``name=value`` line per field, each ending in a newline, in field
    order, the value as ``_cfg_to_text`` writes it; any other line, or none,
    is corrupt.
    """
    *lines, tail = text.split("\n")
    pairs = [line.partition("=") for line in lines]
    names = [f.name for f in fields(ModelConfig)]
    if tail or [(key, sep) for key, sep, _ in pairs] != [(name, "=") for name in names]:
        raise CorruptHeader("checkpoint config is not one name=value line per field, "
                            f"in the order {', '.join(names)}")
    # Each field's annotation (int, float or str) parses its value, which must
    # read as written (int and float also take "0_5", " +5" or "3e-1"), and
    # ModelConfig checks it: a value it rejects is as corrupt as one that does not parse.
    parse = typing.get_type_hints(ModelConfig)
    try:
        values = {key: parse[key](written) for key, _, written in pairs}
        for key, _, written in pairs:
            v = values[key]
            if written != str(v) and not (type(v) is float and v.is_integer()
                                          and written == str(int(v))):
                raise ValueError(f"{key}={written} is not how {v!r} is written")
        return ModelConfig(**values)
    except (ValueError, ConfigError) as exc:
        raise CorruptHeader(f"bad checkpoint config: {exc}") from exc


def _records(shapes: dict[str, tuple[int, ...]]):
    """Yield (name, record prefix) for each tensor of a ``param_shapes`` layout, in order.

    A prefix packs the length of the UTF-8 name, the name, ndim and each dim;
    the tensor's little-endian float32 data follows it in the file.
    """
    for name, shape in shapes.items():
        encoded = name.encode("utf-8")
        try:
            yield name, struct.pack(f"<I{len(encoded)}sB{len(shape)}I",
                                    len(encoded), encoded, len(shape), *shape)
        except struct.error as exc:
            raise ShapeMismatch(f"{name} {shape} does not fit a checkpoint record") from exc


def _least_record_bytes(cfg: ModelConfig) -> int:
    """A lower bound on the bytes of the record prefixes of ``cfg``'s layout.

    Every layer adds the records of layer 1 or longer ones (its index has
    at least as many digits), so one- and two-layer layouts bound any depth
    without building its layout.
    """
    one, two = (sum(len(prefix) for _, prefix in _records(param_shapes(replace(cfg, n_layers=n))))
                for n in (1, 2))
    return one + (cfg.n_layers - 1) * (two - one)


def save_checkpoint(params: ModelParams, path) -> None:
    """Header (``params.cfg`` as text), the tensor count, then each record and its data."""
    header = _cfg_to_text(params.cfg).encode("utf-8")
    parts = [_CKPT_MAGIC, struct.pack("<I", len(header)), header,
             struct.pack("<I", len(params.tensors))]
    for name, prefix in _records(params.tensors.shapes):
        parts += (prefix, np.ascontiguousarray(params[name], dtype="<f4").tobytes())
    with reading(path), open(path, "wb") as fh:
        fh.write(b"".join(parts))


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
    """Inverse of save_checkpoint; records must come in the order it writes them."""
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
        least = _least_record_bytes(cfg)
        if least > size - fh.tell():
            raise TruncatedCheckpoint(f"a {cfg.n_layers}-layer layout needs at least {least} "
                                      f"bytes of records, only {size - fh.tell()} left in the file")
        expected = param_shapes(cfg)
        # The tensors are read straight into the model's buffer, allocated
        # only when the file is large enough to hold it. A smaller file still
        # reads on, to the error its layout raises.
        count = sum(math.prod(shape) for shape in expected.values())
        tensors = FlatTensors.zeros(expected, cfg.dtype) if 4 * count <= size else None
        (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, size))
        if n_tensors != len(expected):
            raise ShapeMismatch(f"{n_tensors} tensors stored, config implies {len(expected)}")
        # Each stored prefix must be the one the config implies at its place,
        # byte for byte, before its data length is trusted.
        for name, prefix in _records(expected):
            if _read_exact(fh, len(prefix), size) != prefix:
                raise ShapeMismatch(f"stored record is not {name} {expected[name]}, "
                                    "which the config implies at its place")
            raw = _read_exact(fh, 4 * math.prod(expected[name]), size)
            if tensors is not None:
                tensors[name][...] = np.frombuffer(raw, dtype="<f4").reshape(expected[name])
        trailing = size - fh.tell()
        if trailing:
            raise CorruptHeader(f"{trailing} trailing bytes after the last tensor")

    return ModelParams(tensors, cfg)
