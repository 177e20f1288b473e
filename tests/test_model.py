import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, expit

from ethikit import model
from ethikit.batching import TokenBatch
from ethikit.errors import (
    CheckpointError,
    ConfigError,
    CorruptHeader,
    EthikitError,
    ShapeMismatch,
    StaleCache,
    TruncatedCheckpoint,
)
from ethikit.loss import bce, bce_grad_logits
from ethikit.model import (
    _CKPT_MAGIC,
    MASK_BIAS,
    ModelConfig,
    ModelParams,
    _layer_norm,
    _layer_norm_backward,
    _split_heads,
    backward,
    classify,
    cls_representation,
    forward,
    init_params,
    is_weight_param,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from ethikit.tokenizer import SPECIAL_TOKENS

TOY = ModelConfig(
    vocab_size=30, max_len=12, n_layers=2, n_heads=2,
    d_model=16, d_ff=32, dropout_p=0.3, seed=7, dtype="float64",
)
TINY = ModelConfig(vocab_size=6, max_len=3, n_layers=1, n_heads=2, d_model=4, d_ff=4)
# The v1 header of TINY, field order and number formatting included.
TINY_HEADER = (b"vocab_size=6\nmax_len=3\nn_layers=1\nn_heads=2\nd_model=4\nd_ff=4\n"
               b"dropout_p=0.3\nseed=0\ndtype=float32\n")


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(init_params(TINY), path)
    return path.read_bytes()


def make_batch(cfg, n_rows=4, length=8, seed=0, pad_rows=()):
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, cfg.vocab_size, size=(n_rows, length))
    ids[:, 0] = 2  # CLS
    ids[:, -1] = 3  # SEP
    mask = np.ones((n_rows, length), dtype=np.int8)
    for row, keep in pad_rows:
        mask[row, keep:] = 0
        ids[row, keep - 1] = 3
        ids[row, keep:] = 0
    labels = rng.integers(0, 2, size=n_rows)
    return TokenBatch(ids=ids, mask=mask, labels=labels)


def randomize(params, seed=11, scale=0.5):
    """Unit-ish random parameters: representative of a trained network."""
    rng = np.random.default_rng(seed)
    for name, t in params.tensors.items():
        if is_weight_param(name):
            t[...] = rng.normal(0.0, scale, size=t.shape)
        elif name.endswith(".g"):
            t[...] = 1.0 + rng.normal(0.0, 0.1, size=t.shape)
        else:
            t[...] = rng.normal(0.0, 0.1, size=t.shape)
    return params


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _merge_heads(x):
    b, h, length, k = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * k)


def _reference_train_step(params, batch, head_mask, dl_dlogits):
    """Train-mode logits and gradients from the full-sequence encoder.

    Every layer, the last included, computes every position, attention and
    GELU run over the whole batch at once, and the embedding gradient is
    scattered with ``np.add.at``: the straightforward encoder that the
    CLS-only last layer, the row tiles and the sorted scatter must match.
    """
    cfg = params.cfg
    t = params.tensors
    ids = batch.ids
    b, length = ids.shape
    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
    attn_bias = ((batch.mask.astype(params.dtype) - 1.0) * MASK_BIAS)[:, None, None, :]

    x = t["embed.tok"][ids] + t["embed.pos"][None, :length, :]
    caches = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        q = _split_heads(x @ t[p + "attn.wq"] + t[p + "attn.bq"], cfg.n_heads)
        k = _split_heads(x @ t[p + "attn.wk"] + t[p + "attn.bk"], cfg.n_heads)
        v = _split_heads(x @ t[p + "attn.wv"] + t[p + "attn.bv"], cfg.n_heads)
        probs = _softmax(q @ k.transpose(0, 1, 3, 2) * scale + attn_bias)
        ctx = _merge_heads(probs @ v)
        x_mid, ln1 = _layer_norm(x + ctx @ t[p + "attn.wo"] + t[p + "attn.bo"],
                                 t[p + "ln1.g"], t[p + "ln1.b"])
        ff_pre = x_mid @ t[p + "ff.w1"] + t[p + "ff.b1"]
        act = 0.5 * ff_pre * (1.0 + erf(ff_pre / np.sqrt(2.0)))
        x_next, ln2 = _layer_norm(x_mid + act @ t[p + "ff.w2"] + t[p + "ff.b2"],
                                  t[p + "ln2.g"], t[p + "ln2.b"])
        caches.append(dict(x_in=x, q=q, k=k, v=v, probs=probs, ctx=ctx, ln1=ln1,
                           x_mid=x_mid, ff_pre=ff_pre, act=act, ln2=ln2))
        x = x_next
    h_task = head_mask * x[:, 0, :]
    logits = h_task @ t["head.w"] + t["head.b"]

    grads = {"head.w": h_task.T @ dl_dlogits, "head.b": np.asarray(dl_dlogits.sum())}
    dx = np.zeros_like(x)
    dx[:, 0, :] = dl_dlogits[:, None] * t["head.w"][None, :] * head_mask
    for i in reversed(range(cfg.n_layers)):
        p = f"layers.{i}."
        lc = caches[i]
        dh2, grads[p + "ln2.g"], grads[p + "ln2.b"] = _layer_norm_backward(
            dx, lc["ln2"], t[p + "ln2.g"])
        grads[p + "ff.w2"] = lc["act"].reshape(-1, cfg.d_ff).T @ dh2.reshape(-1, cfg.d_model)
        grads[p + "ff.b2"] = dh2.sum(axis=(0, 1))
        z = lc["ff_pre"]
        gelu_grad = (0.5 * (1.0 + erf(z / np.sqrt(2.0)))
                     + z * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi))
        d_ff_pre = (dh2 @ t[p + "ff.w2"].T) * gelu_grad
        grads[p + "ff.w1"] = (lc["x_mid"].reshape(-1, cfg.d_model).T
                              @ d_ff_pre.reshape(-1, cfg.d_ff))
        grads[p + "ff.b1"] = d_ff_pre.sum(axis=(0, 1))
        dh1, grads[p + "ln1.g"], grads[p + "ln1.b"] = _layer_norm_backward(
            dh2 + d_ff_pre @ t[p + "ff.w1"].T, lc["ln1"], t[p + "ln1.g"])
        grads[p + "attn.wo"] = lc["ctx"].reshape(-1, cfg.d_model).T @ dh1.reshape(-1, cfg.d_model)
        grads[p + "attn.bo"] = dh1.sum(axis=(0, 1))
        d_ctx = _split_heads(dh1 @ t[p + "attn.wo"].T, cfg.n_heads)
        probs = lc["probs"]
        d_probs = d_ctx @ lc["v"].transpose(0, 1, 3, 2)
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
        d_split = {
            "q": d_scores @ lc["k"] * scale,
            "k": d_scores.transpose(0, 1, 3, 2) @ lc["q"] * scale,
            "v": probs.transpose(0, 1, 3, 2) @ d_ctx,
        }
        flat_x = lc["x_in"].reshape(-1, cfg.d_model)
        dx = dh1.copy()
        for proj, d in d_split.items():
            d_merged = _merge_heads(d)
            grads[p + f"attn.w{proj}"] = flat_x.T @ d_merged.reshape(-1, cfg.d_model)
            grads[p + f"attn.b{proj}"] = d_merged.sum(axis=(0, 1))
            dx += d_merged @ t[p + f"attn.w{proj}"].T
    grads["embed.tok"] = np.zeros_like(t["embed.tok"])
    np.add.at(grads["embed.tok"], ids, dx)
    grads["embed.pos"] = np.zeros_like(t["embed.pos"])
    grads["embed.pos"][:length] = dx.sum(axis=0)
    return logits, grads


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, n_heads=3, d_model=16)

    def test_zero_heads_rejected(self):
        # a checkpoint header with a flipped bit can say n_heads=0
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, n_heads=0, d_model=16)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, dropout_p=1.0)

    def test_vocab_floor_is_the_special_tokens(self):
        # the CLI checks model settings with this smallest valid vocab size
        ModelConfig(vocab_size=len(SPECIAL_TOKENS))
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=len(SPECIAL_TOKENS) - 1)


class TestInit:
    def test_same_seed_identical_bytes(self):
        p1 = init_params(TOY)
        p2 = init_params(TOY)
        for name in p1.names:
            assert p1[name].tobytes() == p2[name].tobytes()

    def test_biases_zero_gains_one(self):
        params = init_params(TOY)
        assert not params["layers.0.attn.bq"].any()
        assert not params["head.b"].any()
        assert (params["layers.1.ln2.g"] == 1.0).all()

    def test_weight_sample_statistics(self):
        cfg = ModelConfig(vocab_size=700, max_len=8, n_layers=1, n_heads=2,
                          d_model=16, d_ff=32, seed=3)
        weights = init_params(cfg)["embed.tok"]
        n = weights.size
        assert n >= 10_000
        assert abs(weights.mean()) < 3 * 0.02 / np.sqrt(n)
        assert np.abs(weights).max() <= 2 * 0.02 + 1e-12


class TestForward:
    def test_zero_head_gives_half_probability(self):
        params = init_params(TOY)
        params.tensors["head.w"][...] = 0.0
        params.tensors["head.b"][...] = 0.0
        batch = make_batch(TOY)
        logits, _ = forward(params, batch)
        assert (logits == 0.0).all()
        assert (classify(params, batch) == 0.5).all()

    def test_eval_deterministic(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY)
        l1, _ = forward(params, batch)
        l2, _ = forward(params, batch)
        assert np.array_equal(l1, l2)

    def test_padding_invariance(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY, length=8, pad_rows=[(1, 5)])
        base, _ = forward(params, batch)
        for extra in (1, 4):
            ids = np.concatenate([batch.ids, np.zeros((4, extra), np.int64)], axis=1)
            mask = np.concatenate([batch.mask, np.zeros((4, extra), np.int8)], axis=1)
            padded = TokenBatch(ids=ids, mask=mask, labels=batch.labels)
            out, _ = forward(params, padded)
            assert np.abs(out - base).max() <= 1e-5 * np.abs(base).max()

    def test_train_needs_rng_when_dropping(self):
        params = init_params(TOY)
        with pytest.raises(ValueError):
            forward(params, make_batch(TOY), train=True)

    def test_too_long_sequence_rejected(self):
        params = init_params(TOY)
        with pytest.raises(ShapeMismatch):
            forward(params, make_batch(TOY, length=13))

    def test_classify_strictly_inside_unit_interval(self):
        params = randomize(init_params(TOY), scale=3.0)
        probs = classify(params, make_batch(TOY))
        assert (probs > 0.0).all() and (probs < 1.0).all()
        assert probs.min() >= expit(-30.0)
        assert probs.max() <= expit(30.0)


class TestDropout:
    def test_eval_scales_head_input_exactly(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY)
        h_cls = cls_representation(params, batch)
        expected = ((1.0 - TOY.dropout_p) * h_cls) @ params["head.w"] + params["head.b"]
        logits, _ = forward(params, batch)
        assert np.array_equal(logits, expected)

    def test_train_mask_zeroes_without_rescaling(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY)
        h_cls = cls_representation(params, batch)
        keep = np.zeros_like(h_cls)
        keep[:, : 8] = 1.0
        logits, cache = forward(params, batch, train=True, head_mask=keep)
        manual = (keep * h_cls) @ params["head.w"] + params["head.b"]
        assert np.array_equal(logits, manual)
        assert np.array_equal(cache.h_task, keep * h_cls)

    def test_monte_carlo_mean_links_train_to_eval(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY, n_rows=2)
        h_cls = cls_representation(params, batch)
        rng = np.random.default_rng(123)
        n_draws = 10_000
        total = np.zeros_like(h_cls)
        for _ in range(n_draws):
            _, cache = forward(params, batch, train=True, rng=rng)
            total += cache.h_task
        mc_mean = total / n_draws
        p = TOY.dropout_p
        # |mean(D) - (1-p)| <= 3 sqrt(p(1-p)/n), uniformly across coordinates
        tol = 3.0 * np.sqrt(p * (1 - p) / n_draws) * np.abs(h_cls)
        assert (np.abs(mc_mean - (1 - p) * h_cls) <= tol + 1e-15).all()


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY)
        _, cache = forward(params, batch, train=True,
                           rng=np.random.default_rng(0))
        grads = backward(params, cache, np.zeros(4))
        for name, g in grads.items():
            assert not g.any(), name

    def test_head_bias_gradient_is_upstream_sum(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY)
        _, cache = forward(params, batch, train=True, rng=np.random.default_rng(0))
        dl = np.array([0.3, -0.1, 0.7, 0.2])
        grads = backward(params, cache, dl)
        assert grads["head.b"] == pytest.approx(dl.sum(), abs=1e-15)

    def test_matches_finite_differences(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY, pad_rows=[(2, 6)])
        keep = (np.random.default_rng(9).random((4, 16)) < 0.7).astype(np.float64)
        logits, cache = forward(params, batch, train=True, head_mask=keep)
        grads = backward(params, cache, bce_grad_logits(logits, batch.labels))

        def loss_at():
            out, _ = forward(params, batch, train=True, head_mask=keep)
            return bce(expit(out), batch.labels).mean_loss

        h = 1e-3
        rng = np.random.default_rng(1)
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1) if tensor.ndim else tensor.reshape(1)
            gflat = grads[name].reshape(-1) if grads[name].ndim else grads[name].reshape(1)
            picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            scale = max(np.abs(gflat).max(), 1e-6)
            for j in picks:
                orig = flat[j]
                flat[j] = orig + h
                up = loss_at()
                flat[j] = orig - h
                down = loss_at()
                flat[j] = orig
                fd = (up - down) / (2 * h)
                assert abs(gflat[j] - fd) / max(scale, abs(fd)) < 1e-4, name

    def test_stale_cache_rejected(self):
        params = randomize(init_params(TOY))
        batch = make_batch(TOY)
        _, cache = forward(params, batch, train=True, rng=np.random.default_rng(0))
        other_cfg = ModelConfig(vocab_size=30, max_len=12, n_layers=1, n_heads=2,
                                d_model=16, d_ff=32, dtype="float64")
        other = init_params(other_cfg)
        with pytest.raises(StaleCache):
            backward(other, cache, np.zeros(4))
        with pytest.raises(StaleCache):
            backward(params, None, np.zeros(4))


@st.composite
def encoder_cases(draw, dtypes=("float64",), max_rows=5):
    """A config, randomized parameters, a padded batch and a head mask."""
    n_heads = draw(st.sampled_from([1, 2, 4]))
    length = draw(st.integers(2, 9))
    cfg = ModelConfig(
        vocab_size=draw(st.integers(6, 24)),
        max_len=length + draw(st.integers(0, 3)),
        n_layers=draw(st.integers(1, 3)),
        n_heads=n_heads,
        d_model=n_heads * draw(st.integers(1, 5)),
        d_ff=draw(st.integers(1, 24)),
        dropout_p=0.3,
        dtype=draw(st.sampled_from(dtypes)),
    )
    n_rows = draw(st.integers(1, max_rows))
    seed = draw(st.integers(0, 2**16))
    keeps = draw(st.lists(st.integers(2, length), min_size=n_rows, max_size=n_rows))
    rng = np.random.default_rng(seed)
    batch = make_batch(cfg, n_rows=n_rows, length=length, seed=seed,
                       pad_rows=[(row, keep) for row, keep in enumerate(keeps)
                                 if keep < length])
    params = randomize(init_params(cfg), seed=seed)
    head_mask = (rng.random((n_rows, cfg.d_model)) < 0.7).astype(cfg.dtype)
    return params, batch, head_mask


class TestFullSequenceOracle:
    @given(case=encoder_cases())
    @settings(max_examples=150, deadline=None)
    def test_logits_and_gradients_match(self, case):
        params, batch, head_mask = case
        logits, cache = forward(params, batch, train=True, head_mask=head_mask)
        dl = bce_grad_logits(logits, batch.labels)
        grads = backward(params, cache, dl)
        ref_logits, ref_grads = _reference_train_step(params, batch, head_mask, dl)

        assert np.abs(logits - ref_logits).max() <= 1e-12 * np.abs(ref_logits).max()
        assert set(grads) == set(ref_grads)
        # Round-off of the whole backward pass: a tensor whose gradient is
        # orders of magnitude below the largest one (saturated softmax rows)
        # carries absolute errors of that size, not of its own.
        floor = 1e-13 * max(np.abs(ref).max() for ref in ref_grads.values())
        for name, ref in ref_grads.items():
            err = np.abs(grads[name] - ref).max()
            if name.endswith("attn.bk"):
                # Adding bk shifts every score of a query row by the same
                # amount, which softmax ignores: its gradient is zero.
                assert err <= floor, name
            else:
                assert err <= 1e-9 * np.abs(ref).max() + floor, name

    def test_float32_tracks_float64(self):
        # Same weights, cast down: float32 logits within 1e-4 of the float64
        # logits, relative to the largest of them.
        params64 = randomize(init_params(TOY))
        cfg32 = replace(TOY, dtype="float32")
        params32 = ModelParams(
            {name: t.astype(np.float32) for name, t in params64.tensors.items()}, cfg32
        )
        batch = make_batch(TOY, n_rows=6, length=12, pad_rows=[(1, 5), (4, 9)])
        ref, _ = forward(params64, batch)
        out, _ = forward(params32, batch)
        assert out.dtype == np.float32
        assert np.abs(out - ref).max() <= 1e-4 * np.abs(ref).max()


def _run_all(params, batch, head_mask):
    """Eval logits, classify probabilities, train logits and every gradient."""
    eval_logits, _ = forward(params, batch)
    logits, cache = forward(params, batch, train=True, head_mask=head_mask)
    grads = backward(params, cache, bce_grad_logits(logits, batch.labels))
    return {"eval": eval_logits, "classify": classify(params, batch),
            "train": logits, **grads}


class TestRowTiles:
    @given(case=encoder_cases(dtypes=("float32", "float64"), max_rows=9),
           tile=st.sampled_from([1, 7, 64]))
    @settings(max_examples=150, deadline=None)
    def test_tiles_are_byte_identical_to_one_tile(self, case, tile):
        # Small tiles split attention and GELU into single batch rows or
        # groups of them with a ragged last group; one huge tile is
        # whole-batch evaluation.
        with mock.patch.object(model, "_TILE", tile):
            tiled = _run_all(*case)
        with mock.patch.object(model, "_TILE", 1 << 40):
            whole = _run_all(*case)
        assert set(tiled) == set(whole)
        for name, ref in whole.items():
            assert tiled[name].dtype == ref.dtype, name
            assert tiled[name].tobytes() == ref.tobytes(), name

    def test_eval_memory_grows_linearly_with_length(self):
        cfg = ModelConfig(vocab_size=40, max_len=512)
        params = init_params(cfg)

        def classify_peak(length):
            batch = make_batch(cfg, n_rows=32, length=length)
            classify(params, batch)  # allocator and import warm-up
            tracemalloc.start()
            try:
                classify(params, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # An [B, H, L, L] score array would make this ratio approach 4.
        assert classify_peak(256) <= 2.3 * classify_peak(128)


def _with_random_pad_ids(batch, vocab_size, seed):
    """The batch with every PAD id replaced by a random valid id."""
    ids = batch.ids.copy()
    pad = batch.mask == 0
    ids[pad] = np.random.default_rng(seed).integers(0, vocab_size, size=int(pad.sum()))
    return TokenBatch(ids=ids, mask=batch.mask, labels=batch.labels)


class TestMaskedIds:
    """Ids at masked positions are never read: any valid id there gives the same bytes."""

    def _assert_same_bytes(self, params, batch, head_mask, seed):
        ref = _run_all(params, batch, head_mask)
        out = _run_all(params, _with_random_pad_ids(batch, params.cfg.vocab_size, seed),
                       head_mask)
        assert set(out) == set(ref)
        for name, value in ref.items():
            assert out[name].tobytes() == value.tobytes(), name

    @given(case=encoder_cases(dtypes=("float32", "float64"), max_rows=9),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_random_pad_ids(self, case, seed):
        self._assert_same_bytes(*case, seed)

    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_one_full_row_among_short_ones(self, n_layers):
        cfg = replace(TOY, n_layers=n_layers, dtype="float32")
        params = randomize(init_params(cfg))
        batch = make_batch(cfg, n_rows=32, length=12,
                           pad_rows=[(row, 3 + row % 4) for row in range(1, 32)])
        head_mask = (np.random.default_rng(3).random((32, cfg.d_model)) < 0.7)
        self._assert_same_bytes(params, batch, head_mask.astype(np.float32), seed=5)


class TestComputeDtype:
    def test_float32_model_stays_float32(self):
        cfg = replace(TOY, dtype="float32")
        params = randomize(init_params(cfg))
        batch = make_batch(cfg, pad_rows=[(1, 5)])
        logits, cache = forward(params, batch, train=True,
                                rng=np.random.default_rng(0))
        assert logits.dtype == np.float32
        cached = [cache.h_cls, cache.head_mask, cache.h_task]
        for lc in cache.layer_caches:
            for value in lc.values():
                cached.extend(value if isinstance(value, tuple) else [value])
        assert all(a.dtype == np.float32 for a in cached)
        grads = backward(params, cache, bce_grad_logits(logits, batch.labels))
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        assert classify(params, batch).dtype == np.float64


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(vocab_size=30, max_len=12, n_layers=2, n_heads=2,
                          d_model=16, d_ff=32, seed=5)  # default float32
        params = init_params(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.cfg == cfg
        for name in params.names:
            assert loaded[name].tobytes() == params[name].tobytes()

    def test_truncated_file(self, tmp_path):
        cfg = ModelConfig(vocab_size=30, max_len=12, n_layers=1, n_heads=2,
                          d_model=16, d_ff=32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(cfg), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedCheckpoint):
            load_checkpoint(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CorruptHeader):
            load_checkpoint(path)

    def test_layout_mismatch(self, tmp_path):
        cfg = ModelConfig(vocab_size=30, max_len=12, n_layers=1, n_heads=2,
                          d_model=16, d_ff=32)
        params = init_params(cfg)
        # lie about the layer count in the header
        wrong = ModelConfig(vocab_size=30, max_len=12, n_layers=2, n_heads=2,
                            d_model=16, d_ff=32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ModelParams(params.tensors, wrong), path)
        with pytest.raises(ShapeMismatch):
            load_checkpoint(path)

    def test_v1_header_text(self, tiny_checkpoint):
        start = len(_CKPT_MAGIC)
        (header_len,) = struct.unpack("<I", tiny_checkpoint[start:start + 4])
        assert tiny_checkpoint[start + 4:start + 4 + header_len] == TINY_HEADER

    @pytest.mark.parametrize("header", [
        *(TINY_HEADER.replace(line + b"\n", b"") for line in TINY_HEADER.splitlines()),
        TINY_HEADER.replace(b"d_ff=4", b"d_ff=four"),
        TINY_HEADER.replace(b"dropout_p=0.3", b"dropout_p=high"),
    ])
    def test_missing_or_non_numeric_field(self, tiny_checkpoint, tmp_path, header):
        start = len(_CKPT_MAGIC)
        (header_len,) = struct.unpack("<I", tiny_checkpoint[start:start + 4])
        path = tmp_path / "model.ckpt"
        path.write_bytes(tiny_checkpoint[:start] + struct.pack("<I", len(header)) + header
                         + tiny_checkpoint[start + 4 + header_len:])
        with pytest.raises(CorruptHeader):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY), path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(CorruptHeader, match="16 trailing bytes"):
            load_checkpoint(path)

    def test_oversized_header_length_fails_before_reading(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY), path)
        data = bytearray(path.read_bytes())
        data[len(_CKPT_MAGIC) + 3] ^= 0x80  # header length += 2 GiB
        path.write_bytes(bytes(data))
        with pytest.raises(TruncatedCheckpoint, match="only"):
            load_checkpoint(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_checkpoint(self, tiny_checkpoint, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
        kind = data.draw(st.sampled_from(["truncate", "append", "flip"]))
        if kind == "truncate":
            cut = data.draw(st.integers(0, len(tiny_checkpoint) - 1))
            path.write_bytes(tiny_checkpoint[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        elif kind == "append":
            extra = data.draw(st.binary(min_size=1, max_size=64))
            path.write_bytes(tiny_checkpoint + extra)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        else:
            bit = data.draw(st.integers(0, 8 * len(tiny_checkpoint) - 1))
            flipped = bytearray(tiny_checkpoint)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_checkpoint(path)
            except EthikitError:
                pass

    def test_every_metadata_bit_flip_is_typed(self, tiny_checkpoint, tmp_path):
        # The bytes before the first tensor's data hold every length and the
        # config text; flip each of their bits in turn.
        first_data = tiny_checkpoint.index(b"embed.tok") + len(b"embed.tok") + 1 + 8
        path = tmp_path / "model.ckpt"
        for bit in range(8 * first_data):
            flipped = bytearray(tiny_checkpoint)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_checkpoint(path)
            except EthikitError:
                pass

    def test_shapes_cover_every_parameter(self):
        shapes = param_shapes(TOY)
        params = init_params(TOY)
        assert list(shapes) == params.names
        for name, shape in shapes.items():
            assert params[name].shape == shape
