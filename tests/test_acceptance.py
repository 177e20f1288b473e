"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that need the
real dataset files skip unless ETHICS_DATA_DIR points at them; bundled
fixtures exercise the same code paths unconditionally.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from ethikit.batching import TokenBatch, encode_examples
from ethikit.cli import main as cli_main
from ethikit.dataset import (
    SplitManifest,
    default_specs,
    load_split,
    serialize_split,
    verify_manifest,
)
from ethikit.loss import bce, bce_grad_logits
from ethikit.metrics import ConfusionMatrix, auc, scalar_metrics
from ethikit.model import (
    ModelConfig,
    backward,
    cls_representation,
    forward,
    init_params,
    is_weight_param,
)
from ethikit.optim import OptimConfig, accumulate, flush, init_state, lr_at
from ethikit.tokenizer import (
    SPECIAL_TOKENS,
    UNK_ID,
    TokenizerConfig,
    decode,
    encode,
    save_vocab,
    train_vocab,
)
from ethikit.trainer import TrainConfig, evaluate, train
from tests.conftest import make_separable_examples

pytestmark = pytest.mark.filterwarnings("ignore::ethikit.metrics.DegenerateMetricWarning")


def _report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def _random_unit_params(cfg, seed=11):
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    for name, t in params.tensors.items():
        if is_weight_param(name):
            t[...] = rng.normal(0.0, 0.5, size=t.shape)
        elif name.endswith(".g"):
            t[...] = 1.0 + rng.normal(0.0, 0.1, size=t.shape)
        else:
            t[...] = rng.normal(0.0, 0.1, size=t.shape)
    return params


def _batch_4x8(cfg, seed=42, with_pads=True):
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, cfg.vocab_size, size=(4, 8))
    ids[:, 0] = 2
    ids[:, -1] = 3
    mask = np.ones((4, 8), dtype=np.int8)
    if with_pads:
        mask[2, 6:] = 0
        ids[2, 5] = 3
        ids[2, 6:] = 0
    labels = rng.integers(0, 2, size=4)
    return TokenBatch(ids=ids, mask=mask, labels=labels)


def test_c01_gradient_oracle():
    cfg = ModelConfig(vocab_size=30, max_len=8, n_layers=2, n_heads=2,
                      d_model=16, d_ff=32, dropout_p=0.3, seed=7, dtype="float64")
    params = _random_unit_params(cfg)
    batch = _batch_4x8(cfg)
    keep = (np.random.default_rng(9).random((4, 16)) < 0.7).astype(np.float64)

    started = time.perf_counter()
    logits, cache = forward(params, batch, train=True, head_mask=keep)
    grads = backward(params, cache, bce_grad_logits(logits, batch.labels))

    def loss_at():
        out, _ = forward(params, batch, train=True, head_mask=keep)
        return bce(expit(out), batch.labels).mean_loss

    step = 1e-3
    worst = 0.0
    n_checked = 0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1) if tensor.ndim else tensor.reshape(1)
        gflat = grads[name].reshape(-1) if grads[name].ndim else grads[name].reshape(1)
        fd = np.empty_like(gflat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss_at()
            flat[j] = orig - step
            down = loss_at()
            flat[j] = orig
            fd[j] = (up - down) / (2.0 * step)
        n_checked += flat.size
        scale = max(np.abs(gflat).max(), np.abs(fd).max(), 1e-6)
        worst = max(worst, float(np.abs(gflat - fd).max() / scale))
    elapsed = time.perf_counter() - started

    assert worst < 1e-4, worst
    assert elapsed < 60.0, elapsed
    _report(1, f"all {n_checked} parameter gradients within {worst:.2e} "
               f"of central differences in {elapsed:.1f}s")


def _scalar_adamw(theta, grad_means, eta0, beta1, beta2, eps, wd, decayed):
    """Independent scalar reimplementation of the moment update rule."""
    m = v = 0.0
    for t, g in enumerate(grad_means, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        eta = eta0 / math.sqrt(t)
        step = eta * m_hat / (math.sqrt(v_hat) + eps)
        if decayed:
            step += eta * wd * theta
        theta = theta - step
    return theta


def _flat_params(value, dtype="float64"):
    cfg = ModelConfig(vocab_size=6, max_len=2, n_layers=1, n_heads=1,
                      d_model=2, d_ff=2, dtype=dtype)
    params = init_params(cfg)
    for t in params.tensors.values():
        t[...] = value
    return params


def test_c02_optimizer_oracle():
    rng = np.random.default_rng(17)
    params = _flat_params(rng.normal())
    theta0 = float(params["head.w"][0])
    theta0_bias = float(params["head.b"])
    cfg = OptimConfig(eta0=2e-3, weight_decay=0.013, n_acc=1)
    state = init_state(params, cfg)
    grad_means = []
    for _ in range(100):
        g = float(rng.normal())
        accumulate(state, {k: np.full_like(v, g) for k, v in params.tensors.items()})
        flush(params, state, cfg)
        grad_means.append(g)

    decayed = _scalar_adamw(theta0, grad_means, cfg.eta0, cfg.beta1, cfg.beta2,
                            cfg.epsilon, cfg.weight_decay, decayed=True)
    plain = _scalar_adamw(theta0_bias, grad_means, cfg.eta0, cfg.beta1, cfg.beta2,
                          cfg.epsilon, cfg.weight_decay, decayed=False)
    err_w = abs(float(params["head.w"][0]) - decayed) / max(1.0, abs(decayed))
    err_b = abs(float(params["head.b"]) - plain) / max(1.0, abs(plain))
    assert err_w <= 1e-12 and err_b <= 1e-12, (err_w, err_b)
    _report(2, f"100 flushes match the scalar reimplementation "
               f"(weights {err_w:.1e}, biases {err_b:.1e})")


def test_c03_schedule_exactness():
    assert lr_at(1, 6e-5) == 6e-5
    assert lr_at(4, 6e-5) == 3e-5
    assert lr_at(100, 6e-5) == 6e-6
    _report(3, "lr(1)=6e-5, lr(4)=3e-5, lr(100)=6e-6 exactly")


def test_c04_accumulation_equivalence():
    rng = np.random.default_rng(23)
    base = _flat_params(0.5)
    grads = [{k: rng.normal(size=v.shape) for k, v in base.tensors.items()}
             for _ in range(4)]

    acc = base.copy()
    cfg4 = OptimConfig(eta0=1e-2, weight_decay=0.0, n_acc=4)
    state4 = init_state(acc, cfg4)
    for g in grads:
        accumulate(state4, g)
    flush(acc, state4, cfg4)

    one = base.copy()
    cfg1 = OptimConfig(eta0=1e-2, weight_decay=0.0, n_acc=1)
    state1 = init_state(one, cfg1)
    mean_grad = {k: (grads[0][k] + grads[1][k] + grads[2][k] + grads[3][k]) / 4.0
                 for k in base.tensors}
    accumulate(state1, mean_grad)
    flush(one, state1, cfg1)

    worst = max(
        float(np.abs(acc[n] - one[n]).max() / max(1.0, np.abs(one[n]).max()))
        for n in base.tensors
    )
    assert worst <= 1e-12, worst
    _report(4, f"4 accumulated micro-batches equal one mean-gradient step ({worst:.1e})")


def test_c05_dropout_consistency():
    cfg = ModelConfig(vocab_size=30, max_len=8, n_layers=2, n_heads=2,
                      d_model=16, d_ff=32, dropout_p=0.3, seed=7, dtype="float64")
    params = _random_unit_params(cfg)
    batch = _batch_4x8(cfg, with_pads=False)
    p = cfg.dropout_p
    h_cls = cls_representation(params, batch)

    # eval output is exactly (1-p) times the unscaled activation
    eval_logits, _ = forward(params, batch)
    manual = ((1.0 - p) * h_cls) @ params["head.w"] + params["head.b"]
    assert np.array_equal(eval_logits, manual)

    n_draws = 10_000
    rng = np.random.default_rng(123)
    total = np.zeros_like(h_cls)
    for _ in range(n_draws):
        _, cache = forward(params, batch, train=True, rng=rng)
        total += cache.h_task
    mc_mean = total / n_draws
    # coordinate-wise: |mean - (1-p) h| <= 3 |h| sqrt(p(1-p)/n)
    tol = 3.0 * np.abs(h_cls) * math.sqrt(p * (1 - p) / n_draws)
    gap = np.abs(mc_mean - (1 - p) * h_cls)
    assert (gap <= tol + 1e-15).all()
    _report(5, f"Monte-Carlo mean within 3 standard errors over {n_draws} draws; "
               f"eval scaling exact")


def test_c06_padding_invariance():
    cfg = ModelConfig(vocab_size=30, max_len=24, n_layers=2, n_heads=2,
                      d_model=16, d_ff=32, dropout_p=0.3, seed=7, dtype="float64")
    params = _random_unit_params(cfg)
    batch = _batch_4x8(cfg)
    base, _ = forward(params, batch)
    worst = 0.0
    for extra in range(1, 17):
        ids = np.concatenate([batch.ids, np.zeros((4, extra), np.int64)], axis=1)
        mask = np.concatenate([batch.mask, np.zeros((4, extra), np.int8)], axis=1)
        out, _ = forward(params, TokenBatch(ids=ids, mask=mask, labels=batch.labels))
        worst = max(worst, float(np.abs(out - base).max() / np.abs(base).max()))
    assert worst <= 1e-5, worst
    _report(6, f"1..16 appended PAD columns move logits by at most {worst:.1e} relative")


def test_c07_loss_values():
    ln2 = bce([0.5], [1]).mean_loss
    assert abs(ln2 - math.log(2)) <= 1e-12
    hand = bce([0.9, 0.2], [1, 0]).mean_loss
    assert abs(hand - 0.164252) <= 1e-6
    _report(7, f"bce([0.5],[1])={ln2:.12f}, two-sample case={hand:.6f}")


def test_c08_metrics_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.integers(0, 7, n) / 6.0  # coarse grid forces ties
        else:
            scores = rng.normal(size=n)
        pos = scores[labels.astype(bool)]
        neg = scores[~labels.astype(bool)]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auc(scores, labels) == brute
        checked += 1

    cm = ConfusionMatrix(tp=3, fp=1, fn=1, tn=5)
    assert scalar_metrics(cm) == (0.8, 0.75, 0.75, 0.75)
    cm2 = ConfusionMatrix(tp=2, fp=2, fn=2, tn=2)
    assert scalar_metrics(cm2) == (0.5, 0.5, 0.5, 0.5)
    _report(8, f"rank AUC equals brute-force pair counting on {checked} instances; "
               f"scalar metrics match hand fixtures")


def test_c09_overfit_surrogate(separable_encoded, separable_vocab):
    started = time.perf_counter()
    # schedule, moments, decay, accumulation, and dropout follow the training
    # recipe; the base rate is raised for from-scratch toy dimensions
    model = ModelConfig(vocab_size=len(separable_vocab), max_len=16, n_layers=1,
                        n_heads=2, d_model=32, d_ff=64, dropout_p=0.3, seed=0)
    optim = OptimConfig(eta0=0.02, weight_decay=0.01, n_acc=4)
    # 64 examples / batch 16 = 4 micro-batches = exactly one flush per epoch
    cfg = TrainConfig(model=model, optim=optim, epochs=200, batch_size=16)
    _, logs = train(separable_encoded, separable_encoded[:16], cfg)
    hit = next((i for i, log in enumerate(logs, start=1) if log.train_acc >= 0.95), None)
    elapsed = time.perf_counter() - started
    assert hit is not None and hit <= 200
    assert elapsed < 300.0, elapsed
    _report(9, f"95% train accuracy reached after {hit} flushes "
               f"({elapsed:.0f}s total for 200)")


def test_c10_hard_filter_property(separable_vocab):
    from ethikit.hard_filter import (FilterConfig, filter_hard, hard_indices,
                                     score_examples, train_proxies)

    pool = make_separable_examples(100, seed=3, flip_fraction=0.2)
    holds = 0
    for seed in range(100):
        cfg = ModelConfig(vocab_size=len(separable_vocab), max_len=16, n_layers=1,
                          n_heads=2, d_model=16, d_ff=32, dropout_p=0.0, seed=seed)
        proxy = init_params(cfg)
        scores = score_examples([proxy], pool, separable_vocab)
        ids = set(hard_indices(scores, 0.5))
        values = np.array([s.score for s in scores])
        if values[list(ids)].mean() >= values.mean():
            holds += 1
    assert holds == 100

    # behavioral check with trained proxies and a correlated main model
    dev = make_separable_examples(96, seed=11, flip_fraction=0.2)
    proxy_model = ModelConfig(vocab_size=len(separable_vocab), max_len=16,
                              n_layers=1, n_heads=2, d_model=16, d_ff=32,
                              dropout_p=0.1, seed=5)
    proxy_train_cfg = TrainConfig(
        model=proxy_model, optim=OptimConfig(eta0=0.02, n_acc=1),
        epochs=20, batch_size=16,
    )
    fcfg = FilterConfig(proxy=proxy_train_cfg, n_proxies=2)
    proxies = train_proxies(dev, fcfg, separable_vocab)
    scores = score_examples(proxies, pool, separable_vocab)
    hard, _ = filter_hard(pool, scores, 0.5)

    main_model = ModelConfig(vocab_size=len(separable_vocab), max_len=16,
                             n_layers=2, n_heads=2, d_model=32, d_ff=64,
                             dropout_p=0.1, seed=42)
    main_cfg = TrainConfig(model=main_model, optim=OptimConfig(eta0=0.02, n_acc=2),
                           epochs=25, batch_size=16)
    # clean validation set so best-checkpoint selection tracks real skill
    val = make_separable_examples(32, seed=99)
    enc = lambda examples: encode_examples(examples, separable_vocab)
    main, _ = train(enc(dev), enc(val), main_cfg)
    acc_pool = evaluate(main, enc(pool)).accuracy
    acc_hard = evaluate(main, enc(hard)).accuracy
    assert acc_hard <= acc_pool
    _report(10, f"separation held in {holds}/100 seeded runs; main-model accuracy "
                f"{acc_hard:.3f} on hard <= {acc_pool:.3f} on pool")


def _sentence_fixture():
    rng = np.random.default_rng(97)
    syllables = ["ba", "do", "ki", "lu", "men", "ra", "sto", "tu", "ve", "zo",
                 "pa", "ni", "cho", "fu"]
    inventory = sorted({a + b for a in syllables for b in syllables})[:150]
    words = np.array(inventory)
    return [" ".join(words[rng.integers(0, len(words), size=8)]) for _ in range(1000)]


def test_c11_tokenizer_round_trip(tmp_path):
    sentences = _sentence_fixture()
    cfg = TokenizerConfig(vocab_size=4000, min_frequency=2)
    vocab = train_vocab(sentences, cfg)

    for sentence in sentences:
        ids = encode(sentence, vocab)
        assert UNK_ID not in ids, "fixture must be fully covered"
        assert decode(ids, vocab) == sentence

    words = [w for s in sentences for w in s.split()]
    for tok in vocab.tokens[len(SPECIAL_TOKENS):]:
        if tok.startswith("##"):
            body = tok[2:]
            count = sum(1 for w in words for i in range(1, len(w))
                        if w.startswith(body, i))
        elif len(tok) == 1:
            count = sum(w.count(tok) for w in words)
        else:
            count = sum(1 for w in words if w.startswith(tok))
        assert count >= cfg.min_frequency, tok

    p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    save_vocab(vocab, p1)
    save_vocab(train_vocab(sentences, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    _report(11, f"1000-sentence round trip with full coverage; "
                f"{len(vocab)} tokens all meet the frequency floor; "
                f"vocab bytes deterministic")


def test_c12_data_counts(fixtures_dir):
    specs = default_specs()
    fixture_files = {
        "justice": ("justice_test.csv", 4),
        "virtue": ("virtue_test.csv", 6),
        "deontology": ("deontology_test.csv", 5),
        "commonsense": ("cm_test.csv", 4),
    }
    observed = {}
    expected = {}
    for domain, (name, count) in fixture_files.items():
        observed[domain] = len(load_split(fixtures_dir / name, specs[domain]))
        expected[domain] = count
    checks = verify_manifest(observed, SplitManifest(counts=expected))
    assert all(c.ok for c in checks)

    data_dir = os.environ.get("ETHICS_DATA_DIR")
    if data_dir:
        from ethikit.cli import _resolve_split_file
        from ethikit.dataset import HARD_TEST_COUNTS, TEST_COUNTS

        for domain in specs:
            test_file = _resolve_split_file(Path(data_dir), domain, "test")
            assert len(load_split(test_file, specs[domain])) == TEST_COUNTS[domain]
            hard_file = _resolve_split_file(Path(data_dir), domain, "test_hard")
            assert len(load_split(hard_file, specs[domain])) == HARD_TEST_COUNTS[domain]
        _report(12, "fixture manifest verified and real split counts match the "
                    "published table")
    else:
        _report(12, "fixture manifest verified (set ETHICS_DATA_DIR to also "
                    "check the real splits)")


def test_c13_end_to_end_determinism(tmp_path):
    train_path = tmp_path / "justice_train.csv"
    serialize_split(make_separable_examples(40, seed=21),
                    default_specs()["justice"], train_path)
    flags = [
        "--train-file", str(train_path), "--domain", "justice",
        "--epochs", "2", "--batch-size", "8", "--max-len", "16",
        "--layers", "1", "--heads", "2", "--d-model", "16", "--d-ff", "32",
        "--lr", "0.01", "--vocab-size", "300", "--min-freq", "1", "--seed", "3",
    ]
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out_dir in dirs:
        assert cli_main(["train", *flags, "--out-dir", str(out_dir)]) == 0

    ckpt_a = (dirs[0] / "best.ckpt").read_bytes()
    ckpt_b = (dirs[1] / "best.ckpt").read_bytes()
    assert ckpt_a == ckpt_b

    def curve_rows(out_dir):
        # all columns except wall time, which is the one legitimately
        # non-reproducible field
        return [",".join(line.split(",")[:-1])
                for line in (out_dir / "epochs.csv").read_text().splitlines()]

    assert curve_rows(dirs[0]) == curve_rows(dirs[1])
    assert (dirs[0] / "vocab.txt").read_bytes() == (dirs[1] / "vocab.txt").read_bytes()
    _report(13, "two identical train runs wrote byte-identical checkpoints, "
                "vocabs, and curves")
