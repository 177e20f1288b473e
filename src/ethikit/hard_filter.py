"""Adversarial filtration: proxy models score examples, the hardest survive.

Small proxy classifiers are trained on a development set; each pool example
is scored by its mean per-example cross-entropy across proxies, and the
examples at or above the keep quantile form the hard subset. Loss (rather
than 0/1 error) gives a total order with few ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ethikit.batching import encode_examples
from ethikit.errors import ConfigError, EmptyDataset, LengthMismatch, ShapeMismatch
from ethikit.loss import bce_terms
from ethikit.metrics import check_finite
from ethikit.model import ModelConfig, ModelParams
from ethikit.optim import OptimConfig
from ethikit.tokenizer import SPECIAL_TOKENS, TokenizerConfig, Vocab
from ethikit.trainer import TrainConfig, predict_probs, scoring_batches, split_train_val
from ethikit.trainer import train as train_model


# The proxy recipe: small one-layer models trained briefly at a high rate.
# Its vocab size is a placeholder until the vocab is known.
PROXY_RECIPE = TrainConfig(
    model=ModelConfig(vocab_size=len(SPECIAL_TOKENS), n_layers=1, n_heads=2, d_model=32,
                      d_ff=64, dropout_p=0.1),
    optim=OptimConfig(eta0=0.01, n_acc=1),
    epochs=2,
)
PROXY_TOKENIZER = TokenizerConfig(vocab_size=2000, min_frequency=1)


@dataclass(frozen=True)
class FilterConfig:
    proxy: TrainConfig
    n_proxies: int = 2
    keep_quantile: float = 0.5

    def __post_init__(self) -> None:
        if self.n_proxies < 1:
            raise ConfigError("n_proxies must be >= 1")
        if not 0.0 < self.keep_quantile < 1.0:
            raise ConfigError("keep_quantile must lie in (0, 1)")


def train_proxies(dev_set, cfg: FilterConfig, vocab: Vocab) -> list[ModelParams]:
    """Independently seeded proxy trainings on the development set.

    Proxy ``i`` trains with seed ``cfg.proxy.model.seed + i``. The set is
    encoded once; every proxy splits and trains on those ids. At each
    epoch's end a proxy scores only its validation split, which picks its
    best epoch: no proxy's training metrics are read, so none are computed.
    """
    dev_set = encode_examples(dev_set, vocab)
    if not dev_set:
        raise EmptyDataset("empty development set")
    proxies = []
    for i in range(cfg.n_proxies):
        seed = cfg.proxy.model.seed + i
        proxy_cfg = replace(cfg.proxy, model=replace(cfg.proxy.model, seed=seed))
        dev_train, dev_val = split_train_val(dev_set, seed=seed)
        params, _ = train_model(dev_train, dev_val, proxy_cfg, score_train=False)
        proxies.append(params)
    return proxies


def score_examples(proxies, pool, vocab: Vocab) -> np.ndarray:
    """Mean per-example cross-entropy across proxies, eval mode, in pool order.

    The pool is encoded once for all proxies, and batched once for all
    proxies that share a ``max_len``; each proxy truncates at its own.
    """
    pool = encode_examples(pool, vocab)
    if not pool:
        raise EmptyDataset("empty pool")
    if not proxies:
        raise ConfigError("no proxies to score with")
    labels = np.array([ex.label for ex in pool], dtype=np.float64)
    total = np.zeros(len(pool), dtype=np.float64)
    prepared = {}  # max_len -> the pool's scoring_batches
    for proxy in proxies:
        max_len = proxy.cfg.max_len
        if max_len not in prepared:
            prepared[max_len] = scoring_batches(pool, max_len)
        probs = predict_probs(proxy, pool, prepared=prepared[max_len])
        total += bce_terms(probs, labels)
    return total / len(proxies)


def hard_indices(scores, q: float) -> list[int]:
    """Pool positions scoring at or above the q-quantile, in pool order.

    Raises ShapeMismatch for scores that are not a vector, EmptyDataset for
    no scores and NonFiniteScore for a NaN or infinite one, which has no
    place in the order.
    """
    if not 0.0 < q < 1.0:
        raise ConfigError(f"q={q} outside (0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ShapeMismatch(f"scores of shape {scores.shape}, not a vector")
    if scores.size == 0:
        raise EmptyDataset("no scores to filter")
    check_finite(scores)
    values = np.sort(scores)
    threshold = values[min(math.floor(q * len(values)), len(values) - 1)]
    return np.flatnonzero(scores >= threshold).tolist()


def filter_hard(pool, scores, q: float):
    """Partition the pool at the q-quantile of difficulty, hardest kept.

    Examples scoring at or above the threshold are hard; ties all land on the
    hard side, and both subsets preserve pool order.
    """
    pool = list(pool)
    keep = set(hard_indices(scores, q))
    if len(scores) != len(pool):
        raise LengthMismatch(f"{len(scores)} scores for {len(pool)} pool examples")
    hard = [ex for i, ex in enumerate(pool) if i in keep]
    easy = [ex for i, ex in enumerate(pool) if i not in keep]
    return hard, easy
