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
from ethikit.errors import EmptyDataset, InvalidConfig, QuantileOutOfRange
from ethikit.loss import bce_terms
from ethikit.model import ModelParams
from ethikit.tokenizer import Vocab
from ethikit.trainer import TrainConfig, predict_probs, split_train_val
from ethikit.trainer import train as train_model


@dataclass(frozen=True)
class FilterConfig:
    proxy: TrainConfig
    n_proxies: int = 2
    keep_quantile: float = 0.5

    def __post_init__(self) -> None:
        if self.n_proxies < 1:
            raise InvalidConfig("n_proxies must be >= 1")
        if not 0.0 < self.keep_quantile < 1.0:
            raise QuantileOutOfRange("keep_quantile must lie in (0, 1)")


@dataclass(frozen=True)
class DifficultyScore:
    example_id: int
    score: float


def train_proxies(dev_set, cfg: FilterConfig, vocab: Vocab) -> list[ModelParams]:
    """Independently seeded proxy trainings on the development set.

    Proxy ``i`` trains with seed ``cfg.proxy.model.seed + i``. The set is
    encoded once; every proxy splits and trains on those ids.
    """
    dev_set = encode_examples(dev_set, vocab)
    if not dev_set:
        raise EmptyDataset("empty development set")
    proxies = []
    for i in range(cfg.n_proxies):
        seed = cfg.proxy.model.seed + i
        proxy_cfg = replace(cfg.proxy, model=replace(cfg.proxy.model, seed=seed))
        dev_train, dev_val = split_train_val(dev_set, seed=seed)
        params, _ = train_model(dev_train, dev_val, proxy_cfg)
        proxies.append(params)
    return proxies


def score_examples(
    proxies, pool, vocab: Vocab, batch_size: int = 32
) -> list[DifficultyScore]:
    """Mean per-example cross-entropy across proxies, eval mode.

    The pool is encoded once for all proxies; each proxy truncates at its
    own ``max_len``.
    """
    pool = encode_examples(pool, vocab)
    if not pool:
        raise EmptyDataset("empty pool")
    labels = np.array([ex.label for ex in pool], dtype=np.float64)
    total = np.zeros(len(pool), dtype=np.float64)
    for proxy in proxies:
        probs = predict_probs(proxy, pool, batch_size)
        total += bce_terms(probs, labels)
    mean = total / len(proxies)
    return [DifficultyScore(example_id=i, score=float(s)) for i, s in enumerate(mean)]


def hard_indices(scores, q: float) -> list[int]:
    """Example ids scoring at or above the q-quantile, in stable id order."""
    if not 0.0 < q < 1.0:
        raise QuantileOutOfRange(f"q={q} outside (0, 1)")
    by_id = sorted(scores, key=lambda s: s.example_id)
    values = sorted(s.score for s in by_id)
    threshold = values[min(math.floor(q * len(values)), len(values) - 1)]
    return [s.example_id for s in by_id if s.score >= threshold]


def filter_hard(pool, scores, q: float):
    """Partition the pool at the q-quantile of difficulty, hardest kept.

    Examples scoring at or above the threshold are hard; ties all land on the
    hard side, and both subsets preserve pool order.
    """
    pool = list(pool)
    if len(scores) != len(pool) or sorted(s.example_id for s in scores) != list(range(len(pool))):
        raise ValueError("scores must cover the pool exactly")
    keep = set(hard_indices(scores, q))
    hard = [ex for i, ex in enumerate(pool) if i in keep]
    easy = [ex for i, ex in enumerate(pool) if i not in keep]
    return hard, easy
