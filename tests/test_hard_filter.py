import math

import numpy as np
import pytest

from ethikit.batching import Example, encode_examples
from ethikit.errors import EmptyDataset, QuantileOutOfRange
from ethikit.hard_filter import (
    DifficultyScore,
    FilterConfig,
    filter_hard,
    hard_indices,
    score_examples,
    train_proxies,
)
from ethikit.model import ModelConfig, init_params
from ethikit.optim import OptimConfig
from ethikit.trainer import TrainConfig, evaluate, split_train_val, train
from tests.conftest import make_separable_examples


def proxy_train_config(vocab, epochs=8, seed=0):
    model = ModelConfig(vocab_size=len(vocab), max_len=16, n_layers=1, n_heads=2,
                        d_model=16, d_ff=32, dropout_p=0.1, seed=seed)
    return TrainConfig(model=model, optim=OptimConfig(eta0=0.02, n_acc=1),
                       epochs=epochs, batch_size=16)


class TestTrainProxies:
    def test_two_proxies_differ(self, separable_set, separable_vocab):
        cfg = FilterConfig(proxy=proxy_train_config(separable_vocab, epochs=1, seed=0),
                           n_proxies=2)
        proxies = train_proxies(separable_set, cfg, separable_vocab)
        assert len(proxies) == 2
        assert any(
            not np.array_equal(proxies[0][n], proxies[1][n]) for n in proxies[0].names
        )

    def test_single_proxy_ok(self, separable_set, separable_vocab):
        cfg = FilterConfig(proxy=proxy_train_config(separable_vocab, epochs=1, seed=0),
                           n_proxies=1)
        assert len(train_proxies(separable_set, cfg, separable_vocab)) == 1

    def test_empty_dev_set(self, separable_vocab):
        cfg = FilterConfig(proxy=proxy_train_config(separable_vocab), n_proxies=1)
        with pytest.raises(EmptyDataset):
            train_proxies([], cfg, separable_vocab)

    def test_proxy_seed_is_model_seed_plus_index(self, separable_set, separable_vocab):
        cfg = FilterConfig(proxy=proxy_train_config(separable_vocab, epochs=1, seed=5),
                           n_proxies=2)
        second = train_proxies(separable_set, cfg, separable_vocab)[1]
        alone_cfg = proxy_train_config(separable_vocab, epochs=1, seed=6)
        dev_train, dev_val = split_train_val(separable_set, seed=6)
        alone, _ = train(encode_examples(dev_train, separable_vocab),
                         encode_examples(dev_val, separable_vocab), alone_cfg)
        for name in alone.names:
            assert np.array_equal(second[name], alone[name]), name


class TestEncodeOnce:
    def test_one_encode_call_per_text_field(self, separable_vocab, monkeypatch):
        import ethikit.tokenizer as tokenizer_mod

        calls = []
        real_encode = tokenizer_mod.encode

        def counted_encode(text, vocab):
            calls.append(text)
            return real_encode(text, vocab)

        monkeypatch.setattr(tokenizer_mod, "encode", counted_encode)
        pair = lambda ex: Example("deontology", ex.text_a, text_b="the cat", label=ex.label)
        dev = [pair(ex) for ex in make_separable_examples(20, seed=1)]
        pool = [pair(ex) for ex in make_separable_examples(30, seed=2)]
        cfg = FilterConfig(proxy=proxy_train_config(separable_vocab, epochs=2), n_proxies=3)
        proxies = train_proxies(dev, cfg, separable_vocab)
        score_examples(proxies, pool, separable_vocab)
        assert len(calls) == 2 * (len(dev) + len(pool))


class TestScoreExamples:
    def test_constant_half_proxy_scores_ln2(self, separable_set, separable_vocab):
        cfg = ModelConfig(vocab_size=len(separable_vocab), max_len=16, n_layers=1,
                          n_heads=2, d_model=16, d_ff=32, dropout_p=0.0, seed=0)
        proxy = init_params(cfg)
        proxy.tensors["head.w"][...] = 0.0
        proxy.tensors["head.b"][...] = 0.0
        scores = score_examples([proxy], separable_set, separable_vocab)
        assert all(s.score == pytest.approx(math.log(2), abs=1e-12) for s in scores)

    def _constant_prob_proxy(self, vocab, prob):
        """A proxy whose eval probability is ``prob`` on every example."""
        cfg = ModelConfig(vocab_size=len(vocab), max_len=16, n_layers=1,
                          n_heads=2, d_model=16, d_ff=32, dropout_p=0.0, seed=0)
        proxy = init_params(cfg)
        proxy.tensors["head.w"][...] = 0.0
        proxy.tensors["head.b"][...] = math.log(prob / (1.0 - prob))
        return proxy

    def test_mean_across_proxies(self, separable_vocab):
        # proxies with per-example losses 0.2 and 0.6 must average to 0.4
        example = Example("justice", "the cat", label=1)
        proxies = [
            self._constant_prob_proxy(separable_vocab, math.exp(-0.2)),
            self._constant_prob_proxy(separable_vocab, math.exp(-0.6)),
        ]
        (score,) = score_examples(proxies, [example], separable_vocab)
        assert score.score == pytest.approx(0.4, abs=1e-6)  # float32 logits

    def test_perfect_proxy_scores_bounded_by_clamp(self, separable_vocab):
        # probabilities saturated at the right label cost at most the clamp
        pos = self._constant_prob_proxy(separable_vocab, 1.0 - 1e-12)
        examples = [Example("justice", "the cat", label=1)]
        (score,) = score_examples([pos], examples, separable_vocab)
        assert score.score <= 2e-7

    def test_trained_proxy_scores_low(self, separable_set, separable_encoded,
                                      separable_vocab):
        cfg = proxy_train_config(separable_vocab, epochs=30)
        params, _ = train(separable_encoded, separable_encoded[:16], cfg)
        report = evaluate(params, separable_encoded)
        assert report.accuracy >= 0.95
        scores = score_examples([params], separable_set, separable_vocab)
        assert np.mean([s.score for s in scores]) < 0.35

    def test_empty_pool(self, separable_vocab):
        with pytest.raises(EmptyDataset):
            score_examples([], [], separable_vocab)


class TestFilterHard:
    def _pool(self, n):
        return [Example("justice", f"t{i}", label=i % 2) for i in range(n)]

    def test_median_split_on_distinct_scores(self):
        pool = self._pool(10)
        scores = [DifficultyScore(i, float(i)) for i in range(10)]
        hard, easy = filter_hard(pool, scores, 0.5)
        assert len(hard) == 5 and len(easy) == 5
        assert min(s.score for s in scores[5:]) >= max(s.score for s in scores[:5])
        assert hard == pool[5:]

    def test_tiny_quantile_keeps_everything(self):
        pool = self._pool(7)
        scores = [DifficultyScore(i, float(i)) for i in range(7)]
        hard, easy = filter_hard(pool, scores, 1e-9)
        assert hard == pool and easy == []

    def test_all_ties_keep_everything(self):
        pool = self._pool(6)
        scores = [DifficultyScore(i, 1.0) for i in range(6)]
        hard, easy = filter_hard(pool, scores, 0.5)
        assert hard == pool and easy == []

    def test_quantile_out_of_range(self):
        pool = self._pool(3)
        scores = [DifficultyScore(i, float(i)) for i in range(3)]
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(QuantileOutOfRange):
                filter_hard(pool, scores, q)

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(2)
        pool = self._pool(40)
        scores = [DifficultyScore(i, float(v)) for i, v in enumerate(rng.normal(size=40))]
        hard, easy = filter_hard(pool, scores, 0.3)
        assert len(hard) + len(easy) == 40
        assert {id(e) for e in hard} | {id(e) for e in easy} == {id(e) for e in pool}
        assert not {id(e) for e in hard} & {id(e) for e in easy}

    def test_scores_must_cover_pool(self):
        with pytest.raises(ValueError):
            filter_hard(self._pool(3), [DifficultyScore(0, 1.0)], 0.5)


class TestSeparationProperty:
    def test_hard_mean_never_below_pool_mean(self, separable_vocab):
        pool = make_separable_examples(100, seed=3, flip_fraction=0.2)
        for seed in range(100):
            cfg = ModelConfig(vocab_size=len(separable_vocab), max_len=16,
                              n_layers=1, n_heads=2, d_model=16, d_ff=32,
                              dropout_p=0.0, seed=seed)
            proxy = init_params(cfg)
            scores = score_examples([proxy], pool, separable_vocab)
            ids = set(hard_indices(scores, 0.5))
            values = np.array([s.score for s in scores])
            hard_mean = values[[i in ids for i in range(len(pool))]].mean()
            assert hard_mean >= values.mean()

    def test_main_model_worse_on_hard(self, separable_vocab):
        # 20% label-flipped examples are unlearnable from the text, so both
        # proxies and the main model fail on them; the hard subset soaks
        # them up and main-model accuracy there cannot beat the pool.
        dev = make_separable_examples(96, seed=11, flip_fraction=0.2)
        pool = make_separable_examples(96, seed=13, flip_fraction=0.2)
        filter_cfg = FilterConfig(
            proxy=proxy_train_config(separable_vocab, epochs=20, seed=5), n_proxies=2
        )
        proxies = train_proxies(dev, filter_cfg, separable_vocab)
        scores = score_examples(proxies, pool, separable_vocab)
        hard, _ = filter_hard(pool, scores, 0.5)

        main_cfg = toy_main_config(separable_vocab)
        # clean validation set so best-checkpoint selection tracks real skill
        val = make_separable_examples(32, seed=99)
        enc = lambda examples: encode_examples(examples, separable_vocab)
        main, _ = train(enc(dev), enc(val), main_cfg)
        acc_pool = evaluate(main, enc(pool)).accuracy
        acc_hard = evaluate(main, enc(hard)).accuracy
        assert acc_pool >= 0.7  # the model must actually learn the rule
        assert acc_hard <= acc_pool

    def test_deterministic_membership(self, separable_vocab):
        pool = make_separable_examples(60, seed=7, flip_fraction=0.2)
        dev = make_separable_examples(60, seed=8, flip_fraction=0.2)

        def run():
            cfg = FilterConfig(
                proxy=proxy_train_config(separable_vocab, epochs=3, seed=1), n_proxies=2
            )
            proxies = train_proxies(dev, cfg, separable_vocab)
            scores = score_examples(proxies, pool, separable_vocab)
            return hard_indices(scores, 0.5)

        assert run() == run()


def toy_main_config(vocab):
    model = ModelConfig(vocab_size=len(vocab), max_len=16, n_layers=2, n_heads=2,
                        d_model=32, d_ff=64, dropout_p=0.1, seed=42)
    return TrainConfig(model=model, optim=OptimConfig(eta0=0.02, n_acc=2),
                       epochs=25, batch_size=16)
