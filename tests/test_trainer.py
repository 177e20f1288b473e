import dataclasses
import math

import numpy as np
import pytest

import ethikit.trainer as trainer_mod
from ethikit.batching import Example, encode_examples
from ethikit.errors import EmptyDataset, InvalidConfig, NonFiniteTraining, TooFewExamples
from ethikit.batching import make_batches
from ethikit.model import (
    ModelConfig,
    classify,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from ethikit.optim import OptimConfig
from ethikit.trainer import (
    EpochLog,
    TrainConfig,
    epoch_logs_csv,
    evaluate,
    predict_probs,
    split_train_val,
    train,
)


def toy_train_config(vocab, epochs=5, seed=0, lr=0.02, batch_size=16, n_acc=4):
    model = ModelConfig(vocab_size=len(vocab), max_len=16, n_layers=1, n_heads=2,
                        d_model=32, d_ff=64, dropout_p=0.3, seed=seed)
    optim = OptimConfig(eta0=lr, n_acc=n_acc)
    return TrainConfig(model=model, optim=optim, epochs=epochs, batch_size=batch_size)


class TestSplit:
    def _balanced(self, n):
        return [Example("justice", f"text {i}", label=i % 2) for i in range(n)]

    def test_sizes_follow_floor_convention(self):
        for n in (10, 21, 64, 97):
            train_set, val_set = split_train_val(self._balanced(n), 0.8, seed=1)
            assert len(train_set) == int(n * 0.8)
            assert len(train_set) + len(val_set) == n

    def test_stratified_within_one_example(self):
        examples = [Example("justice", str(i), label=int(i < 30)) for i in range(100)]
        train_set, val_set = split_train_val(examples, 0.8, seed=2)
        whole_rate = 30 / 100
        for side in (train_set, val_set):
            rate = sum(ex.label for ex in side) / len(side)
            assert abs(rate - whole_rate) <= 1.0 / len(side)

    def test_both_classes_in_val_when_possible(self):
        train_set, val_set = split_train_val(self._balanced(10), 0.8, seed=3)
        labels = {ex.label for ex in val_set}
        assert labels == {0, 1}

    def test_disjoint_exhaustive(self):
        examples = self._balanced(37)
        train_set, val_set = split_train_val(examples, 0.8, seed=4)
        ids = lambda exs: {id(e) for e in exs}
        assert not ids(train_set) & ids(val_set)
        assert ids(train_set) | ids(val_set) == ids(examples)

    def test_same_seed_same_membership(self):
        examples = self._balanced(50)
        a = split_train_val(examples, 0.8, seed=5)
        b = split_train_val(examples, 0.8, seed=5)
        assert [id(e) for e in a[0]] == [id(e) for e in b[0]]

    def test_too_few(self):
        with pytest.raises(TooFewExamples):
            split_train_val([Example("justice", "x", label=1)])


class TestTrain:
    def test_overfits_separable_fixture(self, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=30)
        # batch 16 over 64 examples, n_acc 4 -> exactly one flush per epoch
        _, logs = train(separable_encoded, separable_encoded[:16], cfg)
        assert max(log.train_acc for log in logs) >= 0.95
        assert logs[-1].train_loss < logs[0].train_loss

    def test_zero_epochs_rejected(self, separable_vocab):
        with pytest.raises(InvalidConfig):
            toy_train_config(separable_vocab, epochs=0)

    def test_empty_sets_rejected(self, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=1)
        with pytest.raises(EmptyDataset):
            train([], separable_encoded, cfg)
        with pytest.raises(EmptyDataset):
            train(separable_encoded, [], cfg)

    def test_deterministic_logs_and_params(self, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=3)
        train_set, val_set = separable_encoded[:48], separable_encoded[48:]
        p1, logs1 = train(train_set, val_set, cfg)
        p2, logs2 = train(train_set, val_set, cfg)
        for name in p1.names:
            assert p1[name].tobytes() == p2[name].tobytes()
        strip = lambda log: dataclasses.replace(log, seconds=0.0)
        assert [strip(a) for a in logs1] == [strip(b) for b in logs2]

    def test_flush_cadence(self, separable_encoded, separable_vocab, monkeypatch):
        calls = []
        real_flush = trainer_mod.flush
        monkeypatch.setattr(
            trainer_mod, "flush",
            lambda *a, **k: (calls.append(k.get("allow_partial", False)),
                             real_flush(*a, **k))[1],
        )
        cfg = toy_train_config(separable_vocab, epochs=2, batch_size=10, n_acc=4)
        train(separable_encoded, separable_encoded[:8], cfg)
        # 64 examples / batch 10 -> 7 micro-batches; ceil(7/4) = 2 flushes/epoch
        per_epoch = len(calls) // 2
        assert per_epoch == math.ceil(7 / 4)
        assert calls == [False, True, False, True]

    def test_non_finite_logits_stop_training(self, separable_encoded, separable_vocab,
                                             monkeypatch):
        real_forward = trainer_mod.forward
        calls = []

        def inf_on_sixth(*args, **kwargs):
            logits, cache = real_forward(*args, **kwargs)
            calls.append(1)
            if len(calls) == 6:
                logits = logits.copy()
                logits[2] = np.inf
            return logits, cache

        monkeypatch.setattr(trainer_mod, "forward", inf_on_sixth)
        # 4 micro-batches per epoch, n_acc 4: the sixth is epoch 1's second,
        # bound for flush step 2
        cfg = toy_train_config(separable_vocab, epochs=2)
        with pytest.raises(NonFiniteTraining, match="epoch 1, flush step 2: logits"):
            train(separable_encoded, separable_encoded[:16], cfg)

    def test_best_checkpoint_fidelity(self, tmp_path, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=4)
        train_set, val_set = separable_encoded[:48], separable_encoded[48:]
        best, logs = train(train_set, val_set, cfg)
        best_val_acc = max(
            (log.val_acc, -log.val_loss) for log in logs
        )[0]
        path = tmp_path / "best.ckpt"
        save_checkpoint(best, cfg.model, path)
        reloaded, _ = load_checkpoint(path)
        report = evaluate(reloaded, val_set, batch_size=cfg.batch_size)
        assert report.accuracy == best_val_acc


class TestEvaluate:
    def test_perfect_predictor(self, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=30)
        best, _ = train(separable_encoded, separable_encoded[:16], cfg)
        report = evaluate(best, separable_encoded)
        assert report.accuracy == 1.0
        assert report.auc == 1.0

    def test_hand_confusion_fixture(self, separable_vocab):
        # scores chosen to produce TP=3, FP=1, FN=1, TN=5 at threshold 0.5
        import ethikit.metrics as metrics_mod

        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.4, 0.3, 0.2, 0.2, 0.1, 0.1])
        labels = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
        report = metrics_mod.build_report(scores, labels)
        cm = report.confusion
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (3, 1, 1, 5)
        assert (report.accuracy, report.precision, report.recall, report.f1) == \
            (0.8, 0.75, 0.75, 0.75)

    def test_constant_scores_auc_half(self):
        import ethikit.metrics as metrics_mod

        report = metrics_mod.build_report(
            np.full(8, 0.5), np.array([1, 0, 1, 0, 1, 0, 1, 0])
        )
        assert report.auc == 0.5

    def test_empty_dataset(self, separable_vocab):
        cfg = ModelConfig(vocab_size=len(separable_vocab), max_len=8, n_layers=1,
                          n_heads=2, d_model=16, d_ff=32)
        with pytest.raises(EmptyDataset):
            evaluate(init_params(cfg), [])

    def test_predict_probs_order_stable(self, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=1)
        params, _ = train(separable_encoded, separable_encoded[:8], cfg)
        a = predict_probs(params, separable_encoded)
        b = predict_probs(params, separable_encoded)
        assert np.array_equal(a, b)
        assert len(a) == len(separable_encoded)

    @pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-6)])
    def test_length_sorted_scores_match_per_example(self, separable_vocab, dtype, tol):
        # rows of shuffled lengths, some cut at max_len, scored in batches
        # against one row at a time in dataset order
        rng = np.random.default_rng(3)
        words = ["the", "cat", "sat", "good", "bad", "mat", "dog"]
        examples = [
            Example("justice", " ".join(rng.choice(words, size=int(n))), label=i % 2)
            for i, n in enumerate(rng.integers(1, 30, size=45))
        ]
        encoded = encode_examples(examples, separable_vocab)
        cfg = ModelConfig(vocab_size=len(separable_vocab), max_len=16, n_layers=2,
                          n_heads=2, d_model=16, d_ff=32, dropout_p=0.1, seed=4,
                          dtype=dtype)
        params = init_params(cfg)
        for tensor in params.tensors.values():
            tensor[...] = rng.normal(0.0, 0.5, tensor.shape)
        batched = predict_probs(params, encoded, batch_size=8)
        single = np.array([
            classify(params, batch)[0]
            for ex in encoded
            for batch in make_batches([ex], 1, max_len=cfg.max_len)
        ])
        assert np.abs(batched - single).max() <= tol
        assert np.ptp(single) > 1e-4  # rows score 100x the float32 tolerance apart


class TestEpochCsv:
    def test_header_and_shape(self):
        logs = [EpochLog(0, 0.5, 0.6, 0.7, 0.8, 1.25)]
        text = epoch_logs_csv(logs)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,seconds"
        assert lines[1].startswith("0,0.5,0.6,0.7,0.8,")
