import dataclasses
import math

import numpy as np
import pytest

import ethikit.trainer as trainer_mod
from ethikit.batching import Example
from ethikit.errors import EmptyDataset, InvalidConfig, TooFewExamples
from ethikit.model import ModelConfig, load_checkpoint, save_checkpoint
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
    def test_overfits_separable_fixture(self, separable_set, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=30)
        # batch 16 over 64 examples, n_acc 4 -> exactly one flush per epoch
        _, logs = train(separable_set, separable_set[:16], separable_vocab, cfg)
        assert max(log.train_acc for log in logs) >= 0.95
        assert logs[-1].train_loss < logs[0].train_loss

    def test_zero_epochs_rejected(self, separable_vocab):
        with pytest.raises(InvalidConfig):
            toy_train_config(separable_vocab, epochs=0)

    def test_empty_sets_rejected(self, separable_set, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=1)
        with pytest.raises(EmptyDataset):
            train([], separable_set, separable_vocab, cfg)
        with pytest.raises(EmptyDataset):
            train(separable_set, [], separable_vocab, cfg)

    def test_deterministic_logs_and_params(self, separable_set, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=3)
        train_set, val_set = separable_set[:48], separable_set[48:]
        p1, logs1 = train(train_set, val_set, separable_vocab, cfg)
        p2, logs2 = train(train_set, val_set, separable_vocab, cfg)
        for name in p1.names:
            assert p1[name].tobytes() == p2[name].tobytes()
        strip = lambda log: dataclasses.replace(log, seconds=0.0)
        assert [strip(a) for a in logs1] == [strip(b) for b in logs2]

    def test_flush_cadence(self, separable_set, separable_vocab, monkeypatch):
        calls = []
        real_flush = trainer_mod.flush
        monkeypatch.setattr(
            trainer_mod, "flush",
            lambda *a, **k: (calls.append(k.get("allow_partial", False)),
                             real_flush(*a, **k))[1],
        )
        cfg = toy_train_config(separable_vocab, epochs=2, batch_size=10, n_acc=4)
        train(separable_set, separable_set[:8], separable_vocab, cfg)
        # 64 examples / batch 10 -> 7 micro-batches; ceil(7/4) = 2 flushes/epoch
        per_epoch = len(calls) // 2
        assert per_epoch == math.ceil(7 / 4)
        assert calls == [False, True, False, True]

    def test_best_checkpoint_fidelity(self, tmp_path, separable_set, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=4)
        train_set, val_set = separable_set[:48], separable_set[48:]
        best, logs = train(train_set, val_set, separable_vocab, cfg)
        best_val_acc = max(
            (log.val_acc, -log.val_loss) for log in logs
        )[0]
        path = tmp_path / "best.ckpt"
        save_checkpoint(best, cfg.model, path)
        reloaded, _ = load_checkpoint(path)
        report = evaluate(reloaded, val_set, separable_vocab, batch_size=cfg.batch_size)
        assert report.accuracy == best_val_acc


class TestEvaluate:
    def test_perfect_predictor(self, separable_set, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=30)
        best, _ = train(separable_set, separable_set[:16], separable_vocab, cfg)
        report = evaluate(best, separable_set, separable_vocab)
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
        from ethikit.model import init_params

        with pytest.raises(EmptyDataset):
            evaluate(init_params(cfg), [], separable_vocab)

    def test_predict_probs_order_stable(self, separable_set, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=1)
        params, _ = train(separable_set, separable_set[:8], separable_vocab, cfg)
        a = predict_probs(params, separable_set, separable_vocab)
        b = predict_probs(params, separable_set, separable_vocab)
        assert np.array_equal(a, b)
        assert len(a) == len(separable_set)


class TestEpochCsv:
    def test_header_and_shape(self):
        logs = [EpochLog(0, 0.5, 0.6, 0.7, 0.8, 1.25)]
        text = epoch_logs_csv(logs)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,seconds"
        assert lines[1].startswith("0,0.5,0.6,0.7,0.8,")
