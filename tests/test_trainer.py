import ctypes
import dataclasses
import math
import weakref

import numpy as np
import pytest

import ethikit.trainer as trainer_mod
from ethikit.batching import Example, encode_examples
from ethikit.errors import ConfigError, EmptyDataset, NonFiniteTraining, TooFewExamples
from ethikit.batching import DEFAULT_BATCH_SIZE, make_batches
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
    scoring_batches,
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
        return [Example(text_a=f"text {i}", label=i % 2) for i in range(n)]

    def test_sizes_follow_floor_convention(self):
        for n in (10, 21, 64, 97):
            train_set, val_set = split_train_val(self._balanced(n), 0.8, seed=1)
            assert len(train_set) == int(n * 0.8)
            assert len(train_set) + len(val_set) == n

    def test_stratified_within_one_example(self):
        examples = [Example(text_a=str(i), label=int(i < 30)) for i in range(100)]
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
            split_train_val([Example(text_a="x", label=1)])

    def test_empty_training_side(self):
        with pytest.raises(TooFewExamples, match="4 example\\(s\\) at ratio 0.05"):
            split_train_val(self._balanced(4), 0.05)


class TestTrain:
    def test_overfits_separable_fixture(self, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=30)
        # batch 16 over 64 examples, n_acc 4 -> exactly one flush per epoch
        _, logs = train(separable_encoded, separable_encoded[:16], cfg)
        assert max(log.train_acc for log in logs) >= 0.95
        assert logs[-1].train_loss < logs[0].train_loss

    def test_zero_epochs_rejected(self, separable_vocab):
        with pytest.raises(ConfigError, match="epochs"):
            toy_train_config(separable_vocab, epochs=0)
        with pytest.raises(ConfigError, match="batch_size"):
            toy_train_config(separable_vocab, batch_size=0)

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
        counts = []
        real_flush = trainer_mod.flush

        def counting_flush(params, state, cfg):
            counts.append(state.counter)
            real_flush(params, state, cfg)

        monkeypatch.setattr(trainer_mod, "flush", counting_flush)
        cfg = toy_train_config(separable_vocab, epochs=2, batch_size=10, n_acc=4)
        train(separable_encoded, separable_encoded[:8], cfg)
        # 64 examples / batch 10 -> 7 micro-batches; ceil(7/4) = 2 flushes/epoch,
        # the second over the epoch's 3 leftover micro-batches
        per_epoch = len(counts) // 2
        assert per_epoch == math.ceil(7 / 4)
        assert counts == [4, 3, 4, 3]

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

    @pytest.mark.parametrize("score_train, scored", [(True, [7, 7, 14, 14]), (False, [7, 14])])
    def test_one_cache_alive_at_a_time(self, separable_encoded, separable_vocab,
                                       monkeypatch, score_train, scored):
        real_forward = trainer_mod.forward
        real_predict_probs = trainer_mod.predict_probs
        caches = []
        starts = []

        def assert_no_cache_alive(where):
            alive = [k for k, ref in enumerate(caches) if ref() is not None]
            assert not alive, f"{where}: train caches {alive} still alive"

        def tracking_forward(*args, **kwargs):  # train-mode: scoring calls classify
            assert_no_cache_alive(f"train forward {len(caches)}")
            logits, cache = real_forward(*args, **kwargs)
            caches.append(weakref.ref(cache))
            return logits, cache

        def checked_predict_probs(*args, **kwargs):
            assert_no_cache_alive("epoch-end predict_probs")
            starts.append(len(caches))
            return real_predict_probs(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "forward", tracking_forward)
        monkeypatch.setattr(trainer_mod, "predict_probs", checked_predict_probs)
        # 64 examples / batch 10 -> 7 micro-batches per epoch, flushed 4 + 3
        cfg = toy_train_config(separable_vocab, epochs=2, batch_size=10, n_acc=4)
        train(separable_encoded, separable_encoded[:8], cfg, score_train=score_train)
        assert len(caches) == 14
        assert starts == scored  # train (if scored) and val scoring after each epoch

    def test_allocator_call_is_harmless_where_it_cannot_act(
        self, separable_encoded, separable_vocab, monkeypatch
    ):
        cfg = toy_train_config(separable_vocab, epochs=2)
        train_set, val_set = separable_encoded[:48], separable_encoded[48:]
        expected, _ = train(train_set, val_set, cfg)

        def no_library(*args, **kwargs):
            raise OSError("no C library")

        def no_mallopt(*args, **kwargs):
            return object()

        for fake_cdll in (no_library, no_mallopt):
            monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
            got, _ = train(train_set, val_set, cfg)
            for name in expected.names:
                assert got[name].tobytes() == expected[name].tobytes()

    def test_unscored_training_split_changes_no_params_or_validation_log(
        self, separable_encoded, separable_vocab
    ):
        cfg = toy_train_config(separable_vocab, epochs=3)
        train_set, val_set = separable_encoded[:48], separable_encoded[48:]
        scored, scored_logs = train(train_set, val_set, cfg)
        unscored, unscored_logs = train(train_set, val_set, cfg, score_train=False)
        for name in scored.names:
            assert unscored[name].tobytes() == scored[name].tobytes()
        strip = lambda log: dataclasses.replace(log, train_loss=None, train_acc=None,
                                                seconds=0.0)
        assert [strip(log) for log in unscored_logs] == [strip(log) for log in scored_logs]
        assert all(log.train_loss is None and log.train_acc is None for log in unscored_logs)
        assert all(log.train_loss is not None for log in scored_logs)

    def test_best_epoch_is_the_highest_val_acc_ties_to_the_lower_val_loss(
        self, separable_encoded, separable_vocab, monkeypatch
    ):
        train_set, val_set = separable_encoded[:48], separable_encoded[48:]
        # (loss, acc) per epoch. Epochs 1, 2 and 4 share the highest accuracy;
        # 2 and 4 share the lowest loss among them, so the earlier one wins.
        # Epoch 3 has the lowest loss overall but not the highest accuracy.
        val_metrics = [(0.69, 0.5), (0.6, 0.75), (0.5, 0.75), (0.1, 0.7), (0.5, 0.75)]
        # The training metrics point at other epochs, and must not count.
        train_metrics = [(0.01, 1.0), (0.9, 0.1), (0.9, 0.1), (0.02, 0.99), (0.9, 0.1)]

        def run(score_train):
            script = {len(train_set): iter(train_metrics), len(val_set): iter(val_metrics)}
            at_val_scoring = []

            def scripted(params, dataset, prepared):
                if len(dataset) == len(val_set):
                    at_val_scoring.append(params.copy())
                return next(script[len(dataset)])

            monkeypatch.setattr(trainer_mod, "_eval_loss_acc", scripted)
            cfg = toy_train_config(separable_vocab, epochs=5)
            best, logs = train(train_set, val_set, cfg, score_train=score_train)
            assert [(log.val_loss, log.val_acc) for log in logs] == val_metrics
            expected_train = train_metrics if score_train else [(None, None)] * 5
            assert [(log.train_loss, log.train_acc) for log in logs] == expected_train
            return best, at_val_scoring

        for score_train in (True, False):
            best, at_val_scoring = run(score_train)
            assert len(at_val_scoring) == 5
            for name in best.names:
                assert best[name].tobytes() == at_val_scoring[2][name].tobytes()
            # the epochs' params differ, so matching epoch 2 singles it out
            for other in (0, 1, 3, 4):
                assert any(best[name].tobytes() != at_val_scoring[other][name].tobytes()
                           for name in best.names)

    def test_best_checkpoint_fidelity(self, tmp_path, separable_encoded, separable_vocab):
        cfg = toy_train_config(separable_vocab, epochs=4)
        train_set, val_set = separable_encoded[:48], separable_encoded[48:]
        best, logs = train(train_set, val_set, cfg)
        best_val_acc = max(
            (log.val_acc, -log.val_loss) for log in logs
        )[0]
        path = tmp_path / "best.ckpt"
        save_checkpoint(best, path)
        reloaded = load_checkpoint(path)
        report = evaluate(reloaded, val_set)
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
        with pytest.raises(EmptyDataset):
            predict_probs(init_params(cfg), [])

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
            Example(text_a=" ".join(rng.choice(words, size=int(n))), label=i % 2)
            for i, n in enumerate(rng.integers(1, 30, size=45))
        ]
        encoded = encode_examples(examples, separable_vocab)
        cfg = ModelConfig(vocab_size=len(separable_vocab), max_len=16, n_layers=2,
                          n_heads=2, d_model=16, d_ff=32, dropout_p=0.1, seed=4,
                          dtype=dtype)
        params = init_params(cfg)
        for tensor in params.tensors.values():
            tensor[...] = rng.normal(0.0, 0.5, tensor.shape)
        _, batches = scoring_batches(encoded, cfg.max_len)
        assert len(batches) > 1
        batched = predict_probs(params, encoded)
        single = np.array([
            classify(params, batch)[0]
            for ex in encoded
            for batch in make_batches([ex], 1, max_len=cfg.max_len)
        ])
        assert np.abs(batched - single).max() <= tol
        assert np.ptp(single) > 1e-4  # rows score 100x the float32 tolerance apart


class TestScoringBatches:
    def _varied(self, vocab, n=45):
        rng = np.random.default_rng(11)
        words = ["the", "cat", "sat", "good", "bad", "mat", "dog"]
        return encode_examples([
            Example(text_a=" ".join(rng.choice(words, size=int(k))), label=i % 2)
            for i, k in enumerate(rng.integers(1, 30, size=n))
        ], vocab)

    def test_each_row_once_in_length_order(self, separable_vocab):
        encoded = self._varied(separable_vocab)
        order, batches = scoring_batches(encoded, 16)
        assert len(batches) > 1
        lengths = [min(len(ex.ids), 16) for ex in encoded]
        assert sorted(order.tolist()) == list(range(len(encoded)))
        assert [lengths[i] for i in order] == sorted(lengths)
        assert np.concatenate([b.mask.sum(axis=1) for b in batches]).tolist() == sorted(lengths)
        assert np.concatenate([b.labels for b in batches]).tolist() == \
            [encoded[i].label for i in order]

    def test_no_batch_above_a_full_default_batch_of_the_widest_row(self, separable_vocab):
        encoded = self._varied(separable_vocab)
        _, batches = scoring_batches(encoded, 16)
        widest = max(min(len(ex.ids), 16) for ex in encoded)
        assert max(b.mask.size for b in batches) <= DEFAULT_BATCH_SIZE * widest
        assert len(batches) <= -(-len(encoded) // DEFAULT_BATCH_SIZE)

    def test_prepared_batches_score_bit_for_bit(self, separable_vocab):
        encoded = self._varied(separable_vocab)
        cfg = ModelConfig(vocab_size=len(separable_vocab), max_len=16, n_layers=2,
                          n_heads=2, d_model=16, d_ff=32, seed=5)
        params = init_params(cfg)
        prepared = scoring_batches(encoded, cfg.max_len)
        assert len(prepared[1]) > 1
        assert predict_probs(params, encoded).tobytes() == \
            predict_probs(params, encoded, prepared=prepared).tobytes()

    def test_epoch_end_batches_do_not_depend_on_the_training_batch_size(
        self, separable_encoded, separable_vocab, monkeypatch
    ):
        real_scoring_batches = trainer_mod.scoring_batches
        built = []

        def listed(order, batches):
            return order.tolist(), [(b.ids.tolist(), b.labels.tolist()) for b in batches]

        def recorded(*args, **kwargs):
            prepared = real_scoring_batches(*args, **kwargs)
            built.append(listed(*prepared))
            return prepared

        monkeypatch.setattr(trainer_mod, "scoring_batches", recorded)
        sets = (separable_encoded[:48], separable_encoded[48:])
        for batch_size in (4, 16, 48):
            for score_train, scored in ((True, sets), (False, sets[1:])):
                built.clear()
                train(*sets, toy_train_config(separable_vocab, epochs=1, batch_size=batch_size),
                      score_train=score_train)
                assert built == [listed(*real_scoring_batches(s, 16)) for s in scored]

    @pytest.mark.parametrize("score_train, n_scored", [(True, 2), (False, 1)])
    def test_eval_batches_built_once_across_epochs(self, separable_encoded, separable_vocab,
                                                   monkeypatch, score_train, n_scored):
        events = []
        real_make_batches = trainer_mod.make_batches
        real_forward = trainer_mod.forward

        def counted_make_batches(*args, **kwargs):
            events.append("pack" if kwargs.get("pack") else "train")
            return real_make_batches(*args, **kwargs)

        def counted_forward(*args, **kwargs):
            events.append("forward")
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "make_batches", counted_make_batches)
        monkeypatch.setattr(trainer_mod, "forward", counted_forward)
        cfg = toy_train_config(separable_vocab, epochs=3)
        train(separable_encoded[:48], separable_encoded[48:], cfg, score_train=score_train)
        assert events.count("train") == 3
        # the scored sets (the train set only if scored, then validation), once
        # each, after the first training step
        assert events.count("pack") == n_scored
        assert events.index("pack") > events.index("forward")


class TestEpochCsv:
    def test_header_and_shape(self):
        logs = [EpochLog(0, 0.5, 0.6, 0.7, 0.8, 1.25)]
        text = epoch_logs_csv(logs)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,seconds"
        assert lines[1].startswith("0,0.5,0.6,0.7,0.8,")
