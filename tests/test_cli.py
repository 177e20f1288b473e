import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ethikit
from ethikit.cli import main
from ethikit.dataset import default_specs, serialize_split
from tests.conftest import make_separable_examples

FAST_TRAIN_FLAGS = [
    "--epochs", "2", "--batch-size", "8", "--max-len", "16",
    "--layers", "1", "--heads", "2", "--d-model", "16", "--d-ff", "32",
    "--lr", "0.01", "--vocab-size", "300", "--min-freq", "1", "--seed", "3",
]


@pytest.fixture
def train_file(tmp_path) -> Path:
    examples = make_separable_examples(40, seed=21)
    path = tmp_path / "justice_train.csv"
    serialize_split(examples, default_specs()["justice"], path)
    return path


def run_train(tmp_path, train_file, out_name="run1", extra=()) -> Path:
    out_dir = tmp_path / out_name
    code = main([
        "train", "--train-file", str(train_file), "--domain", "justice",
        "--out-dir", str(out_dir), *FAST_TRAIN_FLAGS, *extra,
    ])
    assert code == 0
    return out_dir


def test_train_runs_without_scipy(tmp_path, train_file):
    # A fresh interpreter, so modules loaded by other tests do not count.
    script = (
        "import sys\n"
        "from ethikit.cli import main\n"
        f"code = main(['train', '--train-file', {str(train_file)!r}, '--domain', 'justice',"
        f" '--out-dir', {str(tmp_path / 'run')!r}, *{FAST_TRAIN_FLAGS!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(ethikit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


class TestNormalizeCommand:
    def test_stdin_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("can't   do THAT\nI am here\n"))
        assert main(["normalize"]) == 0
        out = capsys.readouterr().out
        assert out == "cannot do that\nI am here\n"


class TestBuildVocabCommand:
    def test_writes_vocab_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\nthe dog sat\n" * 5, encoding="utf-8")
        out = tmp_path / "vocab.txt"
        code = main(["build-vocab", "--input", str(corpus), "--size", "64",
                     "--min-freq", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        assert "the" in lines


class TestTrainCommand:
    def test_recipe_defaults(self):
        from ethikit.cli import build_parser

        args = build_parser().parse_args(["train"])
        assert args.lr == 6e-5
        assert args.batch_size == 32
        assert args.grad_accum == 4
        assert args.max_len == 128
        assert args.dropout == 0.3
        assert args.epochs == 5

    def test_run_directory_contents(self, tmp_path, train_file):
        out_dir = run_train(tmp_path, train_file)
        for name in ("best.ckpt", "epochs.csv", "manifest.json", "vocab.txt"):
            assert (out_dir / name).exists(), name
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["optim"]["eta0"] == 0.01
        assert "sha256" in manifest["inputs"]["train_file"]

    def test_zero_lr_rejected_with_exit_2(self, tmp_path, train_file):
        code = main([
            "train", "--train-file", str(train_file), "--domain", "justice",
            "--out-dir", str(tmp_path / "bad"), "--lr", "0",
        ])
        assert code == 2

    def test_identical_runs_identical_outputs(self, tmp_path, train_file):
        d1 = run_train(tmp_path, train_file, "run1")
        d2 = run_train(tmp_path, train_file, "run2")
        assert (d1 / "best.ckpt").read_bytes() == (d2 / "best.ckpt").read_bytes()
        strip = lambda p: [
            ",".join(line.split(",")[:-1])
            for line in (p / "epochs.csv").read_text().splitlines()
        ]
        assert strip(d1) == strip(d2)

    def test_replay_from_manifest(self, tmp_path, train_file):
        d1 = run_train(tmp_path, train_file, "run1")
        replay_dir = tmp_path / "replayed"
        code = main(["train", "--replay", str(d1 / "manifest.json"),
                     "--out-dir", str(replay_dir)])
        assert code == 0
        assert (d1 / "best.ckpt").read_bytes() == (replay_dir / "best.ckpt").read_bytes()
        assert (d1 / "vocab.txt").read_bytes() == (replay_dir / "vocab.txt").read_bytes()

    def test_replay_of_changed_input_exit_1(self, tmp_path, train_file, capsys):
        d1 = run_train(tmp_path, train_file, "run1")
        data = bytearray(train_file.read_bytes())
        data[-2] ^= 0x01
        train_file.write_bytes(bytes(data))
        code = main(["train", "--replay", str(d1 / "manifest.json"),
                     "--out-dir", str(tmp_path / "replayed")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(train_file) in err and "changed" in err
        assert not (tmp_path / "replayed" / "best.ckpt").exists()

    def test_replay_under_other_version_exit_1(self, tmp_path, train_file, capsys):
        d1 = run_train(tmp_path, train_file, "run1")
        manifest = json.loads((d1 / "manifest.json").read_text())
        manifest["version"] = "0.0.0"
        (d1 / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train", "--replay", str(d1 / "manifest.json"),
                     "--out-dir", str(tmp_path / "replayed")])
        assert code == 1
        assert "0.0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["config", "inputs"])
    def test_replay_manifest_missing_key_exit_2(self, tmp_path, train_file, capsys, key):
        d1 = run_train(tmp_path, train_file, "run1")
        manifest = json.loads((d1 / "manifest.json").read_text())
        del manifest[key]
        (d1 / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train", "--replay", str(d1 / "manifest.json"),
                     "--out-dir", str(tmp_path / "replayed")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    def test_run_root_env(self, tmp_path, train_file, monkeypatch):
        monkeypatch.setenv("ETHIKIT_RUN_ROOT", str(tmp_path / "root"))
        code = main([
            "train", "--train-file", str(train_file), "--domain", "justice",
            "--out-dir", "nested", *FAST_TRAIN_FLAGS,
        ])
        assert code == 0
        assert (tmp_path / "root" / "nested" / "best.ckpt").exists()


class TestEvaluateCommand:
    def test_report_and_scores(self, tmp_path, train_file, capsys):
        out_dir = run_train(tmp_path, train_file)
        report_csv = tmp_path / "report.csv"
        scores_csv = tmp_path / "scores.csv"
        code = main([
            "evaluate", "--checkpoint", str(out_dir / "best.ckpt"),
            "--data", str(train_file), "--domain", "justice",
            "--report", str(report_csv), "--scores", str(scores_csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pred 0" in out and "accuracy=" in out
        header, row = report_csv.read_text().strip().splitlines()
        assert header == "domain,accuracy,precision,recall,f1,auc"
        assert row.startswith("justice,")
        score_lines = scores_csv.read_text().strip().splitlines()
        assert score_lines[0] == "example_id,label,score"
        assert len(score_lines) == 41
        for line in score_lines[1:]:
            assert 0.0 <= float(line.split(",")[2]) <= 1.0, line

    def test_truncates_at_checkpoint_max_len(self, tmp_path, capsys):
        # 24 words per row: longer than the 16 positions the model was trained with
        examples = make_separable_examples(40, seed=21)
        for ex in examples:
            ex.text_a = " ".join([ex.text_a] * 4)
        long_file = tmp_path / "justice_long.csv"
        serialize_split(examples, default_specs()["justice"], long_file)
        out_dir = run_train(tmp_path, long_file)
        code = main([
            "evaluate", "--checkpoint", str(out_dir / "best.ckpt"),
            "--data", str(long_file), "--domain", "justice",
        ])
        assert code == 0
        assert "n=40" in capsys.readouterr().out

    def test_non_finite_scores_exit_1(self, tmp_path, train_file, capsys, monkeypatch):
        out_dir = run_train(tmp_path, train_file)

        def nan_probs(params, dataset, *args, **kwargs):
            probs = np.full(len(dataset), 0.5)
            probs[1] = np.nan
            return probs

        monkeypatch.setattr("ethikit.trainer.predict_probs", nan_probs)
        code = main([
            "evaluate", "--checkpoint", str(out_dir / "best.ckpt"),
            "--data", str(train_file), "--domain", "justice",
        ])
        assert code == 1
        assert "NaN or infinite" in capsys.readouterr().err

    def test_missing_checkpoint_exit_1(self, tmp_path, capsys):
        code = main([
            "evaluate", "--checkpoint", str(tmp_path / "nowhere.ckpt"),
            "--data", str(tmp_path / "x.csv"), "--domain", "justice",
        ])
        assert code == 1
        assert "nowhere.ckpt" in capsys.readouterr().err

    def test_oversized_tensor_dims_exit_1(self, tmp_path, train_file, capsys):
        out_dir = run_train(tmp_path, train_file)
        ckpt = out_dir / "best.ckpt"
        data = bytearray(ckpt.read_bytes())
        name = b"embed.tok"
        ndim_at = data.index(name) + len(name)
        assert data[ndim_at] == 2
        struct.pack_into("<II", data, ndim_at + 1, 0xFFFFFFFF, 0xFFFFFFFF)
        ckpt.write_bytes(bytes(data))
        code = main([
            "evaluate", "--checkpoint", str(ckpt),
            "--data", str(train_file), "--domain", "justice",
        ])
        assert code == 1
        assert "embed.tok" in capsys.readouterr().err


class TestFilterHardCommand:
    def test_writes_hard_subset_and_scores(self, tmp_path, capsys):
        spec = default_specs()["justice"]
        dev = tmp_path / "dev.csv"
        pool = tmp_path / "pool.csv"
        serialize_split(make_separable_examples(32, seed=31, flip_fraction=0.25),
                        spec, dev)
        serialize_split(make_separable_examples(32, seed=32, flip_fraction=0.25),
                        spec, pool)
        out = tmp_path / "hard.csv"
        code = main([
            "filter-hard", "--dev", str(dev), "--pool", str(pool),
            "--domain", "justice", "--quantile", "0.5", "--out", str(out),
            "--proxies", "1", "--epochs", "2", "--batch-size", "8",
            "--max-len", "16", "--vocab-size", "300",
        ])
        assert code == 0
        hard_rows = out.read_text().strip().splitlines()
        assert hard_rows[0] == "label,scenario"
        assert 2 <= len(hard_rows) - 1 <= 32
        scores = (out.with_suffix(".scores.csv")).read_text().strip().splitlines()
        assert scores[0] == "example_id,score"
        assert len(scores) == 33


class TestBadNumbers:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--d-model", "0"]),
        ("train", ["--d-ff", "0"]),
        ("train", ["--layers", "-1"]),
        ("evaluate", ["--batch-size", "0"]),
        ("filter-hard", ["--proxies", "0"]),
    ])
    def test_config_error_exit_2(self, tmp_path, train_file, capsys, command, flags):
        if command == "train":
            argv = ["train", "--train-file", str(train_file), "--domain", "justice",
                    "--out-dir", str(tmp_path / "bad"), *FAST_TRAIN_FLAGS]
        elif command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(run_train(tmp_path, train_file) / "best.ckpt"),
                    "--data", str(train_file), "--domain", "justice"]
        else:
            argv = ["filter-hard", "--dev", str(train_file), "--pool", str(train_file),
                    "--domain", "justice", "--out", str(tmp_path / "hard.csv"),
                    "--vocab-size", "300"]
        capsys.readouterr()
        assert main([*argv, *flags]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--max-len", "1"], ["--proxies", "0"], ["--vocab-size", "3"]]
    )
    def test_filter_hard_checks_config_before_reading(self, tmp_path, capsys, flags):
        # neither input exists, so exit 2 proves no file was opened first
        missing = tmp_path / "missing.csv"
        code = main(["filter-hard", "--dev", str(missing), "--pool", str(missing),
                     "--domain", "justice", "--out", str(tmp_path / "hard.csv"), *flags])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--vocab-size", "3"], ["--min-freq", "0"]])
    def test_train_checks_tokenizer_config_before_reading(self, tmp_path, capsys, flags):
        code = main(["train", "--train-file", str(tmp_path / "missing.csv"),
                     "--domain", "justice", "--out-dir", str(tmp_path / "run"), *flags])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_model_config_writes_nothing(self, tmp_path, train_file):
        out_dir = tmp_path / "bad"
        assert main(["train", "--train-file", str(train_file), "--domain", "justice",
                     "--out-dir", str(out_dir), *FAST_TRAIN_FLAGS, "--layers", "-1"]) == 2
        assert not (out_dir / "vocab.txt").exists()


class TestUnreadableInputs:
    """Inputs that cannot be read as the file they claim to be end in exit 1."""

    @pytest.fixture
    def latin1_csv(self, tmp_path) -> Path:
        path = tmp_path / "latin1.csv"
        path.write_bytes("label,scenario\n1,I paid the caf\xe9 bill\n".encode("latin-1"))
        return path

    def test_non_utf8_csv(self, tmp_path, latin1_csv, capsys):
        code = main(["train", "--train-file", str(latin1_csv), "--domain", "justice",
                     "--out-dir", str(tmp_path / "run"), *FAST_TRAIN_FLAGS])
        assert code == 1
        assert f"{latin1_csv}: not UTF-8" in capsys.readouterr().err

    def test_directory_as_train_file(self, tmp_path, capsys):
        code = main(["train", "--train-file", str(tmp_path), "--domain", "justice",
                     "--out-dir", str(tmp_path / "run"), *FAST_TRAIN_FLAGS])
        assert code == 1
        assert "is a directory" in capsys.readouterr().err

    def test_directory_as_checkpoint(self, tmp_path, train_file, capsys):
        code = main(["evaluate", "--checkpoint", str(tmp_path),
                     "--data", str(train_file), "--domain", "justice"])
        assert code == 1
        assert "is a directory" in capsys.readouterr().err

    def test_directory_as_replay_manifest(self, tmp_path, capsys):
        code = main(["train", "--replay", str(tmp_path), "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "is a directory" in capsys.readouterr().err

    def test_non_utf8_normalize_config(self, tmp_path, capsys):
        config = tmp_path / "norm.cfg"
        config.write_bytes("acronym = CAF\xc9\n".encode("latin-1"))
        assert main(["normalize", "--config", str(config)]) == 1
        assert f"{config}: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_vocab(self, tmp_path, train_file, capsys):
        out_dir = run_train(tmp_path, train_file)
        vocab = out_dir / "vocab.txt"
        vocab.write_bytes(vocab.read_bytes() + "caf\xe9\n".encode("latin-1"))
        code = main(["evaluate", "--checkpoint", str(out_dir / "best.ckpt"),
                     "--data", str(train_file), "--domain", "justice"])
        assert code == 1
        assert f"{vocab}: not UTF-8" in capsys.readouterr().err


class TestNonFiniteTraining:
    def test_nan_gradient_exit_1_without_checkpoint(self, tmp_path, train_file,
                                                   capsys, monkeypatch):
        import ethikit.trainer as trainer_mod

        real_backward = trainer_mod.backward
        calls = []

        def nan_on_third(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                grads["layers.0.ff.w1"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(trainer_mod, "backward", nan_on_third)
        out_dir = tmp_path / "run"
        # 32 training rows in batches of 8 with --grad-accum 1: one flush per batch
        code = main(["train", "--train-file", str(train_file), "--domain", "justice",
                     "--out-dir", str(out_dir), *FAST_TRAIN_FLAGS, "--grad-accum", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "epoch 0, flush step 3: gradient of layers.0.ff.w1" in err
        assert not (out_dir / "best.ckpt").exists()


class TestReportCommand:
    def _eval_csv(self, tmp_path):
        path = tmp_path / "eval.csv"
        path.write_text(
            "domain,accuracy,precision,recall,f1,auc\n"
            "commonsense,0.8646,0.86,0.85,0.85,0.9078\n"
            "justice,0.7822,0.78,0.78,0.78,0.8736\n"
            "virtue,0.834,0.82,0.83,0.81,0.8878\n"
            "deontology,0.8123,0.7856,0.8555,0.81,0.8993\n",
            encoding="utf-8",
        )
        return path

    def test_average_recomputed_full_precision(self, tmp_path, capsys):
        code = main(["report", "--inputs", str(self._eval_csv(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        # mean of 86.46, 78.22, 83.40, 81.23 is 82.3275 -> 82.33 half-up
        assert "82.33*" in out
        assert "recomputed" in out

    def test_baseline_rows_included(self, tmp_path, capsys):
        code = main(["report", "--inputs", str(self._eval_csv(tmp_path)),
                     "--baselines", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BERT-base" in out and "46.10" in out
        assert "RoBERTa-large" in out and "ALBERT-xxlarge" in out

    def test_single_report_row(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(
            "domain,accuracy,precision,recall,f1,auc\n"
            "justice,0.75,0.7,0.7,0.7,0.8\n",
            encoding="utf-8",
        )
        assert main(["report", "--inputs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "75.00" in out

    def test_malformed_report_exit_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n", encoding="utf-8")
        assert main(["report", "--inputs", str(path)]) == 1
