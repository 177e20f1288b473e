import hashlib
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
from ethikit import trainer as trainer_mod
from ethikit.cli import _sparkline, main
from ethikit.dataset import default_specs, load_split, serialize_split
from ethikit.metrics import DegenerateMetricWarning
from tests.conftest import make_separable_examples

# The tokenizer flags stand apart: a run given --vocab sets none of them.
FAST_MODEL_FLAGS = [
    "--epochs", "2", "--batch-size", "8", "--max-len", "16",
    "--layers", "1", "--heads", "2", "--d-model", "16", "--d-ff", "32",
    "--lr", "0.01", "--seed", "3",
]
FAST_TRAIN_FLAGS = [*FAST_MODEL_FLAGS, "--vocab-size", "300", "--min-freq", "1"]


@pytest.fixture
def train_file(tmp_path) -> Path:
    examples = make_separable_examples(40, seed=21)
    path = tmp_path / "justice_train.csv"
    serialize_split(examples, default_specs()["justice"], path)
    return path


def run_train(tmp_path, train_file, out_name="run1", vocab=None) -> Path:
    """A fast run on ``vocab``, or else on a vocab learned from ``train_file``."""
    out_dir = tmp_path / out_name
    flags = [*FAST_MODEL_FLAGS, "--vocab", str(vocab)] if vocab else FAST_TRAIN_FLAGS
    code = main([
        "train", "--train-file", str(train_file), "--domain", "justice",
        "--out-dir", str(out_dir), *flags,
    ])
    assert code == 0
    return out_dir


@pytest.fixture
def vocab_file(tmp_path, train_file) -> Path:
    """A vocab that build-vocab learns from the training file."""
    path = tmp_path / "vocab.txt"
    assert main(["build-vocab", "--input", str(train_file), "--vocab-size", "300",
                 "--min-freq", "1", "--out", str(path)]) == 0
    return path


def _replay(tmp_path, manifest: Path, *extra: str) -> int:
    return main(["replay", str(manifest), "--out-dir", str(tmp_path / "replayed"), *extra])


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin that, like it, reads the given bytes."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


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
        monkeypatch.setattr("sys.stdin", _stdin(b"can't   do THAT\nI am here\n"))
        assert main(["normalize"]) == 0
        out = capsys.readouterr().out
        assert out == "cannot do that\nI am here\n"

    def test_last_line_without_newline(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", _stdin(b"I am here\r\n\nTHE END"))
        assert main(["normalize"]) == 0
        assert capsys.readouterr().out == "I am here\n\nthe end\n"

    def test_takes_no_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--config", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config x" in capsys.readouterr().err


class TestBuildVocabCommand:
    def test_writes_vocab_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\nthe dog sat\n" * 5, encoding="utf-8")
        out = tmp_path / "vocab.txt"
        code = main(["build-vocab", "--input", str(corpus), "--vocab-size", "64",
                     "--min-freq", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        assert "the" in lines

    def test_learns_from_normalized_lines(self, tmp_path, capsys):
        # train, evaluate and filter-hard encode normalized text, so the
        # vocab is learned from it too
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("THE CAT SAT ON THE MAT\n" * 5, encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--input", str(corpus), "--vocab-size", "64",
                     "--min-freq", "2", "--out", str(out)]) == 0
        learned = out.read_text(encoding="utf-8").splitlines()[5:]
        assert "the" in learned
        assert not any(ch.isupper() for token in learned for ch in token)

    def test_file_and_stdin_split_lines_alike(self, tmp_path, monkeypatch, capsys):
        # a lone carriage return does not end a line in either mode, so
        # "AA\rBB" stays one shouted run of four letters and is lowercased
        data = b"AA\rBB cat\nDOGS run\n"
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(data)
        from_file, from_stdin = tmp_path / "file.vocab", tmp_path / "stdin.vocab"
        assert main(["build-vocab", "--input", str(corpus), "--out", str(from_file)]) == 0
        monkeypatch.setattr("sys.stdin", _stdin(data))
        assert main(["build-vocab", "--input", "-", "--out", str(from_stdin)]) == 0
        assert from_file.read_bytes() == from_stdin.read_bytes()
        assert "AA" not in from_file.read_text(encoding="utf-8").splitlines()


class TestTrainCommand:
    def test_recipe_defaults(self):
        from ethikit.cli import build_parser

        args = build_parser().parse_args(["train", "--domain", "justice", "--train-file", "t.csv"])
        assert args.lr == 6e-5
        assert args.batch_size == 32
        assert args.grad_accum == 4
        assert args.max_len == 128
        assert args.dropout == 0.3
        assert args.epochs == 5

    def test_default_manifest_config(self, tmp_path, train_file):
        # The manifest a default run writes, key for key: each train setting
        # once, by flag dest, and the hash of each input file; a manifest in
        # this format replays to the same checkpoint.
        config = {
            "batch_size": 32, "d_ff": 256, "d_model": 64, "domain": "justice", "dropout": 0.3,
            "epochs": 5, "grad_accum": 4, "heads": 4, "layers": 2, "lr": 6e-05, "max_len": 128,
            "min_freq": 2, "seed": 0, "train_file": str(train_file), "val_ratio": 0.8,
            "vocab": None, "vocab_size": 8000, "wd": 0.01,
        }
        sha256 = {"train_file": hashlib.sha256(train_file.read_bytes()).hexdigest()}
        run = tmp_path / "run"
        assert main(["train", "--train-file", str(train_file), "--domain", "justice",
                     "--out-dir", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest.keys() == {"version", "created_utc", "config", "sha256"}
        assert manifest["version"] == ethikit.__version__
        assert manifest["config"] == config
        assert manifest["sha256"] == sha256

        pinned = tmp_path / "pinned.json"
        pinned.write_text(json.dumps({
            "config": config, "created_utc": "2000-01-01T00:00:00Z", "sha256": sha256,
            "version": ethikit.__version__,
        }))
        assert main(["replay", str(pinned), "--out-dir", str(tmp_path / "re")]) == 0
        assert (tmp_path / "re" / "best.ckpt").read_bytes() == (run / "best.ckpt").read_bytes()

    @pytest.mark.parametrize("extra, missing", [
        ([], ["--domain", "--train-file"]),
        (["--train-file", "missing.csv"], ["--domain"]),
        (["--domain", "justice"], ["--train-file"]),
    ])
    def test_no_domain_exit_2(self, tmp_path, capsys, extra, missing):
        # argparse refuses the run before any file is opened
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out-dir", str(out_dir), *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required" in err
        assert all(flag in err for flag in missing)
        assert not out_dir.exists()

    def test_manifest_hashes_the_bytes_read(self, tmp_path, train_file, monkeypatch):
        # the train file changes while the run trains; the manifest vouches
        # for the bytes the run read
        read = hashlib.sha256(train_file.read_bytes()).hexdigest()
        train = trainer_mod.train

        def train_then_edit(*args, **kwargs):
            result = train(*args, **kwargs)
            train_file.write_text("label,scenario\n1,edited\n", encoding="utf-8")
            return result

        monkeypatch.setattr(trainer_mod, "train", train_then_edit)
        out_dir = run_train(tmp_path, train_file)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["sha256"]["train_file"] == read

    def test_run_directory_contents(self, tmp_path, train_file):
        out_dir = run_train(tmp_path, train_file)
        for name in ("best.ckpt", "epochs.csv", "manifest.json", "vocab.txt"):
            assert (out_dir / name).exists(), name
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["lr"] == 0.01
        assert manifest["sha256"].keys() == {"train_file"}

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
        code = main(["replay", str(d1 / "manifest.json"), "--out-dir", str(replay_dir)])
        assert code == 0
        assert (d1 / "best.ckpt").read_bytes() == (replay_dir / "best.ckpt").read_bytes()
        assert (d1 / "vocab.txt").read_bytes() == (replay_dir / "vocab.txt").read_bytes()

    def test_relative_inputs_replay_from_another_directory(self, tmp_path, train_file,
                                                           vocab_file, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "train.csv").write_bytes(train_file.read_bytes())
        (sub / "vocab.txt").write_bytes(vocab_file.read_bytes())
        monkeypatch.chdir(sub)
        assert main(["train", "--train-file", "train.csv", "--domain", "justice",
                     "--vocab", "vocab.txt", "--out-dir", "run", *FAST_MODEL_FLAGS]) == 0
        config = json.loads((sub / "run" / "manifest.json").read_text())["config"]
        assert config["train_file"] == str(sub.resolve() / "train.csv")
        assert config["vocab"] == str(sub.resolve() / "vocab.txt")
        monkeypatch.chdir(tmp_path)
        assert main(["replay", "sub/run/manifest.json", "--out-dir", "replayed"]) == 0
        assert (tmp_path / "replayed" / "best.ckpt").read_bytes() == \
            (sub / "run" / "best.ckpt").read_bytes()

    def test_replay_of_changed_input_exit_1(self, tmp_path, train_file, capsys):
        d1 = run_train(tmp_path, train_file, "run1")
        data = bytearray(train_file.read_bytes())
        data[-2] ^= 0x01
        train_file.write_bytes(bytes(data))
        code = _replay(tmp_path, d1 / "manifest.json")
        assert code == 1
        err = capsys.readouterr().err
        assert str(train_file) in err and "changed" in err
        assert not (tmp_path / "replayed" / "best.ckpt").exists()

    def test_replay_under_other_version_exit_1(self, tmp_path, train_file, capsys):
        d1 = run_train(tmp_path, train_file, "run1")
        manifest = json.loads((d1 / "manifest.json").read_text())
        manifest["version"] = "0.0.0"
        (d1 / "manifest.json").write_text(json.dumps(manifest))
        code = _replay(tmp_path, d1 / "manifest.json")
        assert code == 1
        assert "0.0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["config", "sha256", "config.seed", "config.val_ratio"])
    def test_replay_manifest_missing_key_exit_2(self, tmp_path, train_file, capsys, key):
        d1 = run_train(tmp_path, train_file, "run1")
        manifest = json.loads((d1 / "manifest.json").read_text())
        *parents, name = key.split(".")
        obj = manifest
        for parent in parents:
            obj = obj[parent]
        del obj[name]
        (d1 / "manifest.json").write_text(json.dumps(manifest))
        code = _replay(tmp_path, d1 / "manifest.json")
        assert code == 2
        assert repr(name) in capsys.readouterr().err
        assert not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda config: config.update(bogus=1), "'bogus'"),
        (lambda config: config.update(epochs="5"), "config.epochs is '5', not int"),
        (lambda config: config.update(layers=True), "config.layers is True, not int"),
        (lambda config: config.update(domain="nope"), "'nope'"),
        # json.dumps writes no repeated key: this one is renamed in the text
        (lambda config: config.update(seed_again=5), "repeats key 'seed'"),
    ], ids=["unknown-key", "mistyped-value", "bool-for-number", "unknown-domain",
            "repeated-key"])
    def test_replay_malformed_config_exit_2(self, tmp_path, train_file, capsys, edit, named):
        d1 = run_train(tmp_path, train_file, "run1")
        manifest = json.loads((d1 / "manifest.json").read_text())
        edit(manifest["config"])
        (d1 / "manifest.json").write_text(json.dumps(manifest).replace('"seed_again"', '"seed"'))
        capsys.readouterr()
        code = _replay(tmp_path, d1 / "manifest.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize("text", ["[]", "3", '"config"', "null"])
    def test_replay_manifest_not_an_object_exit_2(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text, encoding="utf-8")
        assert _replay(tmp_path, manifest) == 2
        assert "manifest is not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "replayed").exists()

    def test_replay_with_vocab_file(self, tmp_path, train_file, vocab_file):
        d1 = run_train(tmp_path, train_file, vocab=vocab_file)
        manifest = json.loads((d1 / "manifest.json").read_text())
        assert manifest["config"]["vocab"] == str(vocab_file)
        assert manifest["sha256"].keys() == {"train_file", "vocab"}
        assert _replay(tmp_path, d1 / "manifest.json") == 0
        assert (d1 / "best.ckpt").read_bytes() == (tmp_path / "replayed" / "best.ckpt").read_bytes()

    def test_replay_of_changed_vocab_exit_1(self, tmp_path, train_file, vocab_file, capsys):
        d1 = run_train(tmp_path, train_file, vocab=vocab_file)
        vocab_file.write_text(vocab_file.read_text() + "zzz\n")
        assert _replay(tmp_path, d1 / "manifest.json") == 1
        err = capsys.readouterr().err
        assert str(vocab_file) in err and "changed" in err
        assert not (tmp_path / "replayed" / "best.ckpt").exists()

    @pytest.mark.parametrize("edit, code, named", [
        (lambda m, other: m["config"].update(train_file=str(other)), 1, "other.csv (train_file)"),
        (lambda m, other: m["config"].update(vocab=str(other)), 1, "other.csv (vocab)"),
        (lambda m, other: m["config"].update(vocab=None), 2, "unknown keys ['vocab']"),
        (lambda m, other: m["sha256"].pop("vocab"), 2, "lacks ['vocab']"),
        (lambda m, other: m["sha256"].update(extra=m["sha256"]["train_file"]), 2,
         "unknown keys ['extra']"),
    ], ids=["config-train-file", "config-vocab-file", "config-drops-vocab",
            "sha256-lacks-vocab", "sha256-adds-file"])
    def test_replay_of_unhashed_input(self, tmp_path, train_file, vocab_file, capsys,
                                      edit, code, named):
        # A replay reads only files whose hash it checked: a file the config
        # names in place of the hashed one does not match its hash (exit 1),
        # and a sha256 object that does not hash exactly the files the config
        # names is refused outright (exit 2).
        d1 = run_train(tmp_path, train_file, vocab=vocab_file)
        other = tmp_path / "other.csv"
        serialize_split(make_separable_examples(40, seed=22), default_specs()["justice"], other)
        manifest = json.loads((d1 / "manifest.json").read_text())
        edit(manifest, other)
        (d1 / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert _replay(tmp_path, d1 / "manifest.json") == code
        err = capsys.readouterr().err
        assert ("config error" if code == 2 else "changed") in err and named in err
        assert not (tmp_path / "replayed").exists()

    def test_replay_of_nested_manifest_exit_2(self, tmp_path, train_file, capsys):
        # the form manifests took before each setting was recorded once, by flag
        manifest = tmp_path / "nested.json"
        manifest.write_text(json.dumps({
            "command": "train", "created_utc": "2000-01-01T00:00:00Z", "seed": 0,
            "tool": "ethikit", "version": ethikit.__version__,
            "config": {
                "batch_size": 32, "domain": "justice", "epochs": 5, "min_freq": 2,
                "model": {"d_ff": 256, "d_model": 64, "dropout_p": 0.3, "max_len": 128,
                          "n_heads": 4, "n_layers": 2, "seed": 0},
                "optim": {"eta0": 6e-05, "n_acc": 4, "weight_decay": 0.01},
                "train_file": str(train_file), "val_ratio": 0.8, "vocab_file": None,
                "vocab_size": 8000,
            },
            "inputs": {"train_file": {
                "path": str(train_file),
                "sha256": hashlib.sha256(train_file.read_bytes()).hexdigest()}},
        }))
        assert _replay(tmp_path, manifest) == 2
        assert "manifest has no 'sha256' object" in capsys.readouterr().err
        assert not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize("extra", [
        ["--epochs", "3"], ["--domain", "virtue"], ["--train-file", "nope.csv"],
        ["--vocab", "v.txt"], ["--val-ratio", "0.5"],
        ["--epochs", "3", "--domain", "virtue", "--train-file", "nope.csv"],
    ])
    def test_replay_with_other_settings_exit_2(self, tmp_path, capsys, monkeypatch, extra):
        # replay takes every setting from its manifest, so argparse refuses any
        # other flag before the manifest is read
        calls = []
        monkeypatch.setattr("ethikit.cli._verified_replay_settings",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            _replay(tmp_path, tmp_path / "manifest.json", *extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert all(flag in err for flag in extra if flag.startswith("--"))
        assert calls == []
        assert not (tmp_path / "replayed").exists()

    def test_vocab_file_with_tokenizer_flags_exit_2(self, tmp_path, train_file, vocab_file,
                                                     capsys):
        # a vocab file fixes the vocabulary, so these flags would change nothing
        out_dir = tmp_path / "run"
        code = main(["train", "--train-file", str(train_file), "--domain", "justice",
                     "--out-dir", str(out_dir), "--vocab", str(vocab_file),
                     "--vocab-size", "99", "--min-freq", "7"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--vocab-size --min-freq" in err
        assert not out_dir.exists()

    def test_vocab_file_with_default_tokenizer_flags(self, tmp_path, train_file, vocab_file):
        # a flag given at its default value changes nothing, so it is no conflict
        assert main(["train", "--train-file", str(train_file), "--domain", "justice",
                     "--out-dir", str(tmp_path / "run"), "--vocab", str(vocab_file),
                     *FAST_MODEL_FLAGS, "--vocab-size", "8000", "--min-freq", "2"]) == 0

    def test_split_without_training_rows_leaves_no_run_directory(self, tmp_path, fixtures_dir,
                                                                  capsys, monkeypatch):
        import ethikit.tokenizer as tok_mod

        calls = []
        monkeypatch.setattr(tok_mod, "train_vocab", lambda *a, **k: calls.append(a))
        out_dir = tmp_path / "r1"
        # 4 rows at a train share of 0.05 leave no row to train on
        assert main(["train", "--train-file", str(fixtures_dir / "justice_test.csv"),
                     "--domain", "justice", "--out-dir", str(out_dir), "--epochs", "1",
                     "--val-ratio", "0.05", "--vocab-size", "300", "--min-freq", "1"]) == 1
        err = capsys.readouterr().err
        assert "cannot split 4 example(s) at ratio 0.05" in err
        assert "training set would be empty" in err
        assert calls == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, flag", [
        ("vocab.txt", "--vocab"), ("epochs.csv", "--train-file"), ("manifest.json", "manifest"),
    ])
    def test_run_file_is_input_exit_1(self, tmp_path, train_file, vocab_file, capsys,
                                      monkeypatch, name, flag):
        out_dir = tmp_path / "r"
        target = out_dir / name
        if flag == "manifest":
            run_train(tmp_path, train_file, "r")
            argv = ["replay", str(target)]
        else:
            out_dir.mkdir()
            inputs = {"--train-file": train_file, "--vocab": vocab_file}
            # without its final newline, a vocab read in would be written back changed
            target.write_bytes(inputs[flag].read_bytes().rstrip(b"\n"))
            inputs[flag] = target
            argv = ["train", "--domain", "justice", *FAST_MODEL_FLAGS]
            for input_flag, path in inputs.items():
                argv += [input_flag, str(path)]
        before = target.read_bytes()
        calls = []
        monkeypatch.setattr(trainer_mod, "train", lambda *a, **k: calls.append(a))
        # the run directory is named relative to the working directory, the input in full
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main([*argv, "--out-dir", "r"]) == 1
        err = capsys.readouterr().err
        assert f"{Path('r') / name}: --out-dir would overwrite the {flag} input" in err
        assert calls == []
        assert target.read_bytes() == before

    @pytest.mark.parametrize("name", ["vocab.txt", "best.ckpt", "epochs.csv", "manifest.json"])
    def test_run_file_is_directory_exit_1(self, tmp_path, train_file, capsys, monkeypatch,
                                          name):
        import ethikit.tokenizer as tok_mod

        calls = []
        monkeypatch.setattr(tok_mod, "train_vocab", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(trainer_mod, "train", lambda *a, **k: calls.append(a))
        out_dir = tmp_path / "r"
        (out_dir / name).mkdir(parents=True)
        assert main(["train", "--train-file", str(train_file), "--domain", "justice",
                     "--out-dir", str(out_dir), *FAST_TRAIN_FLAGS]) == 1
        assert f"{out_dir / name}: is a directory" in capsys.readouterr().err
        assert calls == []
        assert sorted(p.name for p in out_dir.iterdir()) == [name]


class TestSparkline:
    def test_flat_and_one_epoch_curves_are_visible(self):
        mark = _sparkline([0.5])
        assert len(mark) == 1 and not mark.isspace()
        assert _sparkline([0.5] * 5) == mark * 5

    def test_marks_rise_with_the_values(self):
        line = _sparkline([0.1, 0.3, 0.2, 0.9, 0.5])
        assert len(line) == 5 and not any(ch.isspace() for ch in line)
        levels = [_sparkline([0.1, 0.9, v])[2] for v in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert levels == sorted(set(levels), key=levels.index)  # distinct, in order
        assert line[0] == levels[0] and line[3] == levels[-1]

    def test_train_prints_one_mark_per_epoch(self, tmp_path, train_file, capsys):
        run_train(tmp_path, train_file)
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("val_acc per epoch: "))
        marks = line.removeprefix("val_acc per epoch: ").split(" (final")[0]
        assert len(marks) == 2 and not any(ch.isspace() for ch in marks)


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

    def test_one_label_file_reports_nan_auc(self, tmp_path, train_file, capsys):
        # A hard split can hold one label value, which leaves AUC undefined.
        out_dir = run_train(tmp_path, train_file)
        positives = [ex for ex in make_separable_examples(40, seed=21) if ex.label == 1]
        data = tmp_path / "hard.csv"
        serialize_split(positives, default_specs()["justice"], data)
        report_csv = tmp_path / "report.csv"
        with pytest.warns(DegenerateMetricWarning, match="auc"):
            code = main([
                "evaluate", "--checkpoint", str(out_dir / "best.ckpt"),
                "--data", str(data), "--domain", "justice", "--report", str(report_csv),
            ])
        assert code == 0
        assert "auc=nan" in capsys.readouterr().out
        assert report_csv.read_text().splitlines()[1].endswith(",nan")
        assert main(["report", "--inputs", str(report_csv)]) == 0
        assert "ours" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:-1], lambda lines: [*lines, "zzzz"],
    ], ids=["fewer-tokens", "more-tokens"])
    def test_vocab_of_another_size_exit_1(self, tmp_path, train_file, capsys, monkeypatch,
                                          edit):
        import ethikit.dataset as dataset_mod

        out_dir = run_train(tmp_path, train_file)
        ckpt = out_dir / "best.ckpt"
        tokens = (out_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
        vocab = tmp_path / "other.txt"
        vocab.write_text("\n".join(edit(tokens)) + "\n", encoding="utf-8")
        calls = []
        monkeypatch.setattr(dataset_mod, "load_split", lambda *a, **k: calls.append(a))
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                     "--data", str(train_file), "--domain", "justice",
                     "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert (f"{vocab} holds {len(edit(tokens))} tokens, but {ckpt} was trained on "
                f"vocab_size={len(tokens)}") in err
        assert calls == []
        assert not report.exists()

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
    def run_filter_hard(self, tmp_path, *extra: str) -> Path:
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
            "--max-len", "16", *extra,
        ])
        assert code == 0
        return out

    def test_writes_hard_subset_and_scores(self, tmp_path, capsys):
        out = self.run_filter_hard(tmp_path, "--vocab-size", "300")
        hard_rows = out.read_text().strip().splitlines()
        assert hard_rows[0] == "label,scenario"
        assert 2 <= len(hard_rows) - 1 <= 32
        scores = (out.with_suffix(".scores.csv")).read_text().strip().splitlines()
        assert scores[0] == "example_id,score"
        assert len(scores) == 33

    def test_with_vocab_file(self, tmp_path, vocab_file):
        out = self.run_filter_hard(tmp_path, "--vocab", str(vocab_file))
        assert out.read_text().startswith("label,scenario\n")
        assert len(out.with_suffix(".scores.csv").read_text().splitlines()) == 33

    def test_vocab_file_with_vocab_size_exit_2(self, tmp_path, train_file, vocab_file, capsys,
                                               monkeypatch):
        import ethikit.hard_filter as hard_mod

        calls = []
        monkeypatch.setattr(hard_mod, "train_proxies", lambda *a, **k: calls.append(a))
        out = tmp_path / "hard.csv"
        assert main(["filter-hard", "--dev", str(train_file), "--pool", str(train_file),
                     "--domain", "justice", "--out", str(out), "--vocab", str(vocab_file),
                     "--vocab-size", "300"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--vocab-size" in err
        assert calls == [] and not out.exists()

    def test_virtue_packed_pairs(self, tmp_path, fixtures_dir, capsys):
        from ethikit.hard_filter import hard_indices

        # virtue packs both texts into one column, the one such layout
        pool = fixtures_dir / "virtue_test.csv"
        out = tmp_path / "hard.csv"
        assert main(["filter-hard", "--dev", str(pool), "--pool", str(pool),
                     "--domain", "virtue", "--out", str(out), "--proxies", "1",
                     "--epochs", "1", "--batch-size", "4", "--max-len", "32",
                     "--vocab-size", "300"]) == 0
        spec = default_specs()["virtue"]
        rows = load_split(pool, spec)
        score_lines = out.with_suffix(".scores.csv").read_text().splitlines()[1:]
        scores = [float(line.split(",")[1]) for line in score_lines]
        assert len(scores) == len(rows)
        kept = [rows[i] for i in hard_indices(scores, 0.5)]
        assert load_split(out, spec) == kept
        assert f"kept {len(kept)} hard of {len(rows)} pool examples" in capsys.readouterr().out


class TestBadNumbers:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--d-model", "0"]),
        ("train", ["--d-ff", "0"]),
        ("train", ["--layers", "-1"]),
        ("filter-hard", ["--proxies", "0"]),
    ])
    def test_config_error_exit_2(self, tmp_path, train_file, capsys, command, flags):
        if command == "train":
            argv = ["train", "--train-file", str(train_file), "--domain", "justice",
                    "--out-dir", str(tmp_path / "bad"), *FAST_TRAIN_FLAGS]
        else:
            argv = ["filter-hard", "--dev", str(train_file), "--pool", str(train_file),
                    "--domain", "justice", "--out", str(tmp_path / "hard.csv"),
                    "--vocab-size", "300"]
        capsys.readouterr()
        assert main([*argv, *flags]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--max-len", "1"], ["--proxies", "0"], ["--vocab-size", "3"],
                  ["--quantile", "0"], ["--quantile", "1.5"]]
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

    def test_train_checks_val_ratio_before_reading(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["train", "--train-file", str(tmp_path / "missing.csv"),
                     "--domain", "justice", "--out-dir", str(out_dir), "--val-ratio", "1.5"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

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
        code = main(["replay", str(tmp_path), "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "is a directory" in capsys.readouterr().err

    def test_replay_manifest_not_json(self, tmp_path, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text("label,scenario\n", encoding="utf-8")
        code = main(["replay", str(manifest), "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert f"{manifest}: manifest is not JSON" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_train_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["train", "--train-file", str(missing), "--domain", "justice",
                     "--out-dir", str(tmp_path / "run"), *FAST_TRAIN_FLAGS])
        assert code == 1
        assert f"{missing}: no such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_utf8_build_vocab_input(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes("caf\xe9 bar\n".encode("latin-1"))
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--input", str(corpus), "--out", str(out)]) == 1
        assert f"{corpus}: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_as_build_vocab_input(self, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--input", str(tmp_path), "--out", str(out)]) == 1
        assert "is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["normalize"], ["build-vocab", "--input", "-"]])
    def test_non_utf8_stdin(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdin", _stdin(b"caf\xe9 bar\n"))
        out = tmp_path / "vocab.txt"
        if argv[0] == "build-vocab":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "<stdin>: not UTF-8" in captured.err
        assert not out.exists()

    def test_non_utf8_report_input(self, tmp_path, latin1_csv, capsys):
        assert main(["report", "--inputs", str(latin1_csv)]) == 1
        assert f"{latin1_csv}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_csv_field_over_limit(self, tmp_path, capsys, command):
        # a field past the csv module's size limit; each command skips the
        # other's columns, so both read past the header
        path = tmp_path / "big.csv"
        path.write_text("label,scenario,domain,accuracy,precision,recall,f1,auc\n1,"
                        + "x" * 200_000 + ",justice,1,1,1,1,1\n", encoding="utf-8")
        argv = {"train": ["train", "--train-file", str(path), "--domain", "justice",
                          "--out-dir", str(tmp_path / "run"), *FAST_TRAIN_FLAGS],
                "report": ["report", "--inputs", str(path)]}[command]
        assert main(argv) == 1
        assert f"{path} line 2: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_directory_as_report_input(self, tmp_path, capsys):
        assert main(["report", "--inputs", str(tmp_path)]) == 1
        assert "is a directory" in capsys.readouterr().err

    def test_non_utf8_vocab(self, tmp_path, train_file, capsys):
        out_dir = run_train(tmp_path, train_file)
        vocab = out_dir / "vocab.txt"
        vocab.write_bytes(vocab.read_bytes() + "caf\xe9\n".encode("latin-1"))
        code = main(["evaluate", "--checkpoint", str(out_dir / "best.ckpt"),
                     "--data", str(train_file), "--domain", "justice"])
        assert code == 1
        assert f"{vocab}: not UTF-8" in capsys.readouterr().err


class TestUnusableOutputs:
    """An output path that cannot be written ends in exit 1, naming the path."""

    @pytest.mark.parametrize("argv, out_is_dir", [
        (["build-vocab", "--input", "{data}", "--out", "{out}"], True),
        (["train", "--train-file", "{data}", "--domain", "justice", "--out-dir", "{out}",
          *FAST_TRAIN_FLAGS], False),
        (["evaluate", "--checkpoint", "{ckpt}", "--data", "{data}", "--domain", "justice",
          "--report", "{out}"], True),
        (["filter-hard", "--dev", "{data}", "--pool", "{data}", "--domain", "justice",
          "--out", "{out}", "--proxies", "1", "--epochs", "1", "--batch-size", "8",
          "--max-len", "16", "--vocab-size", "300"], True),
    ], ids=["build-vocab", "train", "evaluate", "filter-hard"])
    def test_exit_1_naming_the_path(self, tmp_path, train_file, capsys, argv, out_is_dir):
        out = tmp_path / "out"
        if out_is_dir:
            out.mkdir()
        else:
            out.write_text("a file, not a run directory\n")
        ckpt = run_train(tmp_path, train_file) / "best.ckpt" if "{ckpt}" in argv else None
        assert main([arg.format(data=train_file, out=out, ckpt=ckpt) for arg in argv]) == 1
        assert f"{out}: " in capsys.readouterr().err


class TestOutputsCheckedFirst:
    """An output path that cannot be written fails before any model is trained or scored."""

    @pytest.mark.parametrize("flag, target", [
        ("--report", "dir"), ("--scores", "dir"), ("--report", "missing/eval.csv"),
    ])
    def test_evaluate_scores_nothing(self, tmp_path, train_file, capsys, monkeypatch,
                                     flag, target):
        import ethikit.trainer as trainer_mod

        ckpt = run_train(tmp_path, train_file) / "best.ckpt"
        (tmp_path / "dir").mkdir()
        calls = []
        monkeypatch.setattr(trainer_mod, "evaluate", lambda *a, **k: calls.append(a))
        out = tmp_path / target
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(train_file),
                     "--domain", "justice", flag, str(out)]) == 1
        assert f"{out}: " in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("flags, named", [
        (["--out", "{dir}"], "{dir}"),
        (["--out", "{tmp}/h.csv", "--scores-out", "{dir}"], "{dir}"),
        (["--out", "{tmp}/missing/h.csv"], "{tmp}/missing/h.csv"),
        # the default scores path sits beside --out
        (["--out", "{tmp}/h.csv"], "{tmp}/h.scores.csv"),
    ], ids=["out-dir", "scores-out-dir", "out-missing-parent", "default-scores-dir"])
    def test_filter_hard_trains_no_proxy(self, tmp_path, train_file, capsys, monkeypatch,
                                         flags, named):
        import ethikit.hard_filter as hard_mod

        (tmp_path / "dir").mkdir()
        (tmp_path / "h.scores.csv").mkdir()
        calls = []
        monkeypatch.setattr(hard_mod, "train_proxies", lambda *a, **k: calls.append(a))
        fill = dict(tmp=tmp_path, dir=tmp_path / "dir")
        assert main(["filter-hard", "--dev", str(train_file), "--pool", str(train_file),
                     "--domain", "justice", *(f.format(**fill) for f in flags)]) == 1
        assert f"{Path(named.format(**fill))}: " in capsys.readouterr().err
        assert calls == []

    def test_evaluate_report_and_scores_one_file(self, tmp_path, train_file, capsys,
                                                  monkeypatch):
        import ethikit.trainer as trainer_mod

        ckpt = run_train(tmp_path, train_file) / "best.ckpt"
        calls = []
        monkeypatch.setattr(trainer_mod, "evaluate", lambda *a, **k: calls.append(a))
        # one file named twice, once relative to the working directory
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(train_file),
                     "--domain", "justice", "--report", str(tmp_path / "p.csv"),
                     "--scores", "p.csv"]) == 1
        assert "p.csv: --report and --scores name the same file" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "p.csv").exists()

    def test_filter_hard_out_and_scores_one_file(self, tmp_path, train_file, capsys,
                                                 monkeypatch):
        import ethikit.hard_filter as hard_mod

        calls = []
        monkeypatch.setattr(hard_mod, "train_proxies", lambda *a, **k: calls.append(a))
        out = tmp_path / "x.csv"
        assert main(["filter-hard", "--dev", str(train_file), "--pool", str(train_file),
                     "--domain", "justice", "--out", str(out), "--scores-out", str(out)]) == 1
        assert f"{out}: --out and --scores-out name the same file" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_permission_denied(self, tmp_path, train_file, capsys, monkeypatch):
        import ethikit.hard_filter as hard_mod

        calls = []
        monkeypatch.setattr(hard_mod, "train_proxies", lambda *a, **k: calls.append(a))
        # a test run as root may write anywhere, so the refusal is simulated
        monkeypatch.setattr("ethikit.cli.os.access", lambda *a, **k: False)
        out = tmp_path / "h.csv"
        assert main(["filter-hard", "--dev", str(train_file), "--pool", str(train_file),
                     "--domain", "justice", "--out", str(out)]) == 1
        assert f"{out}: permission denied" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_build_vocab_out_is_input(self, tmp_path, train_file, capsys, monkeypatch):
        import ethikit.tokenizer as tok_mod

        before = train_file.read_bytes()
        calls = []
        monkeypatch.setattr(tok_mod, "train_vocab", lambda *a, **k: calls.append(a))
        assert main(["build-vocab", "--input", str(train_file), "--out", str(train_file),
                     "--vocab-size", "50"]) == 1
        assert f"{train_file}: --out would overwrite the --input input" in capsys.readouterr().err
        assert calls == []
        assert train_file.read_bytes() == before

    @pytest.mark.parametrize("out_flag, in_flag, vocab_given", [
        ("--scores", "--data", True), ("--report", "--checkpoint", True),
        ("--scores", "--vocab", True),
        # without --vocab, the vocab beside the checkpoint is the input
        ("--scores", "--vocab", False),
    ])
    def test_evaluate_output_is_input(self, tmp_path, train_file, capsys, monkeypatch,
                                      out_flag, in_flag, vocab_given):
        import ethikit.trainer as trainer_mod

        run = run_train(tmp_path, train_file)
        inputs = {"--checkpoint": run / "best.ckpt", "--data": train_file,
                  "--vocab": run / "vocab.txt"}
        before = inputs[in_flag].read_bytes()
        calls = []
        monkeypatch.setattr(trainer_mod, "evaluate", lambda *a, **k: calls.append(a))
        # the output is named relative to the working directory, the input in full
        monkeypatch.chdir(inputs[in_flag].parent)
        argv = ["evaluate", "--domain", "justice", out_flag, inputs[in_flag].name]
        for flag, path in inputs.items():
            if flag != "--vocab" or vocab_given:
                argv += [flag, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{inputs[in_flag].name}: {out_flag} would overwrite the {in_flag} input" in err
        assert calls == []
        assert inputs[in_flag].read_bytes() == before

    @pytest.mark.parametrize("out_flag, in_flag", [
        ("--out", "--pool"), ("--scores-out", "--dev"), ("--out", "--vocab"),
    ])
    def test_filter_hard_output_is_input(self, tmp_path, train_file, vocab_file, capsys,
                                         monkeypatch, out_flag, in_flag):
        import ethikit.hard_filter as hard_mod

        dev = tmp_path / "dev.csv"
        dev.write_bytes(train_file.read_bytes())
        inputs = {"--dev": dev, "--pool": train_file, "--vocab": vocab_file}
        before = inputs[in_flag].read_bytes()
        calls = []
        monkeypatch.setattr(hard_mod, "train_proxies", lambda *a, **k: calls.append(a))
        outputs = {"--out": tmp_path / "h.csv", out_flag: inputs[in_flag]}
        argv = ["filter-hard", "--domain", "justice"]
        for flag, path in (*inputs.items(), *outputs.items()):
            argv += [flag, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{inputs[in_flag]}: {out_flag} would overwrite the {in_flag} input" in err
        assert calls == []
        assert inputs[in_flag].read_bytes() == before


class TestNonFiniteTraining:
    def test_nan_gradient_exit_1_without_checkpoint(self, tmp_path, train_file,
                                                   capsys, monkeypatch):
        import ethikit.trainer as trainer_mod

        real_backward = trainer_mod.backward
        calls = []

        def nan_on_third(params, cache, dl, total):
            real_backward(params, cache, dl, total)
            calls.append(1)
            if len(calls) == 3:
                # backward adds into the optimizer's sum, so the NaN lands there
                total["layers.0.ff.w1"][0, 0] = np.nan
            return total

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
        # evaluate writes a NaN AUC for a split of one label
        path.write_text("domain,accuracy,precision,recall,f1,auc\njustice,0.75,0.7,0.7,0.7,nan\n",
                        encoding="utf-8")
        assert main(["report", "--inputs", str(path)]) == 0
        assert "75.00" in capsys.readouterr().out

    def test_malformed_report_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n", encoding="utf-8")
        assert main(["report", "--inputs", str(path)]) == 1
        # an accuracy that is no fraction
        for cell in ("inf", "nan", "-0.5", "1.5"):
            path.write_text(f"domain,accuracy,precision,recall,f1,auc\njustice,{cell},0,0,0,0\n",
                            encoding="utf-8")
            assert main(["report", "--inputs", str(path)]) == 1
            assert f"justice accuracy {float(cell)!r} is not in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, named", [
        ("ethics,0.5,0.5,0.5,0.5,0.5\n", "unknown domain 'ethics'"),
        ("justice,high,0.5,0.5,0.5,0.5\n", "non-numeric cell"),
        ("justice,0.9,0.9,0.9,0.9,0.9\njustice,0.1,0.1,0.1,0.1,0.1\n",
         "justice is in rows 2 and 3"),
        ("", "no domain accuracies to report"),
    ], ids=["unknown-domain", "non-numeric-cell", "repeated-domain", "no-rows"])
    def test_bad_rows_exit_1(self, tmp_path, capsys, rows, named):
        path = tmp_path / "eval.csv"
        path.write_text("domain,accuracy,precision,recall,f1,auc\n" + rows, encoding="utf-8")
        assert main(["report", "--inputs", str(path)]) == 1
        assert named in capsys.readouterr().err

    def test_domain_in_two_inputs_exit_1(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, accuracy in zip(paths, (0.9, 0.1)):
            path.write_text("domain,accuracy,precision,recall,f1,auc\n"
                            f"justice,{accuracy},0.5,0.5,0.5,0.5\n", encoding="utf-8")
        assert main(["report", "--inputs", *map(str, paths)]) == 1
        assert f"justice is in both {paths[0]} and {paths[1]}" in capsys.readouterr().err

    def test_extra_columns_skipped(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text(
            "domain,exact_match,accuracy,precision,recall,f1,auc\n"
            "justice,0.5,0.75,0.7,0.7,0.7,0.8\n",
            encoding="utf-8",
        )
        assert main(["report", "--inputs", str(path)]) == 0
        assert "75.00" in capsys.readouterr().out
