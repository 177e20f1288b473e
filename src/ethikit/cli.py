"""Command-line entry point wiring the toolkit into reproducible runs.

Subcommands: normalize, build-vocab, train, replay, evaluate, filter-hard,
report. Every training run writes a manifest (each train setting by flag, and
the hash of each input file) sufficient to replay it bit-exactly via
``replay``, which first checks the tool version and re-hashes every recorded
input.

Exit codes: 0 success, 1 runtime error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import ethikit
from ethikit import dataset as dataset_mod
from ethikit import hard_filter as hard_mod
from ethikit import metrics as metrics_mod
from ethikit import normalize as norm_mod
from ethikit import report as report_mod
from ethikit import tokenizer as tok_mod
from ethikit import trainer as trainer_mod
from ethikit.batching import Example, encode_examples
from ethikit.dataset import DOMAINS
from ethikit.errors import (ConfigError, EthikitError, MalformedReport, NotJson, ReplayMismatch,
                            ShapeMismatch, UnusablePath, reading)
from ethikit.model import ModelConfig, load_checkpoint, save_checkpoint

_SPARK_LEVELS = ".:-=+*#%@"  # lowest to highest; each is visible

# Each config-backed flag, by its argparse dest, names the config field it
# sets. The flag takes its default, and its type, from a config instance.
_MODEL_FLAGS = {"max_len": "max_len", "dropout": "dropout_p", "layers": "n_layers",
                "heads": "n_heads", "d_model": "d_model", "d_ff": "d_ff", "seed": "seed"}
_OPTIM_FLAGS = {"lr": "eta0", "wd": "weight_decay", "grad_accum": "n_acc"}
_TRAIN_FLAGS = {"epochs": "epochs", "batch_size": "batch_size"}
_TOKENIZER_FLAGS = {"vocab_size": "vocab_size", "min_freq": "min_frequency"}
_FILTER_FLAGS = {"quantile": "keep_quantile", "proxies": "n_proxies"}

# The vocab size is known only once the vocab is, so the smallest valid one
# stands in until then.
_TRAIN_DEFAULTS = trainer_mod.TrainConfig(model=ModelConfig(vocab_size=len(tok_mod.SPECIAL_TOKENS)))

# The train settings that name input files. A manifest records each one's
# hash, and a replay reads only the files it hashed.
_INPUTS = ("train_file", "vocab")

# The train settings, by flag dest, that a manifest's config records: all a
# replay needs, each once.
_RECORDED = ("domain", *_INPUTS, "val_ratio",
             *_TOKENIZER_FLAGS, *_TRAIN_FLAGS, *_MODEL_FLAGS, *_OPTIM_FLAGS)


def _fields(values: dict, table: dict) -> dict:
    """The config fields that ``table``'s flags set, for each flag in ``values``."""
    return {field: values[dest] for dest, field in table.items() if dest in values}


def _normalized(examples) -> list[Example]:
    """``examples`` with every text normalized by the default table."""
    return [Example(text_a=norm_mod.normalize(ex.text_a),
                    text_b=None if ex.text_b is None else norm_mod.normalize(ex.text_b),
                    label=ex.label)
            for ex in examples]


def _configs(settings: dict, train: trainer_mod.TrainConfig, tok: tok_mod.TokenizerConfig):
    """The training and tokenizer configs that ``settings``, keyed by flag dest, set over
    ``train`` and ``tok``.

    The tokenizer config is None when the settings name a vocab file, which
    then must leave every tokenizer setting at its value in ``tok``. Each
    replace checks its config, so a bad setting raises ConfigError here.
    """
    train = dataclasses.replace(
        train,
        model=dataclasses.replace(train.model, **_fields(settings, _MODEL_FLAGS)),
        optim=dataclasses.replace(train.optim, **_fields(settings, _OPTIM_FLAGS)),
        **_fields(settings, _TRAIN_FLAGS),
    )
    if settings["vocab"]:
        inert = ["--" + dest.replace("_", "-") for dest, field in _TOKENIZER_FLAGS.items()
                 if dest in settings and settings[dest] != getattr(tok, field)]
        if inert:
            raise ConfigError(f"--vocab fixes the vocabulary, so {' '.join(inert)} "
                              "would have no effect; drop them")
        return train, None
    return train, dataclasses.replace(tok, **_fields(settings, _TOKENIZER_FLAGS))


def _learned_vocab(cfg: tok_mod.TokenizerConfig, examples) -> tok_mod.Vocab:
    """The vocab ``cfg`` learns from the texts of ``examples``."""
    corpus = [ex.text_a for ex in examples]
    corpus += [ex.text_b for ex in examples if ex.text_b is not None]
    return tok_mod.train_vocab(corpus, cfg)


def _sized(cfg: trainer_mod.TrainConfig, vocab: tok_mod.Vocab) -> trainer_mod.TrainConfig:
    """``cfg`` with its model's vocab size set to that of ``vocab``."""
    return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, vocab_size=len(vocab)))


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; a path that cannot be written raises UnusablePath."""
    with reading(path):
        Path(path).write_text(text, encoding="utf-8")


def _check_outputs(outputs: dict, inputs: dict) -> None:
    """Raise UnusablePath unless each path in ``outputs``, keyed by its flag,
    could be written as a file that no other output and none of ``inputs``,
    keyed the same way, names; None is no path.

    Commands check their outputs before any work, so a path that cannot be
    written, that two outputs share or that would overwrite an input, does
    not cost a run.
    """
    input_of = {Path(path).resolve(): flag for flag, path in inputs.items() if path is not None}
    flag_of = {}
    for flag, path in outputs.items():
        if path is None:
            continue
        path = Path(path)
        if path.is_dir():
            raise UnusablePath(f"{path}: is a directory, not a file")
        if not path.parent.is_dir():
            raise UnusablePath(f"{path}: {path.parent} is not a directory")
        if not os.access(path.parent, os.W_OK) or (path.exists() and not os.access(path, os.W_OK)):
            raise UnusablePath(f"{path}: permission denied")
        resolved = path.resolve()
        if resolved in input_of:
            raise UnusablePath(f"{path}: {flag} would overwrite the {input_of[resolved]} input")
        first = flag_of.setdefault(resolved, flag)
        if first != flag:
            raise UnusablePath(f"{path}: {first} and {flag} name the same file")


def _sparkline(values) -> str:
    """One mark per value, scaled from the lowest to the highest; a flat curve,
    one value included, is all middle marks."""
    lo, hi = min(values), max(values)
    top = len(_SPARK_LEVELS) - 1
    if hi == lo:
        return _SPARK_LEVELS[top // 2] * len(values)
    return "".join(_SPARK_LEVELS[int((v - lo) / (hi - lo) * top)] for v in values)


# --- normalize ---

def _read_lines(path: str) -> list[str]:
    """The file at ``path``, or standard input for '-', decoded strictly as UTF-8 and
    split at each newline only (a lone carriage return stays in its line)."""
    with reading("<stdin>" if path == "-" else path):
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        text = data.decode("utf-8")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def cmd_normalize(args) -> int:
    for line in _read_lines("-"):
        sys.stdout.write(norm_mod.normalize(line) + "\n")
    return 0


# --- build-vocab ---

def cmd_build_vocab(args) -> int:
    _check_outputs({"--out": args.out}, {"--input": None if args.input == "-" else args.input})
    # train, evaluate and filter-hard encode normalized text, so the vocab is
    # learned from the same.
    lines = [norm_mod.normalize(line) for line in _read_lines(args.input)]
    cfg = tok_mod.TokenizerConfig(**_fields(vars(args), _TOKENIZER_FLAGS))
    vocab = tok_mod.train_vocab(lines, cfg)
    tok_mod.save_vocab(vocab, args.out)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


# --- train ---

def _input_hashes(settings: dict) -> dict[str, str]:
    """The sha256 of each input file that ``settings`` name, by setting."""
    return {name: dataset_mod.file_sha256(settings[name]) for name in _INPUTS if settings[name]}


def _write_manifest(path: Path, settings: dict, hashes: dict[str, str]) -> None:
    """Record a train run's settings with the hash of each input file they name."""
    manifest = {
        "version": ethikit.__version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": settings,
        "sha256": hashes,
    }
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _train_from_settings(settings: dict, out_dir: Path, manifest: Path | None = None) -> int:
    """Shared by fresh runs and replays of ``manifest``; settings are plain JSON types.

    The files the run writes are checked against its inputs when ``out_dir``
    exists, and the inputs are read, checked, hashed and split before it is
    made, so a bad path or input leaves no run directory and the manifest
    holds the hashes of the bytes the run read.
    """
    train_cfg, tok_cfg = _configs(settings, _TRAIN_DEFAULTS, tok_mod.TokenizerConfig())
    trainer_mod.check_ratio(settings["val_ratio"])
    if out_dir.is_dir():
        inputs = {"--train-file": settings["train_file"], "--vocab": settings["vocab"],
                  "manifest": manifest}
        for name in ("vocab.txt", "best.ckpt", "epochs.csv", "manifest.json"):
            _check_outputs({"--out-dir": out_dir / name}, inputs)
    spec = dataset_mod.default_specs()[settings["domain"]]
    examples = _normalized(dataset_mod.load_split(settings["train_file"], spec))
    vocab = tok_mod.load_vocab(settings["vocab"]) if settings["vocab"] else None
    hashes = _input_hashes(settings)
    train_set, val_set = trainer_mod.split_train_val(
        examples, ratio=settings["val_ratio"], seed=train_cfg.model.seed
    )
    with reading(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    if vocab is None:
        vocab = _learned_vocab(tok_cfg, examples)
    tok_mod.save_vocab(vocab, out_dir / "vocab.txt")
    train_cfg = _sized(train_cfg, vocab)

    best_params, logs = trainer_mod.train(
        encode_examples(train_set, vocab), encode_examples(val_set, vocab), train_cfg
    )

    save_checkpoint(best_params, out_dir / "best.ckpt")
    _write_text(out_dir / "epochs.csv", trainer_mod.epoch_logs_csv(logs))
    _write_manifest(out_dir / "manifest.json", settings, hashes)

    last = logs[-1]
    print(f"trained {settings['epochs']} epoch(s) on {len(train_set)} examples "
          f"({len(val_set)} validation)")
    print(f"val_acc per epoch: {_sparkline([l.val_acc for l in logs])} "
          f"(final {last.val_acc:.4f})")
    print(f"outputs in {out_dir}")
    return 0


def _train_config_tables() -> tuple:
    """Each config whose fields ``train`` sets by flag, with the table of those flags."""
    return ((tok_mod.TokenizerConfig(), _TOKENIZER_FLAGS), (_TRAIN_DEFAULTS, _TRAIN_FLAGS),
            (_TRAIN_DEFAULTS.model, _MODEL_FLAGS), (_TRAIN_DEFAULTS.optim, _OPTIM_FLAGS))


def _replay_schema() -> dict:
    """The type of each value ``train`` records in a manifest's config, by key: that of
    its flag's default, from the config it is taken from."""
    return {dest: type(getattr(config, field)) for config, table in _train_config_tables()
            for dest, field in table.items()} | {
        "domain": str, "train_file": str, "vocab": str | None,
        "val_ratio": type(trainer_mod.TRAIN_RATIO)}


def _check_object(obj, schema: dict, where: str) -> None:
    """Raise ConfigError unless ``obj`` has exactly the schema's keys, each of its type."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} is not a JSON object")
    missing = sorted(schema.keys() - obj.keys())
    if missing:
        raise ConfigError(f"{where} lacks {missing}")
    unknown = sorted(obj.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"{where} has unknown keys {unknown}")
    for key, kind in schema.items():
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{where}.{key} is {value!r}, not {getattr(kind, '__name__', kind)}")


def _verified_replay_settings(manifest_path: Path) -> dict:
    """The settings a manifest recorded, once its version and input hashes match.

    A replay of changed or unhashed inputs, or under another tool version,
    would not reproduce the recorded run, so each refuses to start.
    """
    with reading(manifest_path):
        text = manifest_path.read_text(encoding="utf-8")

    def unique_keys(pairs: list) -> dict:
        # json.loads alone would keep a repeated key's last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{manifest_path}: manifest repeats key {key!r} in one object")
            obj[key] = value
        return obj

    try:
        manifest = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise NotJson(f"{manifest_path}: manifest is not JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("config", "sha256"):
        if not isinstance(manifest.get(key), dict):
            raise ConfigError(f"{manifest_path}: manifest has no {key!r} object")
    config = manifest["config"]
    _check_object(config, _replay_schema(), f"{manifest_path}: config")
    if config["domain"] not in DOMAINS:
        raise ConfigError(f"{manifest_path}: config.domain {config['domain']!r} is unknown")
    # The replay reads the files its config names, so the manifest must
    # hold a hash of each of them and of no other file.
    recorded = manifest["sha256"]
    _check_object(recorded, {name: str for name in _INPUTS if config[name]},
                  f"{manifest_path}: sha256")
    version = manifest.get("version")
    if version != ethikit.__version__:
        raise ReplayMismatch(
            f"{manifest_path}: recorded by ethikit {version}, "
            f"this is ethikit {ethikit.__version__}"
        )
    for name, actual in _input_hashes(config).items():
        if actual != recorded[name]:
            raise ReplayMismatch(
                f"{config[name]} ({name}) changed since the recorded run: "
                f"sha256 {actual}, manifest has {recorded[name]}"
            )
    return config


def cmd_train(args) -> int:
    settings = {dest: getattr(args, dest) for dest in _RECORDED}
    # Absolute, so the manifest replays from any working directory.
    for name in _INPUTS:
        if settings[name]:
            settings[name] = str(Path(settings[name]).absolute())
    return _train_from_settings(settings, Path(args.out_dir))


def cmd_replay(args) -> int:
    manifest = Path(args.manifest)
    return _train_from_settings(_verified_replay_settings(manifest), Path(args.out_dir), manifest)


# --- evaluate ---

def cmd_evaluate(args) -> int:
    ckpt_path = Path(args.checkpoint)
    vocab_path = Path(args.vocab) if args.vocab else ckpt_path.parent / "vocab.txt"
    _check_outputs({"--report": args.report, "--scores": args.scores},
                   {"--checkpoint": args.checkpoint, "--data": args.data, "--vocab": vocab_path})
    params = load_checkpoint(ckpt_path)
    vocab = tok_mod.load_vocab(vocab_path)
    if len(vocab) != params.cfg.vocab_size:
        raise ShapeMismatch(f"{vocab_path} holds {len(vocab)} tokens, but {ckpt_path} "
                            f"was trained on vocab_size={params.cfg.vocab_size}")

    spec = dataset_mod.default_specs()[args.domain]
    examples = _normalized(dataset_mod.load_split(args.data, spec))
    encoded = encode_examples(examples, vocab)

    report = trainer_mod.evaluate(params, encoded)
    print(metrics_mod.render_confusion(report.confusion))
    print(f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} f1={report.f1:.4f} auc={report.auc:.4f} "
          f"n={report.n}")

    if args.report:
        _write_text(args.report, metrics_mod.REPORT_CSV_HEADER + "\n"
                    + metrics_mod.report_csv_row(args.domain, report) + "\n")
    if args.scores:
        lines = ["example_id,label,score"]
        lines += [
            f"{i},{ex.label},{float(p)!r}"
            for i, (ex, p) in enumerate(zip(examples, report.scores))
        ]
        _write_text(args.scores, "\n".join(lines) + "\n")
    return 0


# --- filter-hard ---

def cmd_filter_hard(args) -> int:
    # The flags override the proxy recipe.
    flags = vars(args)
    proxy, tok_cfg = _configs(flags, hard_mod.PROXY_RECIPE, hard_mod.PROXY_TOKENIZER)
    cfg = hard_mod.FilterConfig(proxy=proxy, **_fields(flags, _FILTER_FLAGS))
    score_path = args.scores_out or Path(args.out).with_suffix(".scores.csv")
    _check_outputs({"--out": args.out, "--scores-out": score_path},
                   {"--dev": args.dev, "--pool": args.pool, "--vocab": args.vocab})

    spec = dataset_mod.default_specs()[args.domain]
    dev = _normalized(dataset_mod.load_split(args.dev, spec))
    pool_raw = dataset_mod.load_split(args.pool, spec)
    pool = _normalized(pool_raw)
    vocab = tok_mod.load_vocab(args.vocab) if args.vocab else _learned_vocab(tok_cfg, dev + pool)
    cfg = dataclasses.replace(cfg, proxy=_sized(proxy, vocab))
    proxies = hard_mod.train_proxies(dev, cfg, vocab)
    scores = hard_mod.score_examples(proxies, pool, vocab)
    # Partition the raw (pre-normalization) rows, parallel to the scored
    # pool, so the output keeps the pool's texts. It holds only the spec's
    # columns: other pool columns are dropped and packed texts re-joined.
    hard_raw, _ = hard_mod.filter_hard(pool_raw, scores, cfg.keep_quantile)
    dataset_mod.serialize_split(hard_raw, spec, args.out)
    lines = ["example_id,score"] + [f"{i},{s!r}" for i, s in enumerate(scores.tolist())]
    _write_text(score_path, "\n".join(lines) + "\n")
    print(f"kept {len(hard_raw)} hard of {len(pool)} pool examples -> {args.out}")
    return 0


# --- report ---

def cmd_report(args) -> int:
    accuracies: dict[str, float] = {}
    source: dict[str, str] = {}
    for path in args.inputs:
        for domain, row in report_mod.read_eval_csv(path).items():
            if domain in source:
                raise MalformedReport(f"{domain} is in both {source[domain]} and {path}")
            source[domain] = path
            accuracies[domain] = row["accuracy"]
    baselines = report_mod.BASELINES.get(args.baselines)
    print(report_mod.comparison_table(accuracies, baselines=baselines))
    return 0


# --- wiring ---

def _add_config_flags(p, config, table: dict, *dests: str) -> None:
    """One flag per dest (default: every dest of ``table``), defaulting to ``config``'s field."""
    for dest in dests or table:
        default = getattr(config, table[dest])
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ethikit",
        description="train and evaluate binary ethical-content classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalize stdin lines to stdout")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("build-vocab", help="train a subword vocabulary on normalized lines")
    p.add_argument("--input", default="-", help="corpus file, '-' for stdin")
    _add_config_flags(p, tok_mod.TokenizerConfig(), _TOKENIZER_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="fine-tune a classifier on one domain")
    p.add_argument("--domain", choices=DOMAINS, required=True)
    p.add_argument("--train-file", required=True, help="training CSV")
    p.add_argument("--out-dir", default="run")
    p.add_argument("--vocab", help="existing vocab file (else trained from the data)")
    for config, table in _train_config_tables():
        _add_config_flags(p, config, table)
    p.add_argument("--val-ratio", type=float, default=trainer_mod.TRAIN_RATIO,
                   help="share of the rows to train on; the rest validate "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("replay", help="rerun a train run bit for bit from its manifest")
    p.add_argument("manifest", help="manifest.json of the run")
    p.add_argument("--out-dir", default="run")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", choices=DOMAINS, required=True)
    p.add_argument("--vocab", help="vocab file (default: alongside the checkpoint)")
    p.add_argument("--report", help="write metrics CSV here")
    p.add_argument("--scores", help="write per-example scores CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("filter-hard", help="build an adversarially hard subset")
    p.add_argument("--dev", required=True, help="development CSV for proxy training")
    p.add_argument("--pool", required=True, help="pool CSV to filter")
    p.add_argument("--domain", choices=DOMAINS, required=True)
    recipe = hard_mod.PROXY_RECIPE
    _add_config_flags(p, hard_mod.FilterConfig(proxy=recipe), _FILTER_FLAGS)
    p.add_argument("--out", required=True)
    p.add_argument("--scores-out")
    p.add_argument("--vocab")
    _add_config_flags(p, hard_mod.PROXY_TOKENIZER, _TOKENIZER_FLAGS, "vocab_size")
    _add_config_flags(p, recipe, _TRAIN_FLAGS)
    _add_config_flags(p, recipe.model, _MODEL_FLAGS, "max_len", "seed")
    _add_config_flags(p, recipe.optim, _OPTIM_FLAGS, "lr")
    p.set_defaults(func=cmd_filter_hard)

    p = sub.add_parser("report", help="comparison table from evaluation CSVs")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--baselines", choices=[*report_mod.BASELINES, "none"], default="none")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EthikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
