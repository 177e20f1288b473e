"""Command-line entry point wiring the toolkit into reproducible runs.

Subcommands: normalize, build-vocab, train, evaluate, filter-hard, report.
Every training run writes a manifest (resolved config, seed, input hashes)
sufficient to replay it bit-exactly via ``train --replay``, which first
checks the tool version and re-hashes every recorded input.

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
from ethikit.errors import (ConfigError, EthikitError, NotJson, ReplayMismatch, UnusablePath,
                            reading)
from ethikit.model import ModelConfig, load_checkpoint, save_checkpoint

RUN_ROOT_ENV = "ETHIKIT_RUN_ROOT"

_SPARK_LEVELS = " .:-=+*#%@"

# Each config-backed flag, by its argparse dest, names the config field it
# sets. The flag takes its default, and its type, from a config instance.
_MODEL_FLAGS = {"max_len": "max_len", "dropout": "dropout_p", "layers": "n_layers",
                "heads": "n_heads", "d_model": "d_model", "d_ff": "d_ff", "seed": "seed"}
_OPTIM_FLAGS = {"lr": "eta0", "wd": "weight_decay", "beta1": "beta1", "beta2": "beta2",
                "eps": "epsilon", "grad_accum": "n_acc"}
_TRAIN_FLAGS = {"epochs": "epochs", "batch_size": "batch_size"}
_TOKENIZER_FLAGS = {"vocab_size": "vocab_size", "min_freq": "min_frequency"}
_BUILD_VOCAB_FLAGS = {"size": "vocab_size", "min_freq": "min_frequency"}
_FILTER_FLAGS = {"quantile": "keep_quantile", "proxies": "n_proxies"}

# The vocab size is known only once the vocab is, so the smallest valid one
# stands in until then.
_TRAIN_DEFAULTS = trainer_mod.TrainConfig(model=ModelConfig(vocab_size=len(tok_mod.SPECIAL_TOKENS)))

# The train settings that name input files. A manifest records each one's
# hash, and a replay reads only the files it hashed.
_INPUTS = ("train_file", "vocab_file")


def _fields(values: dict, table: dict) -> dict:
    """The config fields that ``table``'s flags set, for each flag in ``values``."""
    return {field: values[dest] for dest, field in table.items() if dest in values}


def _run_root() -> Path:
    return Path(os.environ.get(RUN_ROOT_ENV, "."))


def _resolve_split_file(data_dir: Path, domain: str, split: str) -> Path:
    """Find a split file under either the flat or the per-domain layout."""
    prefix = "cm" if domain == "commonsense" else domain
    # dict.fromkeys drops the repeats a domain named like its prefix makes.
    candidates = list(dict.fromkeys([
        data_dir / f"{domain}_{split}.csv",
        data_dir / f"{prefix}_{split}.csv",
        data_dir / domain / f"{prefix}_{split}.csv",
        data_dir / domain / f"{domain}_{split}.csv",
    ]))
    for cand in candidates:
        if cand.exists():
            return cand
    raise UnusablePath(
        f"no {split} file for {domain} under {data_dir} (tried "
        + ", ".join(str(c) for c in candidates)
        + ")"
    )


def _normalized(examples) -> list[Example]:
    """``examples`` with every text normalized by the packaged config."""
    cfg = norm_mod.default_config()
    return [Example(text_a=norm_mod.normalize(ex.text_a, cfg),
                    text_b=None if ex.text_b is None else norm_mod.normalize(ex.text_b, cfg),
                    label=ex.label)
            for ex in examples]


def _settings(flags: dict) -> dict:
    """The vocab file and config-backed flags in ``flags``, as a manifest's config holds them."""
    return {
        "vocab_file": flags["vocab"],
        **{dest: flags[dest] for dest in (*_TOKENIZER_FLAGS, *_TRAIN_FLAGS) if dest in flags},
        "model": _fields(flags, _MODEL_FLAGS),
        "optim": _fields(flags, _OPTIM_FLAGS),
    }


def _configs(settings: dict, train: trainer_mod.TrainConfig, tok: tok_mod.TokenizerConfig):
    """The training and tokenizer configs that ``settings`` set over ``train`` and ``tok``.

    The tokenizer config is None when the settings name a vocab file. Each
    replace checks its config, so a bad setting raises ConfigError here.
    """
    train = dataclasses.replace(
        train,
        model=dataclasses.replace(train.model, **settings["model"]),
        optim=dataclasses.replace(train.optim, **settings["optim"]),
        **_fields(settings, _TRAIN_FLAGS),
    )
    if settings["vocab_file"]:
        return train, None
    return train, dataclasses.replace(tok, **_fields(settings, _TOKENIZER_FLAGS))


def _vocab(path: str | None, cfg: tok_mod.TokenizerConfig | None, examples) -> tok_mod.Vocab:
    """The vocab at ``path`` if one is named, else the one ``cfg`` learns from ``examples``."""
    if path:
        return tok_mod.load_vocab(path)
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


def _check_outputs(*paths) -> None:
    """Raise UnusablePath unless each of ``paths`` could be written as a file.

    Commands check their outputs before any work, so a path that cannot be
    written does not cost a run.
    """
    for path in map(Path, paths):
        if path.is_dir():
            raise UnusablePath(f"{path}: is a directory, not a file")
        if not path.parent.is_dir():
            raise UnusablePath(f"{path}: {path.parent} is not a directory")
        if not os.access(path.parent, os.W_OK) or (path.exists() and not os.access(path, os.W_OK)):
            raise UnusablePath(f"{path}: permission denied")


def _sparkline(values) -> str:
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    idx = [int((v - lo) / span * (len(_SPARK_LEVELS) - 1)) for v in values]
    return "".join(_SPARK_LEVELS[i] for i in idx)


# --- normalize ---

def _stdin_lines() -> list[str]:
    """Standard input decoded strictly as UTF-8, split at each newline."""
    with reading("<stdin>"):
        text = sys.stdin.buffer.read().decode("utf-8")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def cmd_normalize(args) -> int:
    cfg = norm_mod.load_config(args.config) if args.config else norm_mod.default_config()
    for line in _stdin_lines():
        sys.stdout.write(norm_mod.normalize(line, cfg) + "\n")
    return 0


# --- build-vocab ---

def cmd_build_vocab(args) -> int:
    _check_outputs(args.out)
    if args.input == "-":
        lines = _stdin_lines()
    else:
        with reading(args.input), open(args.input, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    # train, evaluate and filter-hard encode normalized text, so the vocab is
    # learned from the same.
    cfg_norm = norm_mod.default_config()
    lines = [norm_mod.normalize(line, cfg_norm) for line in lines]
    cfg = tok_mod.TokenizerConfig(**_fields(vars(args), _BUILD_VOCAB_FLAGS))
    vocab = tok_mod.train_vocab(lines, cfg)
    tok_mod.save_vocab(vocab, args.out)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


# --- train ---

def _write_manifest(path: Path, settings: dict) -> None:
    """Record a train run's settings with the hash of each input file they name."""
    manifest = {
        "tool": "ethikit",
        "version": ethikit.__version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": "train",
        "seed": settings["model"]["seed"],
        "config": settings,
        "inputs": {
            name: {"path": str(Path(settings[name])),
                   "sha256": dataset_mod.file_sha256(settings[name])}
            for name in _INPUTS if settings[name]
        },
    }
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _train_from_settings(settings: dict, out_dir: Path) -> int:
    """Shared by fresh runs and manifest replays; settings are plain JSON types."""
    train_cfg, tok_cfg = _configs(settings, _TRAIN_DEFAULTS, tok_mod.TokenizerConfig())
    trainer_mod.check_ratio(settings["val_ratio"])
    with reading(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    spec = dataset_mod.default_specs()[settings["domain"]]
    examples = _normalized(dataset_mod.load_split(settings["train_file"], spec))
    vocab = _vocab(settings["vocab_file"], tok_cfg, examples)
    tok_mod.save_vocab(vocab, out_dir / "vocab.txt")
    train_cfg = _sized(train_cfg, vocab)

    train_set, val_set = trainer_mod.split_train_val(
        examples, ratio=settings["val_ratio"], seed=train_cfg.model.seed
    )
    best_params, logs = trainer_mod.train(
        encode_examples(train_set, vocab), encode_examples(val_set, vocab), train_cfg
    )

    save_checkpoint(best_params, out_dir / "best.ckpt")
    _write_text(out_dir / "epochs.csv", trainer_mod.epoch_logs_csv(logs))
    _write_manifest(out_dir / "manifest.json", settings)

    last = logs[-1]
    print(f"trained {settings['epochs']} epoch(s) on {len(train_set)} examples "
          f"({len(val_set)} validation)")
    print(f"val_acc per epoch: {_sparkline([l.val_acc for l in logs])} "
          f"(final {last.val_acc:.4f})")
    print(f"outputs in {out_dir}")
    return 0


def _replay_schema() -> dict:
    """The type of each value ``train`` records in a manifest's config, by key."""
    tok, train = tok_mod.TokenizerConfig(), _TRAIN_DEFAULTS
    return {
        "domain": str, "train_file": str, "vocab_file": str | None, "val_ratio": float,
        **{dest: type(getattr(tok, field)) for dest, field in _TOKENIZER_FLAGS.items()},
        **{dest: type(getattr(train, field)) for dest, field in _TRAIN_FLAGS.items()},
        "model": {field: type(getattr(train.model, field)) for field in _MODEL_FLAGS.values()},
        "optim": {field: type(getattr(train.optim, field)) for field in _OPTIM_FLAGS.values()},
    }


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
        if isinstance(kind, dict):
            _check_object(value, kind, f"{where}.{key}")
        elif isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{where}.{key} is {value!r}, not {getattr(kind, '__name__', kind)}")


def _verified_replay_settings(manifest_path: Path) -> dict:
    """The settings a manifest recorded, once its version and input hashes match.

    A replay of changed or unhashed inputs, or under another tool version,
    would not reproduce the recorded run, so each refuses to start.
    """
    with reading(manifest_path):
        text = manifest_path.read_text(encoding="utf-8")
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NotJson(f"{manifest_path}: manifest is not JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("config", "inputs"):
        if not isinstance(manifest.get(key), dict):
            raise ConfigError(f"{manifest_path}: manifest has no {key!r} object")
    config = manifest["config"]
    _check_object(config, _replay_schema(), f"{manifest_path}: config")
    if config["domain"] not in DOMAINS:
        raise ConfigError(f"{manifest_path}: config.domain {config['domain']!r} is unknown")
    # The replay reads the files its config names, so the manifest must
    # hold a hash of each of them and of no other file.
    named = {name: config[name] for name in _INPUTS if config[name]}
    inputs = manifest["inputs"]
    _check_object(inputs, {name: {"path": str, "sha256": str} for name in named},
                  f"{manifest_path}: inputs")
    for name, path in named.items():
        if Path(inputs[name]["path"]) != Path(path):
            raise ConfigError(f"{manifest_path}: inputs.{name}.path is "
                              f"{inputs[name]['path']!r}, config.{name} is {path!r}")
    version = manifest.get("version")
    if version != ethikit.__version__:
        raise ReplayMismatch(
            f"{manifest_path}: recorded by ethikit {version}, "
            f"this is ethikit {ethikit.__version__}"
        )
    for name, path in named.items():
        with reading(path):
            actual = dataset_mod.file_sha256(path)
        if actual != inputs[name]["sha256"]:
            raise ReplayMismatch(
                f"{path} ({name}) changed since the recorded run: "
                f"sha256 {actual}, manifest has {inputs[name]['sha256']}"
            )
    return config


def _replay_conflicts(args) -> list[str]:
    """The flags besides --replay and --out-dir that ``args`` set off their defaults."""
    defaults = vars(build_parser().parse_args(["train"]))
    return ["--" + dest.replace("_", "-") for dest, value in vars(args).items()
            if dest not in ("replay", "out_dir") and value != defaults[dest]]


def cmd_train(args) -> int:
    out_dir = _run_root() / args.out_dir
    if args.replay:
        conflicts = _replay_conflicts(args)
        if conflicts:
            raise ConfigError(f"--replay takes every setting from its manifest; "
                              f"drop {' '.join(conflicts)}")
        return _train_from_settings(_verified_replay_settings(Path(args.replay)), out_dir)
    if args.domain is None:
        raise ConfigError("train needs --domain, or --replay of a manifest")

    train_file = args.train_file or _resolve_split_file(Path(args.data_dir), args.domain, "train")
    settings = {
        "domain": args.domain,
        "train_file": str(Path(train_file)),
        "val_ratio": args.val_ratio,
        **_settings(vars(args)),
    }
    return _train_from_settings(settings, out_dir)


# --- evaluate ---

def cmd_evaluate(args) -> int:
    _check_outputs(*filter(None, (args.report, args.scores)))
    ckpt_path = Path(args.checkpoint)
    params = load_checkpoint(ckpt_path)
    vocab_path = Path(args.vocab) if args.vocab else ckpt_path.parent / "vocab.txt"
    vocab = tok_mod.load_vocab(vocab_path)

    spec = dataset_mod.default_specs()[args.domain]
    examples = _normalized(dataset_mod.load_split(args.data, spec))
    encoded = encode_examples(examples, vocab)

    report = trainer_mod.evaluate(params, encoded, batch_size=args.batch_size)
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
    proxy, tok_cfg = _configs(_settings(flags), hard_mod.PROXY_RECIPE, hard_mod.PROXY_TOKENIZER)
    cfg = hard_mod.FilterConfig(proxy=proxy, **_fields(flags, _FILTER_FLAGS))
    score_path = args.scores_out or Path(args.out).with_suffix(".scores.csv")
    _check_outputs(args.out, score_path)

    spec = dataset_mod.default_specs()[args.domain]
    dev = _normalized(dataset_mod.load_split(args.dev, spec))
    pool_raw = dataset_mod.load_split(args.pool, spec)
    pool = _normalized(pool_raw)
    vocab = _vocab(args.vocab, tok_cfg, dev + pool)
    cfg = dataclasses.replace(cfg, proxy=_sized(proxy, vocab))
    proxies = hard_mod.train_proxies(dev, cfg, vocab)
    scores = hard_mod.score_examples(proxies, pool, vocab, args.batch_size)
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
    for path in args.inputs:
        for domain, row in report_mod.read_eval_csv(path).items():
            accuracies[domain] = row["accuracy"]
    baselines = None
    if args.baselines != "none":
        baselines = report_mod.load_baselines(args.baselines)
    print(report_mod.comparison_table(accuracies, name=args.name, baselines=baselines))
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
    p.add_argument("--config", help="normalization config file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("build-vocab", help="train a subword vocabulary on normalized lines")
    p.add_argument("--input", default="-", help="corpus file, '-' for stdin")
    _add_config_flags(p, tok_mod.TokenizerConfig(), _BUILD_VOCAB_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="fine-tune a classifier on one domain")
    p.add_argument("--data-dir", default=".")
    p.add_argument("--domain", choices=DOMAINS)
    p.add_argument("--train-file", help="explicit training CSV (overrides --data-dir)")
    p.add_argument("--out-dir", default="run")
    p.add_argument("--replay", help="manifest.json of a prior run to replay")
    p.add_argument("--vocab", help="existing vocab file (else trained from the data)")
    _add_config_flags(p, tok_mod.TokenizerConfig(), _TOKENIZER_FLAGS)
    _add_config_flags(p, _TRAIN_DEFAULTS, _TRAIN_FLAGS)
    _add_config_flags(p, _TRAIN_DEFAULTS.model, _MODEL_FLAGS)
    _add_config_flags(p, _TRAIN_DEFAULTS.optim, _OPTIM_FLAGS)
    p.add_argument("--val-ratio", type=float, default=trainer_mod.TRAIN_RATIO,
                   help="share of the rows to train on; the rest validate "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", choices=DOMAINS, required=True)
    p.add_argument("--vocab", help="vocab file (default: alongside the checkpoint)")
    p.add_argument("--report", help="write metrics CSV here")
    p.add_argument("--scores", help="write per-example scores CSV here")
    _add_config_flags(p, _TRAIN_DEFAULTS, _TRAIN_FLAGS, "batch_size")
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
    p.add_argument("--baselines", choices=["test", "hard_test", "none"], default="none")
    p.add_argument("--name", default="ours")
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
