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
from ethikit.batching import DOMAINS, Example, encode_examples
from ethikit.errors import ConfigError, EthikitError, ReplayMismatch, reading
from ethikit.model import ModelConfig, load_checkpoint, save_checkpoint
from ethikit.optim import OptimConfig

RUN_ROOT_ENV = "ETHIKIT_RUN_ROOT"

_SPARK_LEVELS = " .:-=+*#%@"


def _run_root() -> Path:
    return Path(os.environ.get(RUN_ROOT_ENV, "."))


def _resolve_split_file(data_dir: Path, domain: str, split: str) -> Path:
    """Find a split file under either the flat or the per-domain layout."""
    prefix = "cm" if domain == "commonsense" else domain
    candidates = [
        data_dir / f"{domain}_{split}.csv",
        data_dir / f"{prefix}_{split}.csv",
        data_dir / domain / f"{prefix}_{split}.csv",
        data_dir / domain / f"{domain}_{split}.csv",
    ]
    for cand in candidates:
        if cand.exists():
            return cand
    raise FileNotFoundError(
        f"no {split} file for {domain} under {data_dir} (tried "
        + ", ".join(str(c) for c in candidates)
        + ")"
    )


def _normalize_examples(examples, norm_cfg) -> list[Example]:
    out = []
    for ex in examples:
        out.append(
            Example(
                domain=ex.domain,
                text_a=norm_mod.normalize(ex.text_a, norm_cfg),
                text_b=None if ex.text_b is None else norm_mod.normalize(ex.text_b, norm_cfg),
                label=ex.label,
            )
        )
    return out


def _learn_vocab(examples, cfg: tok_mod.TokenizerConfig) -> tok_mod.Vocab:
    """Train a vocabulary on every text field of normalized examples."""
    corpus = [ex.text_a for ex in examples]
    corpus += [ex.text_b for ex in examples if ex.text_b is not None]
    return tok_mod.train_vocab(corpus, cfg)


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
    if args.input == "-":
        lines = _stdin_lines()
    else:
        with reading(args.input), open(args.input, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    if args.normalize:
        cfg_norm = norm_mod.default_config()
        lines = [norm_mod.normalize(line, cfg_norm) for line in lines]
    cfg = tok_mod.TokenizerConfig(vocab_size=args.size, min_frequency=args.min_freq)
    vocab = tok_mod.train_vocab(lines, cfg)
    tok_mod.save_vocab(vocab, args.out)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


# --- train ---

def _optim_config_from_args(args) -> OptimConfig:
    return OptimConfig(
        eta0=args.lr,
        beta1=args.beta1,
        beta2=args.beta2,
        epsilon=args.eps,
        weight_decay=args.wd,
        n_acc=args.grad_accum,
    )


def _write_manifest(path: Path, command: str, config: dict, seed: int, inputs: dict) -> None:
    manifest = {
        "tool": "ethikit",
        "version": ethikit.__version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": dataset_mod.file_sha256(p)}
            for name, p in inputs.items()
        },
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _train_from_settings(settings: dict, out_dir: Path) -> int:
    """Shared by fresh runs and manifest replays; settings are plain JSON types."""
    # Every setting is checked before the data is read or a file is written.
    # The vocab size is known only once the vocab is, so the first check
    # uses the smallest valid one.
    train_cfg = trainer_mod.TrainConfig(
        model=ModelConfig(**settings["model"], vocab_size=len(tok_mod.SPECIAL_TOKENS)),
        optim=OptimConfig(**settings["optim"]),
        epochs=settings["epochs"],
        batch_size=settings["batch_size"],
    )
    tok_cfg = None if settings.get("vocab_file") else tok_mod.TokenizerConfig(
        vocab_size=settings["vocab_size"], min_frequency=settings["min_freq"]
    )
    trainer_mod.check_ratio(settings["val_ratio"])
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = dataset_mod.default_specs()
    spec = specs[settings["domain"]]
    train_file = Path(settings["train_file"])
    examples = dataset_mod.load_split(train_file, spec)
    norm_cfg = norm_mod.default_config()
    examples = _normalize_examples(examples, norm_cfg)

    if tok_cfg is None:
        vocab = tok_mod.load_vocab(settings["vocab_file"])
        vocab_input = Path(settings["vocab_file"])
    else:
        vocab = _learn_vocab(examples, tok_cfg)
        vocab_input = None
    tok_mod.save_vocab(vocab, out_dir / "vocab.txt")

    model_cfg = dataclasses.replace(train_cfg.model, vocab_size=len(vocab))
    train_cfg = dataclasses.replace(train_cfg, model=model_cfg)

    train_set, val_set = trainer_mod.split_train_val(
        examples, ratio=settings["val_ratio"], seed=model_cfg.seed
    )
    best_params, logs = trainer_mod.train(
        encode_examples(train_set, vocab), encode_examples(val_set, vocab), train_cfg
    )

    save_checkpoint(best_params, out_dir / "best.ckpt")
    (out_dir / "epochs.csv").write_text(trainer_mod.epoch_logs_csv(logs), encoding="utf-8")

    inputs = {"train_file": train_file}
    if vocab_input is not None:
        inputs["vocab_file"] = vocab_input
    _write_manifest(out_dir / "manifest.json", "train", settings, model_cfg.seed, inputs)

    last = logs[-1]
    print(f"trained {settings['epochs']} epoch(s) on {len(train_set)} examples "
          f"({len(val_set)} validation)")
    print(f"val_acc per epoch: {_sparkline([l.val_acc for l in logs])} "
          f"(final {last.val_acc:.4f})")
    print(f"outputs in {out_dir}")
    return 0


def _verified_replay_settings(manifest_path: Path) -> dict:
    """The settings a manifest recorded, once its version and input hashes match.

    A replay of changed inputs, or under another tool version, would not
    reproduce the recorded run, so either refuses to start.
    """
    with reading(manifest_path):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("config", "inputs"):
        if not isinstance(manifest.get(key), dict):
            raise ConfigError(f"{manifest_path}: manifest has no {key!r} object")
    version = manifest.get("version")
    if version != ethikit.__version__:
        raise ReplayMismatch(
            f"{manifest_path}: recorded by ethikit {version}, "
            f"this is ethikit {ethikit.__version__}"
        )
    for name, entry in manifest["inputs"].items():
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("sha256"), str)):
            raise ConfigError(f"{manifest_path}: input {name!r} lacks a path or sha256")
        actual = dataset_mod.file_sha256(entry["path"])
        if actual != entry["sha256"]:
            raise ReplayMismatch(
                f"{entry['path']} ({name}) changed since the recorded run: "
                f"sha256 {actual}, manifest has {entry['sha256']}"
            )
    return manifest["config"]


def cmd_train(args) -> int:
    out_dir = _run_root() / args.out_dir
    if args.replay:
        settings = _verified_replay_settings(Path(args.replay))
        return _train_from_settings(settings, out_dir)

    data_dir = Path(args.data_dir)
    train_file = (
        Path(args.train_file)
        if args.train_file
        else _resolve_split_file(data_dir, args.domain, "train")
    )
    settings = {
        "domain": args.domain,
        "train_file": str(train_file),
        "vocab_file": args.vocab,
        "vocab_size": args.vocab_size,
        "min_freq": args.min_freq,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "val_ratio": args.val_ratio,
        "model": {
            "max_len": args.max_len,
            "n_layers": args.layers,
            "n_heads": args.heads,
            "d_model": args.d_model,
            "d_ff": args.d_ff,
            "dropout_p": args.dropout,
            "seed": args.seed,
        },
        "optim": dataclasses.asdict(_optim_config_from_args(args)),
    }
    return _train_from_settings(settings, out_dir)


# --- evaluate ---

def cmd_evaluate(args) -> int:
    ckpt_path = Path(args.checkpoint)
    params = load_checkpoint(ckpt_path)
    vocab_path = Path(args.vocab) if args.vocab else ckpt_path.parent / "vocab.txt"
    vocab = tok_mod.load_vocab(vocab_path)

    spec = dataset_mod.default_specs()[args.domain]
    examples = dataset_mod.load_split(args.data, spec)
    examples = _normalize_examples(examples, norm_mod.default_config())
    encoded = encode_examples(examples, vocab)

    report = trainer_mod.evaluate(params, encoded, batch_size=args.batch_size)
    print(metrics_mod.render_confusion(report.confusion))
    print(f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} f1={report.f1:.4f} auc={report.auc:.4f} "
          f"n={report.n}")

    if args.report:
        Path(args.report).write_text(
            metrics_mod.REPORT_CSV_HEADER + "\n"
            + metrics_mod.report_csv_row(args.domain, report) + "\n",
            encoding="utf-8",
        )
    if args.scores:
        lines = ["example_id,label,score"]
        lines += [
            f"{i},{ex.label},{float(p)!r}"
            for i, (ex, p) in enumerate(zip(examples, report.scores))
        ]
        Path(args.scores).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# --- filter-hard ---

def cmd_filter_hard(args) -> int:
    # The model, training and tokenizer settings are checked before a file is
    # read. The vocab size is known only once the vocab is, so the first model
    # check uses the smallest valid one.
    proxy_model = ModelConfig(
        vocab_size=len(tok_mod.SPECIAL_TOKENS), max_len=args.max_len, n_layers=1,
        n_heads=2, d_model=32, d_ff=64, dropout_p=0.1, seed=args.seed,
    )
    proxy_train = trainer_mod.TrainConfig(
        model=proxy_model,
        optim=OptimConfig(eta0=args.lr, n_acc=1),
        epochs=args.epochs,
        batch_size=args.batch_size,
    )
    cfg = hard_mod.FilterConfig(
        proxy=proxy_train, n_proxies=args.proxies, keep_quantile=args.quantile,
    )
    tok_cfg = None if args.vocab else tok_mod.TokenizerConfig(
        vocab_size=args.vocab_size, min_frequency=1
    )

    spec = dataset_mod.default_specs()[args.domain]
    norm_cfg = norm_mod.default_config()
    dev = _normalize_examples(dataset_mod.load_split(args.dev, spec), norm_cfg)
    pool_raw = dataset_mod.load_split(args.pool, spec)
    pool = _normalize_examples(pool_raw, norm_cfg)

    if tok_cfg is None:
        vocab = tok_mod.load_vocab(args.vocab)
    else:
        vocab = _learn_vocab(dev + pool, tok_cfg)

    proxy_model = dataclasses.replace(proxy_model, vocab_size=len(vocab))
    cfg = dataclasses.replace(
        cfg, proxy=dataclasses.replace(proxy_train, model=proxy_model)
    )
    proxies = hard_mod.train_proxies(dev, cfg, vocab)
    scores = hard_mod.score_examples(proxies, pool, vocab, args.batch_size)
    # Partition the raw (pre-normalization) rows, parallel to the scored
    # pool, so the output stays in the same format as its input.
    hard_raw, _ = hard_mod.filter_hard(pool_raw, scores, cfg.keep_quantile)
    dataset_mod.serialize_split(hard_raw, spec, args.out)
    score_path = Path(args.scores_out) if args.scores_out else Path(args.out).with_suffix(".scores.csv")
    lines = ["example_id,score"] + [f"{i},{s!r}" for i, s in enumerate(scores.tolist())]
    score_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ethikit",
        description="train and evaluate binary ethical-content classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalize stdin lines to stdout")
    p.add_argument("--config", help="normalization config file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("build-vocab", help="train a subword vocabulary")
    p.add_argument("--input", default="-", help="corpus file, '-' for stdin")
    p.add_argument("--size", type=int, default=8000)
    p.add_argument("--min-freq", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="fine-tune a classifier on one domain")
    p.add_argument("--data-dir", default=".")
    p.add_argument("--domain", choices=DOMAINS)
    p.add_argument("--train-file", help="explicit training CSV (overrides --data-dir)")
    p.add_argument("--out-dir", default="run")
    p.add_argument("--replay", help="manifest.json of a prior run to replay")
    p.add_argument("--vocab", help="existing vocab file (else trained from the data)")
    p.add_argument("--vocab-size", type=int, default=8000)
    p.add_argument("--min-freq", type=int, default=2)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-len", type=int, default=128)
    p.add_argument("--lr", type=float, default=6e-5)
    p.add_argument("--wd", type=float, default=0.01)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--grad-accum", type=int, default=4)
    p.add_argument("--dropout", type=float, default=0.3)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-ratio", type=float, default=0.8)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", choices=DOMAINS, required=True)
    p.add_argument("--vocab", help="vocab file (default: alongside the checkpoint)")
    p.add_argument("--report", help="write metrics CSV here")
    p.add_argument("--scores", help="write per-example scores CSV here")
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("filter-hard", help="build an adversarially hard subset")
    p.add_argument("--dev", required=True, help="development CSV for proxy training")
    p.add_argument("--pool", required=True, help="pool CSV to filter")
    p.add_argument("--domain", choices=DOMAINS, required=True)
    p.add_argument("--quantile", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--scores-out")
    p.add_argument("--vocab")
    p.add_argument("--vocab-size", type=int, default=2000)
    p.add_argument("--proxies", type=int, default=2)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-len", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
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
    except (EthikitError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
