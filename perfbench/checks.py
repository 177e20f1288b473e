"""Checks on the files each ethikit command writes.

Every check recomputes a figure from the command's own outputs and inputs
with independent code, and records a failure message when they disagree.
``Check.notes`` carries figures that are reported but not gated (final
losses, validation accuracy, kept count), so a reader can see whether the
arithmetic changed between two versions.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

# ``evaluate --scores`` formats numpy scalars with repr, which numpy 2 writes
# as "np.float64(0.5)". The value is intact, so it is accepted here and
# counted in the notes as ``scores_in_numpy_repr``.
_NUMPY_REPR = re.compile(r"np\.float(?:16|32|64)\((.*)\)")


class Check:
    """Failures and reported figures for one command."""

    def __init__(self, command: str):
        self.command = command
        self.failures: list[str] = []
        self.notes: dict[str, float] = {}

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def read_rows(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def parse_value(text: str) -> tuple[float, bool]:
    """A number as written, and whether it was in numpy's repr form."""
    match = _NUMPY_REPR.fullmatch(text)
    return float(match.group(1) if match else text), match is not None


def _scores(c: Check, path: Path, column: str, n_expected: int) -> np.ndarray | None:
    if not c.require(path.is_file(), f"{path.name} missing"):
        return None
    rows = read_rows(path)
    if not c.require(len(rows) == n_expected,
                     f"{path.name}: {len(rows)} rows for {n_expected} examples"):
        return None
    values = np.empty(len(rows))
    in_repr = 0
    for i, row in enumerate(rows):
        if not c.require(row.get("example_id") == str(i), f"{path.name}: row {i} id out of order"):
            return None
        try:
            values[i], wrapped = parse_value(row[column])
        except (KeyError, ValueError):
            c.require(False, f"{path.name}: row {i} score {row.get(column)!r} unreadable")
            return None
        in_repr += wrapped
    c.notes["scores_in_numpy_repr"] = in_repr
    return values


def brute_force_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (positive, negative) pairs ordered correctly, ties half."""
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return float(wins / (pos.size * neg.size))


def check_train(c: Check, run_dir: Path) -> None:
    epochs = run_dir / "epochs.csv"
    c.require((run_dir / "best.ckpt").is_file(), "best.ckpt missing")
    if not c.require(epochs.is_file(), "epochs.csv missing"):
        return
    rows = read_rows(epochs)
    if not c.require(len(rows) > 0, "epochs.csv has no epochs"):
        return
    for row in rows:
        for col in ("train_loss", "val_loss"):
            c.require(math.isfinite(float(row[col])), f"epoch {row['epoch']}: {col} not finite")
    last = rows[-1]
    for col in ("train_loss", "val_loss", "val_acc"):
        c.notes[col] = float(last[col])


def check_evaluate(c: Check, scores_csv: Path, report_csv: Path, test_csv: Path) -> None:
    labels = np.array([int(r["label"]) for r in read_rows(test_csv)])
    scores = _scores(c, scores_csv, "score", len(labels))
    if scores is None:
        return
    written = np.array([int(r["label"]) for r in read_rows(scores_csv)])
    c.require(np.array_equal(written, labels), "scores file labels differ from the data")
    if not c.require(bool(np.all((scores >= 0.0) & (scores <= 1.0))), "score outside [0, 1]"):
        return
    if not c.require(report_csv.is_file(), "report CSV missing"):
        return
    (report,) = read_rows(report_csv)
    accuracy = float(np.mean((scores >= 0.5).astype(int) == labels))
    auc = brute_force_auc(scores, labels)
    c.require(abs(float(report["accuracy"]) - accuracy) <= 1e-12,
              f"report accuracy {report['accuracy']} != {accuracy!r} from the scores")
    c.require(abs(float(report["auc"]) - auc) <= 1e-12,
              f"report auc {report['auc']} != {auc!r} by pair counting")
    c.notes["accuracy"] = accuracy
    c.notes["auc"] = auc


def check_filter(c: Check, scores_csv: Path, hard_csv: Path, pool_csv: Path, q: float) -> None:
    n_pool = len(read_rows(pool_csv))
    scores = _scores(c, scores_csv, "score", n_pool)
    if scores is None:
        return
    if not c.require(bool(np.all(np.isfinite(scores) & (scores >= 0.0))),
                     "difficulty score negative or not finite"):
        return
    threshold = np.sort(scores)[min(math.floor(q * n_pool), n_pool - 1)]
    expected = int(np.count_nonzero(scores >= threshold))
    if not c.require(hard_csv.is_file(), f"{hard_csv.name} missing"):
        return
    kept = len(read_rows(hard_csv))
    c.require(kept == expected, f"kept {kept} rows, the {q} quantile rule keeps {expected}")
    c.notes["kept"] = kept


def check_vocab_roundtrip(c: Check, tokenizer, vocab_path: Path, corpus_csv: Path,
                          text_cols: tuple[str, ...], rng: np.random.Generator,
                          n_words: int = 200) -> None:
    """Sampled corpus words encode and decode back through the saved vocab.

    Words that encode to [UNK] carry no pieces to decode and are skipped;
    at least one sampled word must be covered.
    """
    if not c.require(vocab_path.is_file(), f"{vocab_path.name} missing"):
        return
    vocab = tokenizer.load_vocab(vocab_path)
    words = sorted({w for row in read_rows(corpus_csv) for col in text_cols
                    for w in row[col].split() if w.isalpha() and w.islower()})
    sample = [words[i] for i in rng.choice(len(words), size=min(n_words, len(words)),
                                           replace=False)]
    covered = 0
    for word in sample:
        ids = tokenizer.encode(word, vocab)
        if tokenizer.UNK_ID in ids:
            continue
        covered += 1
        c.require(tokenizer.decode(ids, vocab) == word, f"{word!r} does not round-trip")
    c.require(covered > 0, "no sampled word is covered by the vocab")
