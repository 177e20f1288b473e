"""Seeded, download-free generator of ETHICS-shaped CSV files.

Words come from a fixed lexicon built from shared syllables, so the subword
learner finds real merges, and are drawn with Zipfian frequencies. Rows are
sentences with occasional contractions and shouted runs, so normalization
does real work too. Row lengths, labels and word choices come from the seed;
the same seed gives byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# The lexicon is independent of the workload seed: every seed draws from the
# same word inventory, so set-up cost is comparable across seeds.
_LEXICON_SEED = 0x5EED
_LEXICON_SIZE = 500
_ZIPF_EXPONENT = 1.07

_ONSETS = ["", "b", "br", "c", "ch", "d", "f", "g", "gr", "h", "j", "k", "l",
           "m", "n", "p", "pl", "r", "s", "sh", "st", "t", "th", "tr", "v", "w"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "y"]
_CODAS = ["", "", "", "n", "r", "s", "t", "nd", "ng", "ck", "ll"]

_CONTRACTIONS = ["don't", "can't", "didn't", "wasn't", "I'm", "it's", "won't",
                 "they're", "isn't", "couldn't"]

# Rows whose label is 1 draw a few words from here more often, so training
# has some signal to learn.
_N_MARKERS = 40


def lexicon() -> list[str]:
    """The fixed word list, most frequent first."""
    rng = np.random.default_rng(_LEXICON_SEED)
    syllables = sorted({o + n + c for o in _ONSETS for n in _NUCLEI for c in _CODAS})
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < _LEXICON_SIZE:
        n_syl = int(rng.choice([1, 1, 2, 2, 2, 3]))
        word = "".join(syllables[i] for i in rng.integers(0, len(syllables), size=n_syl))
        if len(word) >= 2 and word not in seen:
            seen.add(word)
            words.append(word)
    # Short words are the frequent ones, as in natural text.
    return sorted(words, key=len)


def vocab_tokens(words: list[str]) -> list[str]:
    """A vocabulary file's lines, built from the lexicon without ethikit.

    Specials first, then every single character, every syllable-sized chunk
    as a word start and as a ``##`` continuation, and the 150 most frequent
    whole words, so encoding splits the other words into several pieces.
    """
    chars = sorted({ch for w in words for ch in w} | set("abcdefghijklmnopqrstuvwxyz.,'"))
    pieces = sorted({o + n for o in _ONSETS for n in _NUCLEI} | set(_CODAS) - {""})
    tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
    tokens += chars + ["##" + ch for ch in chars]
    tokens += [p for p in pieces if len(p) > 1] + ["##" + p for p in pieces]
    tokens += words[:150]
    return list(dict.fromkeys(tokens))  # first occurrence of each, in order


class RowSampler:
    """Draws sentences and labels from one seeded stream."""

    def __init__(self, seed: int, words: list[str]):
        self.rng = np.random.default_rng(seed)
        self.words = words
        ranks = np.arange(1, len(words) + 1, dtype=np.float64)
        weights = ranks ** -_ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())
        self.markers = words[100:100 + _N_MARKERS]

    def label(self) -> int:
        return int(self.rng.integers(0, 2))

    def sentence(self, n_words: int, label: int) -> str:
        rng = self.rng
        idx = np.searchsorted(self.cdf, rng.random(n_words), side="right")
        out = [self.words[min(int(i), len(self.words) - 1)] for i in idx]
        if label == 1 and n_words > 2:
            for pos in rng.integers(0, n_words, size=max(1, n_words // 8)):
                out[pos] = self.markers[int(rng.integers(0, len(self.markers)))]
        if rng.random() < 0.3:
            out[int(rng.integers(0, n_words))] = _CONTRACTIONS[
                int(rng.integers(0, len(_CONTRACTIONS)))
            ]
        if n_words > 4 and rng.random() < 0.1:
            start = int(rng.integers(0, n_words - 2))
            out[start:start + 2] = [w.upper() for w in out[start:start + 2]]
        out[0] = out[0][:1].upper() + out[0][1:]
        if n_words > 6 and rng.random() < 0.5:
            pos = int(rng.integers(1, n_words - 1))
            out[pos] += ","
        return " ".join(out) + "."

    def uniform_length(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi + 1))

    def long_tail_length(self) -> int:
        """Log-normal word count: median about 45, a fifth of rows over 100."""
        return int(np.clip(self.rng.lognormal(mean=3.8, sigma=0.8), 4, 400))


def _write(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def single_text_rows(sampler: RowSampler, n: int, lengths) -> list[list]:
    rows = []
    for _ in range(n):
        label = sampler.label()
        rows.append([label, sampler.sentence(lengths(), label)])
    return rows


def pair_rows(sampler: RowSampler, n: int) -> list[list]:
    rows = []
    for _ in range(n):
        label = sampler.label()
        scenario = sampler.sentence(sampler.uniform_length(6, 20), label)
        excuse = sampler.sentence(sampler.uniform_length(5, 15), label)
        rows.append([label, scenario, excuse])
    return rows


def write_justice(path: Path, sampler: RowSampler, n: int) -> None:
    """Justice layout (label, scenario), 8 to 30 words per row."""
    rows = single_text_rows(sampler, n, lambda: sampler.uniform_length(8, 30))
    _write(path, ["label", "scenario"], rows)


def write_commonsense(path: Path, sampler: RowSampler, n: int) -> None:
    """Commonsense layout (label, input) with long-tailed row lengths."""
    rows = single_text_rows(sampler, n, sampler.long_tail_length)
    _write(path, ["label", "input"], rows)


def write_deontology(path: Path, sampler: RowSampler, n: int) -> None:
    """Deontology layout (label, scenario, excuse)."""
    _write(path, ["label", "scenario", "excuse"], pair_rows(sampler, n))


def write_vocab(path: Path, words: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(tok + "\n" for tok in vocab_tokens(words)))
