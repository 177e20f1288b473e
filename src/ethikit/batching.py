"""Fixed-shape model inputs: sequence templates, truncation, dynamic padding.

Single-text domains produce [CLS] text [SEP]; pair domains append the second
segment and another [SEP]. ``encode_examples`` applies the template once per
example; every later consumer batches those ids, in an order it chooses, and
truncates them to its own maximum length. Padding length adapts to the
longest sequence in each batch, capped by the maximum sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ethikit import tokenizer
from ethikit.errors import EmptyBatch, InvalidConfig, InvalidLength, MissingField
from ethikit.tokenizer import CLS_ID, PAD_ID, SEP_ID, Vocab

DOMAINS = ("commonsense", "justice", "virtue", "deontology")
PAIR_DOMAINS = frozenset({"virtue", "deontology"})

DEFAULT_MAX_LEN = 128
DEFAULT_BATCH_SIZE = 32


@dataclass
class Example:
    """One labeled scenario; pair domains carry a second text (trait/excuse)."""

    domain: str
    text_a: str
    text_b: str | None = None
    label: int = 0


@dataclass(frozen=True, slots=True)
class EncodedExample:
    """One example's untruncated template ids and its label."""

    ids: tuple[int, ...]
    label: int


@dataclass
class TokenBatch:
    """Dense id matrix with its attention mask and labels."""

    ids: np.ndarray    # [batch, L] int64
    mask: np.ndarray   # [batch, L] int8, 1 on real tokens
    labels: np.ndarray  # [batch] int64

    @property
    def length(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return self.ids.shape[0]


def format_sequence(ex: Example, vocab: Vocab) -> list[int]:
    """Apply the per-domain template; texts must already be normalized."""
    if ex.domain not in DOMAINS:
        raise ValueError(f"unknown domain {ex.domain!r}")
    ids = [CLS_ID] + tokenizer.encode(ex.text_a, vocab) + [SEP_ID]
    if ex.domain in PAIR_DOMAINS:
        if ex.text_b is None:
            raise MissingField(f"{ex.domain} example lacks its second text")
        ids += tokenizer.encode(ex.text_b, vocab) + [SEP_ID]
    return ids


def encode_examples(examples, vocab: Vocab) -> list[EncodedExample]:
    """Apply the template to each example once; ids are not yet truncated."""
    return [
        EncodedExample(ids=tuple(format_sequence(ex, vocab)), label=ex.label)
        for ex in examples
    ]


def truncate(ids, l_max: int) -> list[int]:
    """Cap length at l_max, forcing a trailing SEP when anything was cut."""
    if l_max < 2:
        raise InvalidLength(f"l_max={l_max} cannot hold CLS and SEP")
    if len(ids) <= l_max:
        return list(ids)
    return [*ids[: l_max - 1], SEP_ID]


def pad_batch(seqs, labels, l_cap: int) -> TokenBatch:
    """Right-pad to the longest sequence in the batch, capped at l_cap."""
    seqs = list(seqs)
    if not seqs:
        raise EmptyBatch("no sequences to pad")
    lengths = [len(s) for s in seqs]
    if max(lengths) > l_cap:
        raise InvalidLength(f"sequence of length {max(lengths)} exceeds cap {l_cap}")
    width = min(max(lengths), l_cap)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=np.int8)
    for i, seq in enumerate(seqs):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1
    return TokenBatch(ids=ids, mask=mask, labels=np.asarray(labels, dtype=np.int64))


def make_batches(
    encoded,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order=None,
    max_len: int = DEFAULT_MAX_LEN,
) -> list[TokenBatch]:
    """Take rows in ``order`` (default: as given), truncate, chunk, and pad.

    ``encoded`` holds ``encode_examples`` records; ``order`` is a sequence of
    row indices. The last partial batch is kept.
    """
    if batch_size < 1:
        raise InvalidConfig("batch_size must be >= 1")
    rows = list(encoded) if order is None else [encoded[i] for i in order]
    seqs = [truncate(row.ids, max_len) for row in rows]
    labels = [row.label for row in rows]
    batches = []
    for start in range(0, len(seqs), batch_size):
        stop = start + batch_size
        batches.append(pad_batch(seqs[start:stop], labels[start:stop], max_len))
    return batches
