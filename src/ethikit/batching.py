"""Fixed-shape model inputs: sequence templates, truncation, dynamic padding.

An example with one text becomes [CLS] text [SEP]; a pair appends its second
text and another [SEP]. ``encode_examples`` applies the template once per
example; every later consumer batches those ids, in an order it chooses, and
truncates them to its own maximum length. Padding length adapts to the
longest sequence in each batch, capped by the maximum sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ethikit import tokenizer
from ethikit.errors import ConfigError, EmptyBatch, InvalidLength
from ethikit.tokenizer import CLS_ID, PAD_ID, SEP_ID, Vocab

DEFAULT_MAX_LEN = 128
DEFAULT_BATCH_SIZE = 32


@dataclass(kw_only=True)
class Example:
    """One labeled scenario; a pair carries a second text (trait/excuse)."""

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
    """Apply the template the example's shape selects; texts must already be normalized."""
    ids = [CLS_ID] + tokenizer.encode(ex.text_a, vocab) + [SEP_ID]
    if ex.text_b is not None:
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
    if min(lengths) == 0:
        raise InvalidLength("an empty sequence has no token to attend to")
    if max(lengths) > l_cap:
        raise InvalidLength(f"sequence of length {max(lengths)} exceeds cap {l_cap}")
    width = min(max(lengths), l_cap)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=np.int8)
    for i, seq in enumerate(seqs):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1
    return TokenBatch(ids=ids, mask=mask, labels=np.asarray(labels, dtype=np.int64))


def _packed_starts(lengths, slots: int) -> list[int]:
    """Where each batch starts when it takes rows while rows x padded width <= slots."""
    starts, width = [0], 0
    for i, n in enumerate(lengths):
        width = max(width, n)
        if (i - starts[-1] + 1) * width > slots:
            starts.append(i)
            width = n
    return starts


def make_batches(
    encoded,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order=None,
    *,
    max_len: int,
    pack: bool = False,
) -> list[TokenBatch]:
    """Take rows in ``order`` (default: as given), truncate, chunk, and pad.

    ``encoded`` holds ``encode_examples`` records; ``order`` is a sequence of
    row indices. A batch holds ``batch_size`` rows. With ``pack``, a batch
    instead takes rows while its rows x padded width stays within
    ``batch_size`` x the widest truncated row, the padded size of a full
    batch of the widest rows; taken in order of length, short rows then
    share a batch. The last partial batch is kept.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    rows = list(encoded) if order is None else [encoded[i] for i in order]
    seqs = [truncate(row.ids, max_len) for row in rows]
    labels = [row.label for row in rows]
    if pack and seqs:
        lengths = list(map(len, seqs))
        starts = _packed_starts(lengths, batch_size * max(lengths))
    else:
        starts = range(0, len(seqs), batch_size)
    stops = [*starts[1:], len(seqs)]
    return [pad_batch(seqs[start:stop], labels[start:stop], max_len)
            for start, stop in zip(starts, stops)]
