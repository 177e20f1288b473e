"""Trainable frequency-aware WordPiece-style tokenizer.

Vocabulary training greedily merges the most frequent adjacent symbol pair
(corpus-count weighted, floor ``min_frequency``) until the budget is spent;
encoding uses greedy longest-match-first with a ``##`` continuation prefix
for non-initial pieces. Whole words that cannot be covered map to [UNK].
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from ethikit.errors import (
    ConfigError,
    DuplicateToken,
    EmptyCorpus,
    IdOutOfRange,
    MalformedVocab,
    reading,
)

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)

CONTINUATION_PREFIX = "##"

MAX_WORD_CHARS = 100


@dataclass(frozen=True)
class TokenizerConfig:
    vocab_size: int = 8000
    min_frequency: int = 2

    def __post_init__(self) -> None:
        if self.vocab_size <= len(SPECIAL_TOKENS):
            raise ConfigError("vocab_size must exceed the special-token count")
        if self.min_frequency < 1:
            raise ConfigError("min_frequency must be >= 1")


class Vocab:
    """Immutable subword inventory with dense ids; specials occupy 0..4.

    Each vocab also memoises the ids of every word ``encode`` has segmented
    with it, so a repeated word is segmented once.
    """

    continuation_prefix = CONTINUATION_PREFIX

    def __init__(self, tokens):
        tokens = tuple(tokens)
        if tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise MalformedVocab(
                f"first {len(SPECIAL_TOKENS)} tokens must be {SPECIAL_TOKENS}"
            )
        id_of: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if tok in id_of:
                raise DuplicateToken(f"token {tok!r} appears twice")
            id_of[tok] = i
        self.tokens = tokens
        self.id_of = id_of
        self._word_ids: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise IdOutOfRange(f"id {token_id} outside 0..{len(self.tokens) - 1}")
        return self.tokens[token_id]


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION_PREFIX + ch for ch in word[1:]]


def _strip_prefix(piece: str) -> str:
    """A continuation piece without its prefix."""
    return piece[len(CONTINUATION_PREFIX):]


def _merge_word(seq: list[str], left: str, right: str, merged: str) -> list[str]:
    """Rewrite every adjacent (left, right) of one word into ``merged``.

    Overlapping occurrences are consumed greedily from the left, so with
    left == right a run of three symbols merges only its first two.
    """
    out = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == left and seq[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


class _HeapEntry:
    """``heapq`` entry that pops the highest count first, ties to the greatest pair."""

    __slots__ = ("count", "pair")

    def __init__(self, count: int, pair: tuple[str, str]):
        self.count = count
        self.pair = pair

    def __lt__(self, other: "_HeapEntry") -> bool:
        if self.count != other.count:
            return self.count > other.count
        return self.pair > other.pair


def train_vocab(corpus, cfg: TokenizerConfig) -> Vocab:
    """Learn a subword vocabulary from normalized text.

    Single characters meeting the frequency floor seed the inventory; then the
    most frequent adjacent pair (ties to the lexicographically greatest pair)
    is merged repeatedly while its joint count still meets the floor and the
    size budget allows. A merge whose result is already a token is applied
    but adds no token. Deterministic for a fixed corpus and config.

    The pair counts are kept between merges rather than recounted: the
    corpus is counted once, together with an index from each pair to the
    words that hold it, and a merge recounts only those words (their old
    pairs are subtracted, the word is rewritten, its new pairs are added).
    The best pair comes from a lazy max-heap of (count, pair) entries, a
    pair being pushed again whenever its count changes; an entry whose
    count no longer matches the pair's current count is discarded when
    popped. The result equals a full recount of every pair before every
    merge.
    """
    word_counts: Counter[str] = Counter()
    for line in corpus:
        word_counts.update(line.split())
    if not word_counts:
        raise EmptyCorpus("corpus contains no tokens")

    char_counts: Counter[str] = Counter()
    for word, freq in word_counts.items():
        for ch in word:
            char_counts[ch] += freq
    alphabet = sorted(
        ch for ch, count in char_counts.items() if count >= cfg.min_frequency
    )

    tokens: list[str] = list(SPECIAL_TOKENS) + alphabet
    token_set = set(tokens)

    words = sorted(word_counts)
    seqs: list[list[str]] = [_word_symbols(w) for w in words]
    freqs: list[int] = [word_counts[w] for w in words]

    counts: dict[tuple[str, str], int] = {}
    where: dict[tuple[str, str], list[int]] = {}
    for idx, (seq, freq) in enumerate(zip(seqs, freqs)):
        pairs = list(zip(seq, seq[1:]))
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + freq
        for pair in set(pairs):
            where.setdefault(pair, []).append(idx)
    heap = [_HeapEntry(count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)

    while len(tokens) < cfg.vocab_size:
        while heap and counts.get(heap[0].pair) != heap[0].count:
            heapq.heappop(heap)
        if not heap or heap[0].count < cfg.min_frequency:
            break
        left, right = heapq.heappop(heap).pair
        merged = left + _strip_prefix(right)
        delta: dict[tuple[str, str], int] = {}
        for idx in where.pop((left, right)):
            seq = seqs[idx]
            new_seq = _merge_word(seq, left, right, merged)
            if len(new_seq) == len(seq):
                continue  # listed under a pair it has since lost
            freq = freqs[idx]
            old_pairs = list(zip(seq, seq[1:]))
            new_pairs = list(zip(new_seq, new_seq[1:]))
            for pair in old_pairs:
                delta[pair] = delta.get(pair, 0) - freq
            for pair in new_pairs:
                delta[pair] = delta.get(pair, 0) + freq
            for pair in set(new_pairs).difference(old_pairs):
                where.setdefault(pair, []).append(idx)
            seqs[idx] = new_seq
        for pair, change in delta.items():
            if not change:
                continue
            count = counts[pair] = counts.get(pair, 0) + change
            if count:
                heapq.heappush(heap, _HeapEntry(count, pair))
            else:
                del counts[pair]
        if merged not in token_set:
            tokens.append(merged)
            token_set.add(merged)

    return Vocab(tokens)


def encode_word(word: str, vocab: Vocab) -> list[int]:
    """Segment one whitespace-free word into token ids by greedy longest match.

    Non-initial pieces carry the continuation prefix. A word that is empty,
    longer than ``MAX_WORD_CHARS`` or not fully coverable maps to a single
    [UNK].
    """
    n = len(word)
    if n == 0 or n > MAX_WORD_CHARS:
        return [UNK_ID]
    id_of = vocab.id_of
    ids: list[int] = []
    start = 0
    while start < n:
        end = n
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = vocab.continuation_prefix + piece
            if piece in id_of:
                ids.append(id_of[piece])
                break
            end -= 1
        else:
            return [UNK_ID]
        start = end
    return ids


def encode(text: str, vocab: Vocab) -> list[int]:
    """Whitespace-split then encode each word; no specials are added here.

    A word is segmented once per vocab; later occurrences reuse its ids.
    """
    ids: list[int] = []
    word_ids = vocab._word_ids
    for word in text.split():
        cached = word_ids.get(word)
        if cached is None:
            cached = word_ids[word] = tuple(encode_word(word, vocab))
        ids.extend(cached)
    return ids


def decode(ids, vocab: Vocab) -> str:
    """Inverse of encode up to [UNK] losses.

    Continuation pieces are glued to their predecessor; everything else is
    space-separated.
    """
    words: list[str] = []
    for token_id in ids:
        tok = vocab.token(token_id)
        if tok.startswith(vocab.continuation_prefix) and words:
            words[-1] += _strip_prefix(tok)
        else:
            words.append(tok)
    return " ".join(words)


def save_vocab(vocab: Vocab, path) -> None:
    """One token per line; the line number is the id."""
    with reading(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocab:
    with reading(path), open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    if len(tokens) < len(SPECIAL_TOKENS):
        raise MalformedVocab(f"{path}: fewer than {len(SPECIAL_TOKENS)} tokens")
    return Vocab(tokens)
