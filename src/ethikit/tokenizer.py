"""Trainable frequency-aware WordPiece-style tokenizer.

Vocabulary training greedily merges the most frequent adjacent symbol pair
(corpus-count weighted, floor ``min_frequency``) until the budget is spent;
encoding uses greedy longest-match-first with a ``##`` continuation prefix
for non-initial pieces. Whole words that cannot be covered map to [UNK].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg

from ethikit.errors import (
    ConfigError,
    DuplicateToken,
    EmptyCorpus,
    IdOutOfRange,
    MalformedVocab,
    TooManySymbols,
    reading,
)

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)

CONTINUATION_PREFIX = "##"

MAX_WORD_CHARS = 100

# Code points a str can hold: the most symbol names train_vocab can learn from.
MAX_SYMBOLS = 0x110000


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


def _strip_prefix(piece: str) -> str:
    """A continuation piece without its prefix."""
    return piece[len(CONTINUATION_PREFIX):]


def train_vocab(corpus, cfg: TokenizerConfig) -> Vocab:
    """Learn a subword vocabulary from normalized text.

    Single characters meeting the frequency floor seed the inventory; then the
    most frequent adjacent pair (ties to the lexicographically greatest pair)
    is merged repeatedly while its joint count still meets the floor and the
    size budget allows. A merge whose result is already a token is applied
    but adds no token. Deterministic for a fixed corpus and config.

    Each distinct symbol name (``a``, ``##b``, a merged name) is one code
    point, so a word is a ``str`` of codes, a pair is a 2-character slice,
    and merging pair P into code X is ``word.replace(P, X)``, whose
    left-to-right, non-overlapping rule merges ``aaa`` into ``Xa``. At most
    ``MAX_SYMBOLS`` names fit, the first and ``##`` forms of a character
    counting apart; a corpus needing more raises TooManySymbols.

    The pair counts are kept between merges rather than recounted: the
    corpus is counted once, together with an index from each pair to the
    words that hold it, and a merge recounts only those words, and in each
    only the window from one left of its first P to one right of its last X.
    The best pair comes from a lazy heap of ``(-count, key(left),
    key(right), pair)`` tuples, where ``key`` is the negated ``ord`` of each
    character of a symbol's name followed by 1, so the greater name, or the
    longer of a name and its prefix, pops first. A pair whose count grows is
    pushed again. An entry above its pair's count is pushed again at that
    count when it reaches the top; one below it, or whose pair has fallen
    under the floor, is discarded. The result equals a full recount of every
    pair before every merge.
    """
    word_counts = Counter(" ".join(corpus).split())
    if not word_counts:
        raise EmptyCorpus("corpus contains no tokens")

    char_counts: dict[str, int] = {}
    for word, freq in word_counts.items():
        for ch in word:
            char_counts[ch] = char_counts.get(ch, 0) + freq
    floor = cfg.min_frequency
    alphabet = sorted(ch for ch, count in char_counts.items() if count >= floor)

    tokens: list[str] = list(SPECIAL_TOKENS) + alphabet
    token_set = set(tokens)

    code_of: dict[str, str] = {}
    name_of: dict[str, str] = {}
    key_of: dict[str, tuple[int, ...]] = {}

    def code(name: str) -> str:
        """The code point of symbol ``name``, assigned on first sight."""
        c = code_of.get(name)
        if c is None:
            if len(code_of) >= MAX_SYMBOLS:
                raise TooManySymbols(f"the corpus needs more than {MAX_SYMBOLS} symbols")
            c = code_of[name] = chr(len(code_of))
            name_of[c] = name
            key_of[c] = (*map(neg, map(ord, name)), 1)
        return c

    first = {ch: code(ch) for ch in char_counts}
    rest = {ord(ch): code(CONTINUATION_PREFIX + ch) for ch in char_counts}
    words = [first[w[0]] + w[1:].translate(rest) for w in word_counts]
    freqs = list(word_counts.values())

    counts: dict[str, int] = {}
    where: dict[str, list[int]] = {}
    for idx, (word, freq) in enumerate(zip(words, freqs)):
        for pair in map(str.__add__, word, word[1:]):
            counts[pair] = counts.get(pair, 0) + freq
            where.setdefault(pair, []).append(idx)
    heap = [(-count, key_of[p[0]], key_of[p[1]], p) for p, count in counts.items()
            if count >= floor]
    heapify(heap)

    while len(tokens) < cfg.vocab_size:
        while heap:
            top = heap[0]
            count = counts.get(top[3], 0)
            if count == -top[0]:
                break
            heappop(heap)
            if floor <= count < -top[0]:
                heappush(heap, (-count, *top[1:]))
        if not heap or -heap[0][0] < floor:
            break
        best = heappop(heap)[3]
        merged = name_of[best[0]] + _strip_prefix(name_of[best[1]])
        x = code(merged)
        grown = set()
        for idx in where.pop(best):
            word = words[idx]
            new = word.replace(best, x)
            k = len(word) - len(new)
            if not k:
                continue  # listed twice, or under a pair it has since lost
            freq = freqs[idx]
            lo = max(word.find(best) - 1, 0)
            end = new.rfind(x) + 2
            old_win, new_win = word[lo:end + k], new[lo:end]
            for pair in map(str.__add__, old_win, old_win[1:]):
                counts[pair] -= freq
            for pair in map(str.__add__, new_win, new_win[1:]):
                counts[pair] = counts.get(pair, 0) + freq
                grown.add(pair)
                if pair not in word:
                    where.setdefault(pair, []).append(idx)
            words[idx] = new
        for pair in grown:
            heappush(heap, (-counts[pair], key_of[pair[0]], key_of[pair[1]], pair))
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
