"""Text normalization pipeline: de-shouting, contraction expansion, noise removal.

Noise removal runs first, so the case and contraction stages judge only the
characters that survive it, and last, to tidy what they wrote; the
composition is idempotent. Case is preserved wherever it may carry meaning
(acronyms, proper nouns, short uppercase tokens), so "Title IX" and "US"
survive untouched while shouted passages are lowercased.
"""

from __future__ import annotations

import re
from functools import lru_cache
from types import MappingProxyType

# Non-alphanumeric punctuation retained by strip_noise.
KEEP_PUNCT = frozenset(".,!?;:'\"-()")

_WS_SPLIT_RE = re.compile(r"(\s+)")
_MULTI_SPACE_RE = re.compile(r" {2,}")
_EDGE_STRIP_RE = re.compile(r"^\W+|\W+$", re.UNICODE)

# Whitelisted acronyms keep their case inside a shouted run. Entries are
# fully uppercase.
ACRONYM_WHITELIST = frozenset({"US", "AI", "OK", "TV", "UN", "IX"})

# A run of shouted tokens is lowercased when it holds more letters than this.
ALLCAPS_THRESHOLD = 3

# Keys are lowercase and hold an apostrophe. Possessive "'s" is deliberately
# absent: it is ambiguous with "is"/"has". Pronoun+"'s" entries pick the
# copula reading; "'d" picks "would".
CONTRACTIONS = MappingProxyType({
    "ain't": "am not", "aren't": "are not", "can't": "cannot", "couldn't": "could not",
    "didn't": "did not", "doesn't": "does not", "don't": "do not", "hadn't": "had not",
    "hasn't": "has not", "haven't": "have not", "he'd": "he would", "he'll": "he will",
    "he's": "he is", "how's": "how is", "i'd": "i would", "i'll": "i will", "i'm": "i am",
    "i've": "i have", "isn't": "is not", "it'd": "it would", "it'll": "it will",
    "it's": "it is", "let's": "let us", "mightn't": "might not", "mustn't": "must not",
    "shan't": "shall not", "she'd": "she would", "she'll": "she will", "she's": "she is",
    "shouldn't": "should not", "that's": "that is", "there's": "there is",
    "they'd": "they would", "they'll": "they will", "they're": "they are",
    "they've": "they have", "wasn't": "was not", "we'd": "we would", "we'll": "we will",
    "we're": "we are", "we've": "we have", "weren't": "were not", "what's": "what is",
    "where's": "where is", "who's": "who is", "won't": "will not", "wouldn't": "would not",
    "you'd": "you would", "you'll": "you will", "you're": "you are", "you've": "you have",
})

# A whole token of word characters and apostrophes that holds an apostrophe;
# whether it is a contraction is one lookup of its lowercase.
_APOSTROPHE_TOKEN_RE = re.compile(r"(?<![\w'])[\w']*'[\w']*")


def _letters(token: str) -> int:
    return sum(1 for ch in token if ch.isalpha())


@lru_cache(maxsize=1 << 14)
def _is_shouted(token: str) -> bool:
    """True when the token has at least one letter and no lowercase letters.

    Cached: a corpus repeats its tokens, so each distinct token is checked
    once. ``str.isupper`` is not a stand-in; it disagrees on code points
    such as U+03D2 and U+2102, which have no case mapping.
    """
    cased = [ch for ch in token if ch.lower() != ch.upper()]
    return bool(cased) and all(ch == ch.upper() for ch in cased)


def _core(token: str) -> str:
    """Token with non-word edges stripped, for whitelist lookup."""
    return _EDGE_STRIP_RE.sub("", token)


def normalize_case(text: str) -> str:
    """Lowercase shouted passages while preserving meaningful uppercase.

    Consecutive all-caps tokens form a run. When the run's total letter count
    exceeds ``ALLCAPS_THRESHOLD``, every token in it is lowercased except
    whitelisted acronyms. Short isolated uppercase tokens ("IX", "US") are
    kept, since their casing disambiguates.
    """
    if not any(map(_is_shouted, text.split())):
        return text
    parts = _WS_SPLIT_RE.split(text)
    # Even indices are tokens (possibly empty at the edges), odd are whitespace.
    shouted = [_is_shouted(token) for token in parts[::2]]

    run: list[int] = []

    def flush_run() -> None:
        if not run:
            return
        if sum(_letters(parts[i]) for i in run) > ALLCAPS_THRESHOLD:
            for i in run:
                if _core(parts[i]) not in ACRONYM_WHITELIST:
                    parts[i] = parts[i].lower()
        run.clear()

    for i, is_shouted in zip(range(0, len(parts), 2), shouted):
        if is_shouted:
            run.append(i)
        else:
            flush_run()
    flush_run()
    return "".join(parts)


def expand_contractions(text: str) -> str:
    """Replace whole-token contractions with their expansions.

    A token is a maximal run of word characters and apostrophes; one whose
    lowercase is a table key is replaced, and a leading capital on it is
    carried onto the expansion. Other tokens with an apostrophe
    (possessives, o'clock, "it'ſ" with a long s) are left alone. Every key
    holds an apostrophe, so text without one is returned as is.
    """
    if "'" not in text:
        return text

    def replace(match: re.Match[str]) -> str:
        found = match.group(0)
        expansion = CONTRACTIONS.get(found.lower())
        if expansion is None:
            return found
        if found[0].isupper():
            expansion = expansion[0].upper() + expansion[1:]
        return expansion

    return _APOSTROPHE_TOKEN_RE.sub(replace, text)


class _NoiseTable(dict):
    """``str.translate`` table for strip_noise, filled on first sight of a code point.

    Whitespace maps to a space, letters, digits and KEEP_PUNCT to themselves,
    and everything else to None (dropped).
    """

    def __missing__(self, code: int):
        ch = chr(code)
        if ch.isspace():
            out = " "
        elif ch.isalpha() or ch.isdigit() or ch in KEEP_PUNCT:
            out = code
        else:
            out = None
        self[code] = out
        return out


_NOISE_TABLE = _NoiseTable()


def strip_noise(text: str) -> str:
    """Drop characters outside the keep-set and tidy whitespace.

    Keeps letters, digits, and sentence punctuation; every whitespace run
    becomes one space; control characters and symbols are removed.
    """
    collapsed = _MULTI_SPACE_RE.sub(" ", text.translate(_NOISE_TABLE))
    return collapsed.strip()


def normalize(text: str) -> str:
    """Full pipeline: case normalization and contraction expansion between noise removals.

    The first noise removal makes the other stages see the text one more
    pass would see: a deleted character neither hides a shouted token
    ("ⅰAA") nor guards a contraction ("_can't"). The second tidies what
    they wrote, such as an expansion or the combining dot of a lowercased
    "İ"; text they return unchanged is already tidy.
    """
    stripped = strip_noise(text)
    out = expand_contractions(normalize_case(stripped))
    return stripped if out is stripped else strip_noise(out)
