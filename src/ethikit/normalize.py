"""Text normalization pipeline: de-shouting, contraction expansion, noise removal.

Noise removal runs first, so the case and contraction stages judge only the
characters that survive it, and last, to tidy what they wrote; the
composition is idempotent. Case is preserved wherever it may carry meaning
(acronyms, proper nouns, short uppercase tokens), so "Title IX" and "US"
survive untouched while shouted passages are lowercased.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from ethikit.errors import ConfigError, reading

# Non-alphanumeric punctuation retained by strip_noise.
KEEP_PUNCT = frozenset(".,!?;:'\"-()")

_WS_SPLIT_RE = re.compile(r"(\s+)")
_MULTI_SPACE_RE = re.compile(r" {2,}")
_EDGE_STRIP_RE = re.compile(r"^\W+|\W+$", re.UNICODE)

_DEFAULT_CONFIG_RESOURCE = "normalize_default.cfg"


@dataclass(frozen=True)
class NormConfig:
    """Parameters for the case-normalization and contraction stages.

    acronym_whitelist entries must be fully uppercase; contraction_table keys
    must be lowercase and contain an apostrophe.
    """

    acronym_whitelist: frozenset[str] = field(default_factory=frozenset)
    contraction_table: dict[str, str] = field(default_factory=dict)
    allcaps_threshold: int = 3

    def __post_init__(self) -> None:
        for entry in self.acronym_whitelist:
            if not entry or entry != entry.upper():
                raise ConfigError(f"whitelist entry not uppercase: {entry!r}")
        for key in self.contraction_table:
            if "'" not in key:
                raise ConfigError(f"contraction key lacks apostrophe: {key!r}")
            if key != key.lower():
                raise ConfigError(f"contraction key not lowercase: {key!r}")
        if self.allcaps_threshold < 1:
            raise ConfigError("allcaps_threshold must be >= 1")


def load_config(path) -> NormConfig:
    """Parse a key/value config file into a NormConfig.

    Recognized keys: ``allcaps_threshold``, repeatable ``acronym``, and any
    key containing an apostrophe, which is taken as a contraction entry.
    """
    whitelist: set[str] = set()
    contractions: dict[str, str] = {}
    threshold = 3
    with reading(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if "'" in key:
            contractions[key] = value
        elif key == "acronym":
            whitelist.add(value)
        elif key == "allcaps_threshold":
            try:
                threshold = int(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad threshold {value!r}") from exc
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return NormConfig(
        acronym_whitelist=frozenset(whitelist),
        contraction_table=contractions,
        allcaps_threshold=threshold,
    )


def default_config() -> NormConfig:
    """The configuration shipped with the package."""
    ref = resources.files("ethikit.data") / _DEFAULT_CONFIG_RESOURCE
    with resources.as_file(ref) as path:
        return load_config(path)


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


def normalize_case(text: str, cfg: NormConfig) -> str:
    """Lowercase shouted passages while preserving meaningful uppercase.

    Consecutive all-caps tokens form a run. When the run's total letter count
    exceeds ``allcaps_threshold``, every token in it is lowercased except
    whitelisted acronyms. Short isolated uppercase tokens ("IX", "US") are
    kept, since their casing disambiguates.
    """
    parts = _WS_SPLIT_RE.split(text)
    # Even indices are tokens (possibly empty at the edges), odd are whitespace.
    shouted = [_is_shouted(token) for token in parts[::2]]
    if not any(shouted):
        return text

    run: list[int] = []

    def flush_run() -> None:
        if not run:
            return
        if sum(_letters(parts[i]) for i in run) > cfg.allcaps_threshold:
            for i in run:
                if _core(parts[i]) not in cfg.acronym_whitelist:
                    parts[i] = parts[i].lower()
        run.clear()

    for i, is_shouted in zip(range(0, len(parts), 2), shouted):
        if is_shouted:
            run.append(i)
        else:
            flush_run()
    flush_run()
    return "".join(parts)


@lru_cache(maxsize=8)
def _contraction_re(keys: tuple[str, ...]) -> re.Pattern[str]:
    ordered = sorted(keys, key=len, reverse=True)
    alternation = "|".join(re.escape(k) for k in ordered)
    return re.compile(rf"(?<![\w'])({alternation})(?![\w'])", re.IGNORECASE)


def expand_contractions(text: str, cfg: NormConfig) -> str:
    """Replace whole-token contractions with their expansions.

    Matching is case-insensitive; a leading capital on the contraction is
    carried onto the expansion. Apostrophes that are not part of a table key
    (possessives, o'clock) are left alone, as is a match whose lowercase is
    not a key ("it'ſ", with a long s, matches "it's" case-insensitively).
    Every key holds an apostrophe, so text without one is returned as is.
    """
    if not cfg.contraction_table or "'" not in text:
        return text
    pattern = _contraction_re(tuple(sorted(cfg.contraction_table)))

    def replace(match: re.Match[str]) -> str:
        found = match.group(0)
        expansion = cfg.contraction_table.get(found.lower())
        if expansion is None:
            return found
        if found[0].isupper() and expansion:
            expansion = expansion[0].upper() + expansion[1:]
        return expansion

    return pattern.sub(replace, text)


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


def normalize(text: str, cfg: NormConfig | None = None) -> str:
    """Full pipeline: case normalization and contraction expansion between noise removals.

    The first noise removal makes the other stages see the text one more
    pass would see: a deleted character neither hides a shouted token
    ("ⅰAA") nor guards a contraction ("_can't"). The second tidies what
    they wrote, such as an expansion or the combining dot of a lowercased
    "İ"; text they return unchanged is already tidy.
    """
    if cfg is None:
        cfg = default_config()
    stripped = strip_noise(text)
    out = expand_contractions(normalize_case(stripped, cfg), cfg)
    return stripped if out is stripped else strip_noise(out)
