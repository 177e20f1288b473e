import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ethikit import normalize as normalize_mod
from ethikit.errors import ConfigError
from ethikit.normalize import (
    KEEP_PUNCT,
    NormConfig,
    default_config,
    expand_contractions,
    load_config,
    normalize,
    normalize_case,
    strip_noise,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


# --- references: each stage doing its work per occurrence ---

def _reference_is_shouted(token):
    cased = [ch for ch in token if ch.lower() != ch.upper()]
    return bool(cased) and all(ch == ch.upper() for ch in cased)


def _reference_normalize_case(text, cfg):
    """Every token checked where it occurs; no early return."""
    parts = re.split(r"(\s+)", text)
    token_idx = [i for i in range(0, len(parts), 2) if parts[i]]
    run = []

    def flush_run():
        letters = sum(1 for i in run for ch in parts[i] if ch.isalpha())
        if letters > cfg.allcaps_threshold:
            for i in run:
                if re.sub(r"^\W+|\W+$", "", parts[i]) not in cfg.acronym_whitelist:
                    parts[i] = parts[i].lower()
        run.clear()

    for i in token_idx:
        if _reference_is_shouted(parts[i]):
            run.append(i)
        else:
            flush_run()
    flush_run()
    return "".join(parts)


def _reference_expand_contractions(text, cfg):
    """The table's matcher run on every text, apostrophe or not."""
    if not cfg.contraction_table:
        return text
    ordered = sorted(cfg.contraction_table, key=len, reverse=True)
    alternation = "|".join(re.escape(k) for k in ordered)
    pattern = re.compile(rf"(?<![\w'])({alternation})(?![\w'])", re.IGNORECASE)

    def replace(match):
        found = match.group(0)
        expansion = cfg.contraction_table.get(found.lower())
        if expansion is None:
            return found
        if found[0].isupper() and expansion:
            expansion = expansion[0].upper() + expansion[1:]
        return expansion

    return pattern.sub(replace, text)


def _reference_strip_noise(text):
    """One keep/space/drop decision per character occurrence."""
    out = []
    for ch in text:
        if ch.isspace():
            out.append(" ")
        elif ch.isalpha() or ch.isdigit() or ch in KEEP_PUNCT:
            out.append(ch)
    return re.sub(" {2,}", " ", "".join(out)).strip()


# Pieces where Unicode's case, space and letter rules disagree with ASCII
# intuition, mixed with contractions and shouted runs.
_TRICKY_PIECES = [
    " ", " ", "  ", "\t", "\n", "\r", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f",
    "\u2028", "\x00", "\u200b", "ß", "ẞ", "Σ", "ς", "σ", "ΟΔΟΣ", "\u03d2", "\u2102",
    "ℂℂℂ", "İ", "ǅ", "ſ", "K", "'", "’", "can't", "CAN'T", "Won't", "it's",
    "IT'ſ", "o'clock", "dog's", "THE", "US", "IX", "NOT", "OK", "WE'RE", "HELLO!",
    "(WRONG)", "—", "☂", "1984", "٣",
]
_unicode_text = st.lists(
    st.one_of(st.sampled_from(_TRICKY_PIECES), st.text(max_size=6)), max_size=24,
).map("".join)


class TestAgainstReferences:
    """Each stage gives the per-occurrence reference's output."""

    def test_strip_noise_every_code_point(self, monkeypatch):
        # A fresh table, so every entry is filled by this string; the second
        # pass reads the filled table.
        monkeypatch.setattr(normalize_mod, "_NOISE_TABLE", normalize_mod._NoiseTable())
        text = "".join(map(chr, range(0x110000)))
        expected = _reference_strip_noise(text)
        assert strip_noise(text) == expected
        assert strip_noise(text) == expected

    @given(_unicode_text)
    @settings(max_examples=300, deadline=None)
    def test_each_stage(self, text):
        cfg = default_config()
        assert normalize_case(text, cfg) == _reference_normalize_case(text, cfg)
        assert expand_contractions(text, cfg) == _reference_expand_contractions(text, cfg)
        assert strip_noise(text) == _reference_strip_noise(text)

    @given(_unicode_text)
    @settings(max_examples=300, deadline=None)
    def test_pipeline(self, text):
        cfg = default_config()
        expected = _reference_strip_noise(_reference_expand_contractions(
            _reference_normalize_case(_reference_strip_noise(text), cfg), cfg))
        assert normalize(text, cfg) == expected

    def test_no_case_mapping_is_not_shouted(self, cfg):
        # U+2102 is an uppercase letter to str.isupper, but has no lowercase,
        # so it does not join the run and "IS" stays under the threshold.
        assert normalize_case("\u2102\u2102 IS", cfg) == "\u2102\u2102 IS"
        assert normalize_case("\u03d2\u03d2 IS", cfg) == "\u03d2\u03d2 IS"


class TestNormalizeCase:
    def test_deshouts_long_runs_keeps_whitelist(self, cfg):
        assert normalize_case("THIS IS WRONG about the US", cfg) == \
            "this is wrong about the US"

    def test_empty(self, cfg):
        assert normalize_case("", cfg) == ""

    def test_short_acronym_preserved(self, cfg):
        assert normalize_case("Title IX applies", cfg) == "Title IX applies"

    def test_isolated_long_token(self, cfg):
        assert normalize_case("HELLO world", cfg) == "hello world"

    def test_whitelisted_inside_run(self, cfg):
        assert normalize_case("THE US IS BAD", cfg) == "the US is bad"

    def test_mixed_case_untouched(self, cfg):
        assert normalize_case("McDonald stayed", cfg) == "McDonald stayed"

    def test_whitespace_preserved(self, cfg):
        assert normalize_case("A  B\tC", cfg) == "A  B\tC"


class TestExpandContractions:
    def test_plain(self, cfg):
        assert expand_contractions("can't", cfg) == "cannot"

    def test_leading_capital_preserved(self, cfg):
        assert expand_contractions("Can't stop", cfg) == "Cannot stop"

    def test_unknown_apostrophe_untouched(self, cfg):
        assert expand_contractions("o'clock", cfg) == "o'clock"

    def test_possessive_untouched(self, cfg):
        assert expand_contractions("the dog's bone", cfg) == "the dog's bone"

    def test_not_inside_words(self, cfg):
        assert expand_contractions("scant'stop", cfg) == "scant'stop"

    def test_case_insensitive_match_that_is_not_a_key(self, cfg):
        # The pattern matches long s (U+017F) as "s", but "it'\u017f" is no key.
        assert expand_contractions("IT'\u017f so", cfg) == "IT'\u017f so"
        assert normalize("it'\u017f so", cfg) == "it'\u017f so"


class TestStripNoise:
    def test_tabs_and_symbols(self):
        assert strip_noise("hello\t\tworld ☂") == "hello world"

    def test_keep_set_untouched(self):
        text = 'He said, "no!"'
        assert strip_noise(text) == text

    def test_trim_and_collapse(self):
        assert strip_noise("  a  ") == "a"

    def test_control_chars_removed(self):
        assert strip_noise("a\x00b") == "ab"


class TestPipeline:
    def test_composition_example(self, cfg):
        assert normalize("can't   do THAT", cfg) == "cannot do that"

    def test_empty(self, cfg):
        assert normalize("", cfg) == ""

    def test_fixed_point(self, cfg):
        assert normalize("I am here", cfg) == "I am here"

    def test_equals_staged_application(self, cfg):
        text = "WE'RE NOT OK — they'd said so… (twice!)"
        staged = strip_noise(expand_contractions(normalize_case(text, cfg), cfg))
        assert normalize(text, cfg) == staged

    @given(st.text(max_size=200))
    @example("AA\r/\rAº")  # "/" splits the run only until strip_noise deletes it
    @example("AA ⅰAA")  # the deleted "ⅰ" is lowercase, "AA" once it is gone
    @example("_can't")  # the deleted "_" guards the contraction from expansion
    @example("½can't")
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        cfg = default_config()
        once = normalize(text, cfg)
        assert normalize(once, cfg) == once

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_output_alphabet(self, text):
        out = normalize(text, default_config())
        for ch in out:
            assert ch == " " or ch.isalpha() or ch.isdigit() or ch in KEEP_PUNCT
        assert "  " not in out


class TestConfig:
    def test_default_table_pins_cant(self, cfg):
        assert cfg.contraction_table["can't"] == "cannot"
        assert len(cfg.contraction_table) >= 50
        assert cfg.allcaps_threshold == 3
        assert {"US", "AI", "OK", "TV", "UN", "IX"} <= cfg.acronym_whitelist

    def test_whitelist_must_be_uppercase(self):
        with pytest.raises(ConfigError):
            NormConfig(acronym_whitelist=frozenset({"Us"}))

    def test_contraction_keys_need_apostrophe(self):
        with pytest.raises(ConfigError):
            NormConfig(contraction_table={"cant": "cannot"})

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "norm.cfg"
        path.write_text(
            "allcaps_threshold = 2\nacronym = NASA\nwon't = will not\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.allcaps_threshold == 2
        assert cfg.acronym_whitelist == frozenset({"NASA"})
        assert cfg.contraction_table == {"won't": "will not"}

    def test_load_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "norm.cfg"
        path.write_text("mystery = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)
