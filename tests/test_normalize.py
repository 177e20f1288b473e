import hashlib
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ethikit import normalize as normalize_mod
from ethikit.normalize import (
    ACRONYM_WHITELIST,
    ALLCAPS_THRESHOLD,
    CONTRACTIONS,
    KEEP_PUNCT,
    expand_contractions,
    normalize,
    normalize_case,
    strip_noise,
)


# --- references: each stage doing its work per occurrence ---

def _reference_is_shouted(token):
    cased = [ch for ch in token if ch.lower() != ch.upper()]
    return bool(cased) and all(ch == ch.upper() for ch in cased)


def _reference_normalize_case(text):
    """Every token checked where it occurs; no early return."""
    parts = re.split(r"(\s+)", text)
    token_idx = [i for i in range(0, len(parts), 2) if parts[i]]
    run = []

    def flush_run():
        letters = sum(1 for i in run for ch in parts[i] if ch.isalpha())
        if letters > ALLCAPS_THRESHOLD:
            for i in run:
                if re.sub(r"^\W+|\W+$", "", parts[i]) not in ACRONYM_WHITELIST:
                    parts[i] = parts[i].lower()
        run.clear()

    for i in token_idx:
        if _reference_is_shouted(parts[i]):
            run.append(i)
        else:
            flush_run()
    flush_run()
    return "".join(parts)


def _reference_expand_contractions(text):
    """A case-insensitive alternation of the keys, run on every text, apostrophe or not."""
    ordered = sorted(CONTRACTIONS, key=len, reverse=True)
    alternation = "|".join(re.escape(k) for k in ordered)
    pattern = re.compile(rf"(?<![\w'])({alternation})(?![\w'])", re.IGNORECASE)

    def replace(match):
        found = match.group(0)
        expansion = CONTRACTIONS.get(found.lower())
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


# Contractions in every case, with look-alike letters and the characters
# that do or do not end a token around them.
_contraction = st.tuples(
    st.sampled_from(sorted(CONTRACTIONS)),
    st.sampled_from([str.lower, str.upper, str.title, str.capitalize,
                     lambda k: k.replace("s", "\u017f"), lambda k: k.replace("i", "\u0130")]),
).map(lambda pair: pair[1](pair[0]))
_apostrophe_text = st.lists(
    st.one_of(_contraction,
              st.sampled_from(["'", "''", " ", "(", ")", "_", "-", "ve", "s", "é", "K", "٣"]),
              st.text(alphabet="acdeilmnorstuvw'", max_size=5)),
    max_size=12,
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
        assert normalize_case(text) == _reference_normalize_case(text)
        assert expand_contractions(text) == _reference_expand_contractions(text)
        assert strip_noise(text) == _reference_strip_noise(text)

    @given(_apostrophe_text)
    @settings(max_examples=500, deadline=None)
    @example("it'\u017f \u0130'm (can't) can't've Won't")
    def test_contractions_against_the_alternation(self, text):
        # the reference matches the table's keys by a case-insensitive
        # alternation; expand_contractions looks whole tokens up instead
        assert expand_contractions(text) == _reference_expand_contractions(text)

    @given(_unicode_text)
    @settings(max_examples=300, deadline=None)
    def test_pipeline(self, text):
        expected = _reference_strip_noise(_reference_expand_contractions(
            _reference_normalize_case(_reference_strip_noise(text))))
        assert normalize(text) == expected

    def test_no_case_mapping_is_not_shouted(self):
        # U+2102 is an uppercase letter to str.isupper, but has no lowercase,
        # so it does not join the run and "IS" stays under the threshold.
        assert normalize_case("\u2102\u2102 IS") == "\u2102\u2102 IS"
        assert normalize_case("\u03d2\u03d2 IS") == "\u03d2\u03d2 IS"


class TestNormalizeCase:
    def test_deshouts_long_runs_keeps_whitelist(self):
        assert normalize_case("THIS IS WRONG about the US") == \
            "this is wrong about the US"

    def test_empty(self):
        assert normalize_case("") == ""

    def test_short_acronym_preserved(self):
        assert normalize_case("Title IX applies") == "Title IX applies"

    def test_isolated_long_token(self):
        assert normalize_case("HELLO world") == "hello world"

    def test_whitelisted_inside_run(self):
        assert normalize_case("THE US IS BAD") == "the US is bad"

    def test_mixed_case_untouched(self):
        assert normalize_case("McDonald stayed") == "McDonald stayed"

    def test_whitespace_preserved(self):
        assert normalize_case("A  B\tC") == "A  B\tC"


class TestExpandContractions:
    def test_plain(self):
        assert expand_contractions("can't") == "cannot"

    def test_leading_capital_preserved(self):
        assert expand_contractions("Can't stop") == "Cannot stop"

    def test_unknown_apostrophe_untouched(self):
        assert expand_contractions("o'clock") == "o'clock"

    def test_possessive_untouched(self):
        assert expand_contractions("the dog's bone") == "the dog's bone"

    def test_not_inside_words(self):
        assert expand_contractions("scant'stop") == "scant'stop"

    def test_case_insensitive_match_that_is_not_a_key(self):
        # The pattern matches long s (U+017F) as "s", but "it'\u017f" is no key.
        assert expand_contractions("IT'\u017f so") == "IT'\u017f so"
        assert normalize("it'\u017f so") == "it'\u017f so"


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
    def test_composition_example(self):
        assert normalize("can't   do THAT") == "cannot do that"

    def test_empty(self):
        assert normalize("") == ""

    def test_fixed_point(self):
        assert normalize("I am here") == "I am here"

    def test_equals_staged_application(self):
        text = "WE'RE NOT OK — they'd said so… (twice!)"
        staged = strip_noise(expand_contractions(normalize_case(text)))
        assert normalize(text) == staged

    @given(st.text(max_size=200))
    @example("AA\r/\rAº")  # "/" splits the run only until strip_noise deletes it
    @example("AA ⅰAA")  # the deleted "ⅰ" is lowercase, "AA" once it is gone
    @example("_can't")  # the deleted "_" guards the contraction from expansion
    @example("½can't")
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_output_alphabet(self, text):
        out = normalize(text)
        for ch in out:
            assert ch == " " or ch.isalpha() or ch.isdigit() or ch in KEEP_PUNCT
        assert "  " not in out


class TestConfig:
    def test_default_table_pins_cant(self):
        assert CONTRACTIONS["can't"] == "cannot"
        assert len(CONTRACTIONS) >= 50
        assert ALLCAPS_THRESHOLD == 3
        assert {"US", "AI", "OK", "TV", "UN", "IX"} <= ACRONYM_WHITELIST

    def test_default_table_is_pinned(self):
        # the threshold, the sorted whitelist and the contraction entries in
        # table order: a changed entry or order changes every command's text
        table = [ALLCAPS_THRESHOLD, sorted(ACRONYM_WHITELIST), list(CONTRACTIONS.items())]
        digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
        assert digest == "00e61472d8a10f201b508aabe751636806242f8a12c01cb6fe96a95e01f926fd"

    def test_constants_are_well_formed(self):
        # expand_contractions returns text without an apostrophe as is and
        # looks each match up lowercased, which is right only for such keys;
        # a whitelist entry that is not uppercase is never a shouted token
        for key in CONTRACTIONS:
            assert "'" in key and key == key.lower(), key
        for entry in ACRONYM_WHITELIST:
            assert entry and entry == entry.upper(), entry
        assert ALLCAPS_THRESHOLD >= 1

    def test_checked_table_is_read_only(self):
        with pytest.raises(TypeError):
            CONTRACTIONS["can't"] = "can not"
        with pytest.raises(TypeError):
            CONTRACTIONS["Bad Key"] = "y"
        assert normalize("can't") == "cannot"
