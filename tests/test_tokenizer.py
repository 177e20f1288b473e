from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethikit.errors import DuplicateToken, EmptyCorpus, IdOutOfRange, MalformedVocab
from ethikit.tokenizer import (
    CONTINUATION_PREFIX,
    SPECIAL_TOKENS,
    UNK_ID,
    TokenizerConfig,
    Vocab,
    decode,
    encode,
    encode_word,
    load_vocab,
    save_vocab,
    train_vocab,
)


def _reference_train_vocab(corpus, cfg: TokenizerConfig) -> Vocab:
    """Full-recount learner: every pair is counted afresh before every merge.

    The oracle for ``train_vocab``, which keeps its pair counts between
    merges; both must learn the same tokens in the same order.
    """
    word_counts = Counter()
    for line in corpus:
        word_counts.update(line.split())
    if not word_counts:
        raise EmptyCorpus("corpus contains no tokens")

    char_counts = Counter()
    for word, freq in word_counts.items():
        for ch in word:
            char_counts[ch] += freq
    alphabet = sorted(
        ch for ch, count in char_counts.items() if count >= cfg.min_frequency
    )
    tokens = list(SPECIAL_TOKENS) + alphabet
    token_set = set(tokens)

    words = sorted(word_counts)
    seqs = [[w[0]] + [CONTINUATION_PREFIX + ch for ch in w[1:]] for w in words]
    freqs = [word_counts[w] for w in words]

    while len(tokens) < cfg.vocab_size:
        counts = {}
        for seq, freq in zip(seqs, freqs):
            for i in range(len(seq) - 1):
                pair = (seq[i], seq[i + 1])
                counts[pair] = counts.get(pair, 0) + freq
        best = None
        best_count = 0
        for pair, count in counts.items():
            if count < cfg.min_frequency:
                continue
            if count > best_count or (count == best_count and pair > best):
                best = pair
                best_count = count
        if best is None:
            break
        left, right = best
        if right.startswith(CONTINUATION_PREFIX):
            merged = left + right[len(CONTINUATION_PREFIX):]
        else:
            merged = left + right
        for idx, seq in enumerate(seqs):
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seqs[idx] = out
        if merged not in token_set:
            tokens.append(merged)
            token_set.add(merged)

    return Vocab(tokens)


@st.composite
def _small_alphabet_corpora(draw):
    """Lines over 1-5 letters, so runs like aaaa and abab force overlapping merges."""
    letters = "abcde"[: draw(st.integers(1, 5))]
    word = st.text(alphabet=letters, min_size=1, max_size=8)
    line = st.lists(word, min_size=1, max_size=8).map(" ".join)
    return draw(st.lists(line, min_size=1, max_size=6))


class TestTrainVocab:
    def test_merges_frequent_word_whole(self):
        cfg = TokenizerConfig(vocab_size=10, min_frequency=2)
        vocab = train_vocab(["aaab aaab aaab"], cfg)
        assert "aaab" in vocab
        assert len(vocab) <= 10

    def test_single_char_corpus(self):
        cfg = TokenizerConfig(vocab_size=6, min_frequency=1)
        vocab = train_vocab(["x"], cfg)
        assert vocab.tokens == SPECIAL_TOKENS + ("x",)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_vocab([], TokenizerConfig(vocab_size=10, min_frequency=1))

    def test_rare_chars_excluded(self):
        cfg = TokenizerConfig(vocab_size=50, min_frequency=2)
        vocab = train_vocab(["q zz zz"], cfg)
        assert "q" not in vocab
        assert "z" in vocab

    def test_deterministic(self):
        corpus = ["the cat sat on the mat", "the dog sat on the cat"] * 3
        cfg = TokenizerConfig(vocab_size=64, min_frequency=2)
        v1 = train_vocab(corpus, cfg)
        v2 = train_vocab(corpus, cfg)
        assert v1.tokens == v2.tokens

    def test_golden_vocab_and_ids(self):
        # Pins the merge order, including overlapping merges of repeated
        # symbols (aaaa, abab), the tie rule (round two has five pairs at
        # count 3 and takes the lexicographically greatest, c + ##d) and the
        # over-long-word fallback to [UNK]: 99 and 101 a's are both coverable
        # as aaa + ##aa..., but 101 exceeds the 100-character cap.
        corpus = ["aaaa aaa abab abab cd cd dc", "aaaa abab ba ba cd dc"]
        cfg = TokenizerConfig(vocab_size=16, min_frequency=2)
        vocab = train_vocab(corpus, cfg)
        assert vocab.tokens == SPECIAL_TOKENS + (
            "a", "b", "c", "d", "##aa", "cd", "ab", "aba", "abab", "aaa", "dc",
        )
        ids = encode(f"aaaa aaa aaaaa {'a' * 101} abab aba cd dc zz", vocab)
        assert ids == [UNK_ID, 14, 14, 9, UNK_ID, 13, 12, 10, 15, UNK_ID]
        assert encode_word("a" * 99, vocab) == [14] + [9] * 48

    @given(
        corpus=_small_alphabet_corpora(),
        vocab_size=st.integers(6, 60),
        min_frequency=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_recount(self, corpus, vocab_size, min_frequency):
        cfg = TokenizerConfig(vocab_size=vocab_size, min_frequency=min_frequency)
        assert train_vocab(corpus, cfg).tokens == _reference_train_vocab(corpus, cfg).tokens

    def test_merge_into_existing_token_applied_but_not_added(self):
        # Merging [PAD + ##] yields "[PAD]", already a special token: it adds
        # nothing, but the words are rewritten, so [PAD] + ##x can follow.
        corpus = ["[PAD]x [PAD]x [PAD]"]
        cfg = TokenizerConfig(vocab_size=50, min_frequency=2)
        vocab = train_vocab(corpus, cfg)
        assert vocab.tokens == SPECIAL_TOKENS + (
            "A", "D", "P", "[", "]", "x", "[P", "[PA", "[PAD", "[PAD]x",
        )
        assert vocab.tokens == _reference_train_vocab(corpus, cfg).tokens

    def test_learned_subwords_meet_frequency_floor(self):
        corpus = ["walked walking walker talked talking"] * 2
        cfg = TokenizerConfig(vocab_size=120, min_frequency=2)
        vocab = train_vocab(corpus, cfg)
        words = []
        for line in corpus:
            words.extend(line.split())
        for tok in vocab.tokens[len(SPECIAL_TOKENS):]:
            if tok.startswith(CONTINUATION_PREFIX):
                body = tok[len(CONTINUATION_PREFIX):]
                count = sum(
                    1 for w in words for i in range(1, len(w)) if w.startswith(body, i)
                )
            elif len(tok) == 1:
                count = sum(w.count(tok) for w in words)
            else:
                count = sum(1 for w in words if w.startswith(tok))
            assert count >= cfg.min_frequency, tok


class TestEncode:
    def test_whole_word_single_id(self, tiny_vocab):
        ids = encode_word("cat", tiny_vocab)
        assert ids == [tiny_vocab.id_of["cat"]]

    def test_greedy_multi_piece(self, tiny_vocab):
        ids = encode_word("unhappiness", tiny_vocab)
        assert [tiny_vocab.tokens[i] for i in ids] == ["un", "##happi", "##ness"]

    def test_unseen_chars_unk(self, tiny_vocab):
        assert encode_word("zzz", tiny_vocab) == [UNK_ID]

    def test_over_long_word_unk(self, tiny_vocab):
        # both words are coverable; only the 101-character one exceeds the cap
        fits = "un" + "happi" * 18 + "ness"
        too_long = "un" + "happi" * 19 + "ness"
        assert (len(fits), len(too_long)) == (96, 101)
        assert len(encode_word(fits, tiny_vocab)) == 20
        assert encode_word(too_long, tiny_vocab) == [UNK_ID]

    def test_empty_text(self, tiny_vocab):
        assert encode("", tiny_vocab) == []

    def test_two_words(self, tiny_vocab):
        ids = encode("a b", tiny_vocab)
        assert ids == [tiny_vocab.id_of["a"], tiny_vocab.id_of["b"]]

    def test_mixed_known_unknown(self):
        cfg = TokenizerConfig(vocab_size=10, min_frequency=2)
        vocab = train_vocab(["aaab aaab aaab"], cfg)
        assert encode("aaab zzz", vocab) == [vocab.id_of["aaab"], UNK_ID]


class TestDecode:
    def test_joins_continuations(self, tiny_vocab):
        ids = [tiny_vocab.id_of[t] for t in ("un", "##happi", "##ness")]
        assert decode(ids, tiny_vocab) == "unhappiness"

    def test_empty(self, tiny_vocab):
        assert decode([], tiny_vocab) == ""

    def test_out_of_range(self, tiny_vocab):
        with pytest.raises(IdOutOfRange):
            decode([len(tiny_vocab) + 1], tiny_vocab)

    def test_round_trip(self, tiny_vocab):
        text = "the cat un good bad"
        assert decode(encode(text, tiny_vocab), tiny_vocab) == text


class TestVocabIO:
    def test_round_trip(self, tmp_path, tiny_vocab):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, path)
        assert load_vocab(path) == tiny_vocab

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text(
            "\n".join(SPECIAL_TOKENS + ("a", "a")) + "\n", encoding="utf-8"
        )
        with pytest.raises(DuplicateToken):
            load_vocab(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedVocab):
            load_vocab(path)

    def test_missing_specials_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\nd\ne\nf\n", encoding="utf-8")
        with pytest.raises(MalformedVocab):
            load_vocab(path)

    def test_saved_bytes_deterministic(self, tmp_path):
        corpus = ["ababa cabab", "ababa dada"] * 4
        cfg = TokenizerConfig(vocab_size=40, min_frequency=2)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        save_vocab(train_vocab(corpus, cfg), p1)
        save_vocab(train_vocab(corpus, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
