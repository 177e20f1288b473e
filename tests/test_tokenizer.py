import pytest

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
        # over-long-word fallback to [UNK].
        corpus = ["aaaa aaa abab abab cd cd dc", "aaaa abab ba ba cd dc"]
        cfg = TokenizerConfig(vocab_size=16, min_frequency=2, max_word_chars=6)
        vocab = train_vocab(corpus, cfg)
        assert vocab.tokens == SPECIAL_TOKENS + (
            "a", "b", "c", "d", "##aa", "cd", "ab", "aba", "abab", "aaa", "dc",
        )
        ids = encode("aaaa aaa aaaaa aaaaaaa abab aba cd dc zz", vocab)
        assert ids == [UNK_ID, 14, 14, 9, UNK_ID, 13, 12, 10, 15, UNK_ID]
        assert encode_word("aaaaaaa", Vocab(vocab.tokens)) == [14, 9, 9]

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
        long_vocab = Vocab(tiny_vocab.tokens, max_word_chars=5)
        assert encode_word("unhappiness", long_vocab) == [UNK_ID]

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
