import numpy as np
import pytest

from ethikit.batching import (
    Example,
    encode_examples,
    format_sequence,
    make_batches,
    pad_batch,
    truncate,
)
from ethikit.errors import EmptyBatch, InvalidLength, MissingField
from ethikit.tokenizer import CLS_ID, PAD_ID, SEP_ID
from ethikit.trainer import split_train_val


class TestFormatSequence:
    def test_single_text_template(self, tiny_vocab):
        ex = Example("justice", "a b")
        ids = format_sequence(ex, tiny_vocab)
        a, b = tiny_vocab.id_of["a"], tiny_vocab.id_of["b"]
        assert ids == [CLS_ID, a, b, SEP_ID]

    def test_pair_template(self, tiny_vocab):
        ex = Example("virtue", "a", text_b="b")
        a, b = tiny_vocab.id_of["a"], tiny_vocab.id_of["b"]
        assert format_sequence(ex, tiny_vocab) == [CLS_ID, a, SEP_ID, b, SEP_ID]

    def test_missing_pair_field(self, tiny_vocab):
        with pytest.raises(MissingField):
            format_sequence(Example("deontology", "a"), tiny_vocab)

    def test_unknown_domain(self, tiny_vocab):
        with pytest.raises(ValueError):
            format_sequence(Example("utilitarianism", "a"), tiny_vocab)


class TestTruncate:
    def test_long_sequence_cut_to_sep(self):
        ids = [CLS_ID] + list(range(5, 205))
        out = truncate(ids, 128)
        assert len(out) == 128
        assert out[-1] == SEP_ID
        assert out[:127] == ids[:127]

    def test_short_unchanged(self):
        ids = [CLS_ID] + [5] * 9
        assert truncate(ids, 128) == ids

    def test_invalid_length(self):
        with pytest.raises(InvalidLength):
            truncate([CLS_ID, SEP_ID], 1)


class TestPadBatch:
    def test_dynamic_width(self):
        seqs = [[CLS_ID, 5, 6, SEP_ID], [CLS_ID] + [5] * 5 + [SEP_ID], [CLS_ID, 5, 6, 7, SEP_ID]]
        batch = pad_batch(seqs, [1, 0, 1], l_cap=128)
        assert batch.length == 7
        assert list(batch.ids[0][4:]) == [PAD_ID] * 3
        assert batch.mask.sum(axis=1).tolist() == [4, 7, 5]

    def test_full_width_no_pads(self):
        seq = [CLS_ID] + [5] * 126 + [SEP_ID]
        batch = pad_batch([seq], [1], l_cap=128)
        assert batch.length == 128
        assert batch.mask.sum() == 128

    def test_empty(self):
        with pytest.raises(EmptyBatch):
            pad_batch([], [], l_cap=128)

    def test_over_cap_rejected(self):
        with pytest.raises(InvalidLength):
            pad_batch([[CLS_ID] * 10], [1], l_cap=8)


def _old_make_batches(examples, vocab, batch_size, shuffle_seed=None, max_len=128):
    """The batching path before examples were encoded once: a seeded shuffle
    of the examples, then the template applied per row on every call."""
    examples = list(examples)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(examples))
        examples = [examples[i] for i in order]
    seqs = [truncate(format_sequence(ex, vocab), max_len) for ex in examples]
    labels = [ex.label for ex in examples]
    return [pad_batch(seqs[i:i + batch_size], labels[i:i + batch_size], max_len)
            for i in range(0, len(seqs), batch_size)]


class TestEncodeExamples:
    def test_untruncated_ids_and_label(self, tiny_vocab):
        examples = [Example("justice", "a " * 300, label=1),
                    Example("virtue", "a", text_b="b", label=0)]
        encoded = encode_examples(examples, tiny_vocab)
        assert [e.label for e in encoded] == [1, 0]
        assert encoded[0].ids == tuple(format_sequence(examples[0], tiny_vocab))
        assert len(encoded[0].ids) == 302
        assert encoded[1].ids == tuple(format_sequence(examples[1], tiny_vocab))

    def test_split_works_on_records(self, tiny_vocab):
        examples = [Example("justice", "a b", label=i % 2) for i in range(20)]
        encoded = encode_examples(examples, tiny_vocab)
        enc_train, enc_val = split_train_val(encoded, seed=4)
        ex_train, ex_val = split_train_val(examples, seed=4)
        assert [e.label for e in enc_train] == [e.label for e in ex_train]
        assert [e.label for e in enc_val] == [e.label for e in ex_val]


class TestMakeBatches:
    def _encoded(self, vocab, n):
        return encode_examples(
            [Example("justice", "a b", label=i % 2) for i in range(n)], vocab
        )

    def test_chunk_sizes(self, tiny_vocab):
        batches = make_batches(self._encoded(tiny_vocab, 70), 32,
                               order=np.random.default_rng(0).permutation(70))
        assert [len(b) for b in batches] == [32, 32, 6]

    def test_same_seed_same_order(self, tiny_vocab):
        encoded = self._encoded(tiny_vocab, 40)
        order = np.random.default_rng(9).permutation(40)
        b1 = make_batches(encoded, 8, order=order)
        b2 = make_batches(encoded, 8, order=order)
        for x, y in zip(b1, b2):
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.ids, y.ids)

    def test_seeds_give_distinct_permutations(self, tiny_vocab):
        # unique sequence lengths make the permutation observable per row
        examples = [Example("justice", " ".join(["a"] * (i + 1))) for i in range(10)]
        encoded = encode_examples(examples, tiny_vocab)
        orders = set()
        for seed in range(100):
            order = np.random.default_rng(seed).permutation(10)
            batches = make_batches(encoded, 10, order=order)
            orders.add(tuple(batches[0].mask.sum(axis=1).tolist()))
        # collisions among 10! permutations are vanishingly unlikely
        assert len(orders) >= 99

    def test_mask_rowsum_is_unpadded_length(self, tiny_vocab):
        examples = [
            Example("justice", "a"),
            Example("justice", "a b the cat"),
            Example("virtue", "a", text_b="b"),
        ]
        (batch,) = make_batches(encode_examples(examples, tiny_vocab), 8)
        # CLS + word pieces + SEP(s) per example
        assert batch.mask.sum(axis=1).tolist() == [3, 6, 5]

    def test_rows_capped_at_max_len(self, tiny_vocab):
        encoded = encode_examples([Example("justice", "a " * 300)], tiny_vocab)
        (batch,) = make_batches(encoded, 4, order=[0], max_len=128)
        assert batch.length == 128
        assert batch.ids[0, -1] == SEP_ID

    @pytest.mark.parametrize("batch_size, max_len", [(1, 128), (3, 6), (8, 16), (32, 4)])
    def test_matches_per_call_encoding_oracle(self, tiny_vocab, batch_size, max_len):
        rng = np.random.default_rng(batch_size)
        words = ["a", "b", "the", "cat", "good", "bad", "unhappiness", "zzz"]
        examples = []
        for i in range(37):
            text = " ".join(rng.choice(words, size=int(rng.integers(1, 12))))
            if i % 3:
                examples.append(Example("justice", text, label=i % 2))
            else:
                examples.append(Example("deontology", text, text_b="the cat", label=1))
        encoded = encode_examples(examples, tiny_vocab)
        for seed in (None, (0, 0), (5, 2)):
            old = _old_make_batches(examples, tiny_vocab, batch_size, seed, max_len)
            order = (None if seed is None
                     else np.random.default_rng(seed).permutation(len(examples)))
            new = make_batches(encoded, batch_size, order=order, max_len=max_len)
            assert len(new) == len(old)
            for x, y in zip(new, old):
                assert np.array_equal(x.ids, y.ids)
                assert np.array_equal(x.mask, y.mask)
                assert np.array_equal(x.labels, y.labels)
