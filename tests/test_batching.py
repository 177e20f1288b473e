import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethikit.batching import (
    EncodedExample,
    Example,
    encode_examples,
    format_sequence,
    make_batches,
    pad_batch,
    truncate,
)
from ethikit.errors import ConfigError, EmptyBatch, InvalidLength
from ethikit.tokenizer import CLS_ID, PAD_ID, SEP_ID
from ethikit.trainer import split_train_val


class TestFormatSequence:
    def test_single_text_template(self, tiny_vocab):
        ex = Example(text_a="a b")
        ids = format_sequence(ex, tiny_vocab)
        a, b = tiny_vocab.id_of["a"], tiny_vocab.id_of["b"]
        assert ids == [CLS_ID, a, b, SEP_ID]

    def test_pair_template(self, tiny_vocab):
        ex = Example(text_a="a", text_b="b")
        a, b = tiny_vocab.id_of["a"], tiny_vocab.id_of["b"]
        assert format_sequence(ex, tiny_vocab) == [CLS_ID, a, SEP_ID, b, SEP_ID]

    def test_example_fields_are_keyword_only(self):
        # a positional call written for a leading domain field fails loudly
        # instead of binding the text to text_b
        with pytest.raises(TypeError):
            Example("justice", "a b")


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

    def test_empty_sequence_rejected(self):
        # Its mask row would be all zero: a row with no key to attend to.
        with pytest.raises(InvalidLength, match="empty sequence"):
            pad_batch([[CLS_ID, SEP_ID], []], [1, 0], l_cap=8)


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
        examples = [Example(text_a="a " * 300, label=1),
                    Example(text_a="a", text_b="b", label=0)]
        encoded = encode_examples(examples, tiny_vocab)
        assert [e.label for e in encoded] == [1, 0]
        assert encoded[0].ids == tuple(format_sequence(examples[0], tiny_vocab))
        assert len(encoded[0].ids) == 302
        assert encoded[1].ids == tuple(format_sequence(examples[1], tiny_vocab))

    def test_split_works_on_records(self, tiny_vocab):
        examples = [Example(text_a="a b", label=i % 2) for i in range(20)]
        encoded = encode_examples(examples, tiny_vocab)
        enc_train, enc_val = split_train_val(encoded, seed=4)
        ex_train, ex_val = split_train_val(examples, seed=4)
        assert [e.label for e in enc_train] == [e.label for e in ex_train]
        assert [e.label for e in enc_val] == [e.label for e in ex_val]


class TestMakeBatches:
    def _encoded(self, vocab, n):
        return encode_examples(
            [Example(text_a="a b", label=i % 2) for i in range(n)], vocab
        )

    def test_chunk_sizes(self, tiny_vocab):
        batches = make_batches(self._encoded(tiny_vocab, 70), 32,
                               order=np.random.default_rng(0).permutation(70), max_len=128)
        assert [len(b) for b in batches] == [32, 32, 6]

    def test_same_seed_same_order(self, tiny_vocab):
        encoded = self._encoded(tiny_vocab, 40)
        order = np.random.default_rng(9).permutation(40)
        b1 = make_batches(encoded, 8, order=order, max_len=128)
        b2 = make_batches(encoded, 8, order=order, max_len=128)
        for x, y in zip(b1, b2):
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.ids, y.ids)

    def test_seeds_give_distinct_permutations(self, tiny_vocab):
        # unique sequence lengths make the permutation observable per row
        examples = [Example(text_a=" ".join(["a"] * (i + 1))) for i in range(10)]
        encoded = encode_examples(examples, tiny_vocab)
        orders = set()
        for seed in range(100):
            order = np.random.default_rng(seed).permutation(10)
            batches = make_batches(encoded, 10, order=order, max_len=128)
            orders.add(tuple(batches[0].mask.sum(axis=1).tolist()))
        # collisions among 10! permutations are vanishingly unlikely
        assert len(orders) >= 99

    def test_mask_rowsum_is_unpadded_length(self, tiny_vocab):
        examples = [
            Example(text_a="a"),
            Example(text_a="a b the cat"),
            Example(text_a="a", text_b="b"),
        ]
        (batch,) = make_batches(encode_examples(examples, tiny_vocab), 8, max_len=128)
        # CLS + word pieces + SEP(s) per example
        assert batch.mask.sum(axis=1).tolist() == [3, 6, 5]

    def test_rows_capped_at_max_len(self, tiny_vocab):
        encoded = encode_examples([Example(text_a="a " * 300)], tiny_vocab)
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
                examples.append(Example(text_a=text, label=i % 2))
            else:
                examples.append(Example(text_a=text, text_b="the cat", label=1))
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


class TestPackedBatches:
    @given(st.lists(st.integers(2, 40), min_size=1, max_size=60), st.integers(1, 9),
           st.integers(2, 32), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rows_fill_a_full_batch_of_the_widest(self, lengths, batch_size, max_len, by_length):
        # label i marks row i, so each row is traced to where it lands
        encoded = [EncodedExample(ids=(CLS_ID, *[7] * (n - 2), SEP_ID), label=i)
                   for i, n in enumerate(lengths)]
        cut = [min(n, max_len) for n in lengths]
        order = np.argsort(cut, kind="stable") if by_length else np.arange(len(cut))
        batches = make_batches(encoded, batch_size, order=order, max_len=max_len, pack=True)
        slots = batch_size * max(cut)
        # every row once, in the order given, cut at max_len
        assert np.concatenate([b.labels for b in batches]).tolist() == order.tolist()
        assert np.concatenate([b.mask.sum(axis=1) for b in batches]).tolist() == \
            [cut[i] for i in order]
        assert all(len(b) * b.length <= slots for b in batches)
        # a batch ends only where its next row would not fit
        taken = 0
        for batch in batches[:-1]:
            taken += len(batch)
            assert (len(batch) + 1) * max(batch.length, cut[order[taken]]) > slots
        # any batch_size rows fit, so packing never makes more batches
        assert len(batches) <= -(-len(cut) // batch_size)

    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    def test_no_batch_above_a_full_batch_of_the_widest_row(self, tiny_vocab, batch_size):
        rng = np.random.default_rng(11)
        words = ["a", "b", "the", "cat", "good", "bad", "unhappiness", "zzz"]
        encoded = encode_examples([
            Example(text_a=" ".join(rng.choice(words, size=int(k))), label=i % 2)
            for i, k in enumerate(rng.integers(1, 30, size=45))
        ], tiny_vocab)
        cut = [min(len(ex.ids), 16) for ex in encoded]
        order = np.argsort(cut, kind="stable")
        batches = make_batches(encoded, batch_size, order=order, max_len=16, pack=True)
        assert max(b.mask.size for b in batches) <= batch_size * max(cut)
        assert len(batches) <= -(-len(encoded) // batch_size)

    def test_bad_batch_size(self, tiny_vocab):
        encoded = encode_examples([Example(text_a="a")], tiny_vocab)
        with pytest.raises(ConfigError):
            make_batches(encoded, 0, max_len=16, pack=True)

    def test_short_rows_share_a_batch(self, tiny_vocab):
        examples = [Example(text_a=" ".join(["a"] * n)) for n in (1, 1, 1, 1, 10)]
        encoded = encode_examples(examples, tiny_vocab)
        # the widest row holds 12 tokens, so a packed batch holds up to 24 slots
        for pack, expected in ((True, [(4, 3), (1, 12)]), (False, [(2, 3), (2, 3), (1, 12)])):
            batches = make_batches(encoded, 2, max_len=128, pack=pack)
            assert [(len(b), b.length) for b in batches] == expected
