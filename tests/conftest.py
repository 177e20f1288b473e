from pathlib import Path

import numpy as np
import pytest

from ethikit.batching import Example, encode_examples
from ethikit.tokenizer import TokenizerConfig, Vocab, train_vocab

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def ethics_split_file(root, domain: str, split: str) -> Path:
    """Where the ETHICS archive keeps a domain's split: ``<root>/<domain>/<prefix>_<split>.csv``,
    whose prefix is the domain's name, or ``cm`` for commonsense."""
    prefix = "cm" if domain == "commonsense" else domain
    return Path(root) / domain / f"{prefix}_{split}.csv"


@pytest.fixture(scope="session")
def tiny_vocab() -> Vocab:
    """Hand-assembled vocab with a few whole words and continuation pieces."""
    tokens = [
        "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
        "a", "b", "un", "##happi", "##ness", "the", "cat", "good", "bad",
    ]
    return Vocab(tokens)


def make_separable_examples(n: int, seed: int, flip_fraction: float = 0.0):
    """Sentences labeled by a marker word; optionally flip some labels.

    Flipped examples are impossible to classify from the text, which makes
    them reliably hard for any model that learns the marker rule.
    """
    rng = np.random.default_rng(seed)
    fillers = ["the", "cat", "sat", "mat", "dog", "ran", "sun", "sky", "tree", "bird"]
    examples = []
    n_flip = int(n * flip_fraction)
    for i in range(n):
        label = int(rng.integers(0, 2))
        words = [fillers[j] for j in rng.integers(0, len(fillers), size=6)]
        words[rng.integers(0, 6)] = "good" if label else "bad"
        stored = 1 - label if i < n_flip else label
        examples.append(Example(text_a=" ".join(words), label=stored))
    return examples


@pytest.fixture(scope="session")
def separable_set():
    return make_separable_examples(64, seed=0)


@pytest.fixture(scope="session")
def separable_vocab(separable_set) -> Vocab:
    corpus = [ex.text_a for ex in separable_set]
    return train_vocab(corpus, TokenizerConfig(vocab_size=300, min_frequency=1))


@pytest.fixture(scope="session")
def separable_encoded(separable_set, separable_vocab):
    return encode_examples(separable_set, separable_vocab)
