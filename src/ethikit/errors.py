"""Exception types shared across the toolkit.

All errors derive from EthikitError so CLI handlers can catch one base class.
"""

from contextlib import contextmanager


class EthikitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(EthikitError):
    """A configuration value violates its contract."""


# --- tokenizer ---

class EmptyCorpus(EthikitError):
    """Vocabulary training received a corpus with no tokens."""


class IdOutOfRange(EthikitError):
    """A token id does not address any vocabulary entry."""


class DuplicateToken(EthikitError):
    """A vocabulary file lists the same token twice."""


class MalformedVocab(EthikitError):
    """A vocabulary file is missing the reserved special tokens."""


# --- batching / data ---

class MissingField(EthikitError):
    """A pair-domain example lacks its second text field."""


class InvalidLength(EthikitError):
    """A sequence-length bound is too small to hold CLS and SEP."""


class EmptyBatch(EthikitError):
    """A batch was requested from zero sequences."""


class MissingColumn(EthikitError):
    """A data file header lacks a column required by the domain spec."""


class BadLabel(EthikitError):
    """A label value is neither 0 nor 1."""


class RaggedRow(EthikitError):
    """A data row has a different field count than the header."""


class UnreadableFile(EthikitError):
    """An input path is a directory, or its text is not valid UTF-8."""


@contextmanager
def reading(path):
    """Turn a directory path or undecodable text met inside into UnreadableFile."""
    try:
        yield
    except IsADirectoryError as exc:
        raise UnreadableFile(f"{path}: is a directory, not a file") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{path}: not UTF-8 text ({exc.reason})") from exc


# --- model / optimizer ---

class ShapeMismatch(EthikitError):
    """Tensor shapes disagree with the configuration or each other."""


class StaleCache(EthikitError):
    """A forward cache does not match the parameters passed to backward."""


class CheckpointError(EthikitError):
    """A checkpoint file cannot be read."""


class CorruptHeader(CheckpointError):
    """The checkpoint header is unreadable."""


class TruncatedCheckpoint(CheckpointError):
    """The checkpoint file ends before its declared contents."""


class InvalidStep(EthikitError):
    """The learning-rate schedule was queried at step < 1."""


class OverAccumulation(EthikitError):
    """More micro-batch gradients were accumulated than the window holds."""


class IncompleteAccumulation(EthikitError):
    """flush was called before the accumulation window was filled."""


# --- loss / metrics ---

class LengthMismatch(EthikitError):
    """Two parallel vectors have different lengths."""


class EmptyInput(EthikitError):
    """An operation that needs at least one element received none."""


class SingleClass(EthikitError):
    """AUC is undefined when only one label value is present."""


class NonFiniteScore(EthikitError):
    """A score to be ranked or thresholded is NaN or infinite."""


# --- trainer / filtering ---

class TooFewExamples(EthikitError):
    """Not enough examples to split."""


class InvalidConfig(ConfigError):
    """A training configuration value violates its contract."""


class EmptyDataset(EthikitError):
    """An evaluation or training set is empty."""


class QuantileOutOfRange(EthikitError):
    """The keep quantile must lie strictly between 0 and 1."""


class NonFiniteTraining(EthikitError):
    """Training produced a NaN or infinite logit or accumulated gradient."""


# --- cli ---

class ReplayMismatch(EthikitError):
    """A replayed run's inputs or tool version differ from its manifest."""
