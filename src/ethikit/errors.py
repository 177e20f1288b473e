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
    """A packed row lacks its separator, or an example to write does not fit its spec's layout."""


class InvalidLength(EthikitError):
    """A sequence-length bound is too small to hold CLS and SEP."""


class EmptyBatch(EthikitError):
    """A batch was requested from zero sequences."""


class MissingColumn(EthikitError):
    """A CSV file has no header, or its header does not name a needed column exactly once."""


class BadLabel(EthikitError):
    """A label value is neither 0 nor 1."""


class RaggedRow(EthikitError):
    """A CSV row has a different field count than the header, or the csv module cannot parse it."""


class UnusablePath(EthikitError):
    """A path to read or write cannot be used, or its text is not valid UTF-8.

    It does not exist, is a directory where a file is needed or the reverse,
    or is not permitted.
    """


@contextmanager
def reading(path):
    """Turn an input or output path that cannot be used, or undecodable text, into UnusablePath."""
    try:
        yield
    except FileNotFoundError as exc:
        raise UnusablePath(f"{path}: no such file or directory") from exc
    except IsADirectoryError as exc:
        raise UnusablePath(f"{path}: is a directory, not a file") from exc
    except (FileExistsError, NotADirectoryError) as exc:
        raise UnusablePath(f"{path}: a file stands where a directory is needed") from exc
    except PermissionError as exc:
        raise UnusablePath(f"{path}: permission denied") from exc
    except UnicodeDecodeError as exc:
        raise UnusablePath(f"{path}: not UTF-8 text ({exc.reason})") from exc


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


class IncompleteAccumulation(EthikitError):
    """flush was called before accumulate counted any micro-batch into the window."""


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


class QuantileOutOfRange(ConfigError):
    """The keep quantile must lie strictly between 0 and 1."""


class NonFiniteTraining(EthikitError):
    """Training produced a NaN or infinite logit or accumulated gradient."""


# --- report ---

class MalformedReport(EthikitError):
    """No report can be made: an evaluation CSV names an unknown domain or holds a
    non-numeric metric, or there is no row or baseline table to show."""


# --- cli ---

class ReplayMismatch(EthikitError):
    """A replayed run's inputs or tool version differ from its manifest."""


class NotJson(EthikitError):
    """A file that must hold JSON text does not."""
