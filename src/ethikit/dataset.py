"""Ingestion of ETHICS-format CSV files for the four domains.

One table states each domain's column layout, the public dataset's
(Hendrycks et al. 2021): commonsense and justice carry one text column,
deontology a scenario/excuse pair, and virtue packs "scenario [SEP] trait"
into a single column that gets split on load. Library code with other column
names passes its own ``DomainSpec`` to ``load_split``.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from operator import itemgetter

from ethikit.batching import Example
from ethikit.errors import (
    BadLabel,
    ConfigError,
    MissingColumn,
    MissingField,
    RaggedRow,
    reading,
)

# Table of published per-domain example counts for the fixed splits.
TEST_COUNTS = {"commonsense": 3885, "justice": 2704, "virtue": 4975, "deontology": 3596}
HARD_TEST_COUNTS = {"commonsense": 3964, "justice": 2052, "virtue": 4780, "deontology": 3536}


@dataclass(frozen=True, kw_only=True)
class DomainSpec:
    """Where a file keeps its label and texts, and the codec of its rows.

    A second text has a column of its own, or follows ``pack_separator``
    within the first text's column.
    """

    label_col: str
    text_a_col: str
    text_b_col: str | None = None
    pack_separator: str | None = None

    def __post_init__(self) -> None:
        if self.text_b_col is not None and self.pack_separator is not None:
            raise ConfigError("text_b_col and pack_separator are exclusive")
        if self.pack_separator == "" or len(set(self.columns)) < len(self.columns):
            raise ConfigError(f"columns {self.columns} repeat a name or the separator is empty")

    @property
    def columns(self) -> tuple[str, ...]:
        names = (self.label_col, self.text_a_col, self.text_b_col)
        return tuple(name for name in names if name is not None)

    def example(self, fields) -> Example:
        """The Example a row holds."""
        label = fields[0].strip()
        if label not in ("0", "1"):
            raise BadLabel(f"label {label!r} not in {{0, 1}}")
        text_a = fields[1]
        text_b = fields[2] if self.text_b_col is not None else None
        if self.pack_separator is not None:
            if self.pack_separator not in text_a:
                raise MissingField(f"no {self.pack_separator!r} separator")
            text_a, text_b = (part.strip() for part in text_a.split(self.pack_separator, 1))
        return Example(text_a=text_a, text_b=text_b, label=int(label))

    def fields(self, ex: Example) -> list[str]:
        """The row holding ``ex``; raises if ``example`` would not read it back as ``ex``."""
        if self.pack_separator is not None:
            row = [str(ex.label), f"{ex.text_a} {self.pack_separator} {ex.text_b}"]
        else:
            row = [str(ex.label), str(ex.text_a), str(ex.text_b)][: len(self.columns)]
        if self.example(row) != ex:
            raise MissingField(f"{ex!r} would not read back from columns {self.columns}")
        return row


_SPECS = {
    "commonsense": DomainSpec(label_col="label", text_a_col="input"),
    "justice": DomainSpec(label_col="label", text_a_col="scenario"),
    "virtue": DomainSpec(label_col="label", text_a_col="scenario", pack_separator="[SEP]"),
    "deontology": DomainSpec(label_col="label", text_a_col="scenario", text_b_col="excuse"),
}
DOMAINS = tuple(_SPECS)


def default_specs() -> dict[str, DomainSpec]:
    """Each domain's spec in the public ETHICS layout, in ``DOMAINS`` order."""
    return dict(_SPECS)


def read_rows(path, columns):
    """Yield each row's values of ``columns`` (two or more) as a tuple, in that order.

    Other columns are skipped. Every CSV input is read here.
    """
    with reading(path), open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            for name in columns:
                if header.count(name) != 1:
                    raise MissingColumn(f"{path}: {header.count(name)} columns named {name!r}")
            pick = itemgetter(*[header.index(name) for name in columns])
            for row_num, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise RaggedRow(
                        f"{path} row {row_num}: {len(row)} fields, header has {len(header)}"
                    )
                yield pick(row)
        except csv.Error as exc:
            raise RaggedRow(f"{path} line {reader.line_num}: {exc}") from None


def load_split(path, spec: DomainSpec) -> list[Example]:
    """Parse one CSV file in ``spec``'s layout into Examples."""
    examples: list[Example] = []
    try:
        for fields in read_rows(path, spec.columns):
            examples.append(spec.example(fields))
    except (BadLabel, MissingField) as exc:
        raise type(exc)(f"{path} row {len(examples) + 2}: {exc}") from None
    return examples


def serialize_split(examples, spec: DomainSpec, path) -> None:
    """Write Examples in ``spec``'s layout; a misfit raises before the file is opened."""
    rows = [spec.fields(ex) for ex in examples]
    with reading(path), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(spec.columns)
        writer.writerows(rows)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
