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
    """Where a file keeps its label and texts.

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


def _parse_label(value: str, row_num: int) -> int:
    value = value.strip()
    if value not in ("0", "1"):
        raise BadLabel(f"row {row_num}: label {value!r} not in {{0, 1}}")
    return int(value)


def load_split(path, spec: DomainSpec) -> list[Example]:
    """Parse one delimiter-separated file into Examples."""
    with reading(path), open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file, no header") from None
        col_index = {name: i for i, name in enumerate(header)}
        needed = [spec.label_col, spec.text_a_col]
        if spec.text_b_col is not None:
            needed.append(spec.text_b_col)
        for col in needed:
            if col not in col_index:
                raise MissingColumn(f"{path}: header lacks column {col!r}")

        examples: list[Example] = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise RaggedRow(
                    f"{path} row {row_num}: {len(row)} fields, header has {len(header)}"
                )
            label = _parse_label(row[col_index[spec.label_col]], row_num)
            text_a = row[col_index[spec.text_a_col]]
            text_b = None
            if spec.text_b_col is not None:
                text_b = row[col_index[spec.text_b_col]]
            elif spec.pack_separator is not None:
                if spec.pack_separator not in text_a:
                    raise MissingField(
                        f"{path} row {row_num}: no {spec.pack_separator!r} separator"
                    )
                text_a, text_b = (
                    part.strip()
                    for part in text_a.split(spec.pack_separator, 1)
                )
            examples.append(Example(text_a=text_a, text_b=text_b, label=label))
    return examples


def serialize_split(examples, spec: DomainSpec, path) -> None:
    """Write Examples back in the same layout load_split reads."""
    header = [spec.label_col, spec.text_a_col]
    if spec.text_b_col is not None:
        header.append(spec.text_b_col)
    with reading(path), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ex in examples:
            if spec.text_b_col is not None:
                writer.writerow([ex.label, ex.text_a, ex.text_b])
            elif spec.pack_separator is not None:
                packed = f"{ex.text_a} {spec.pack_separator} {ex.text_b}"
                writer.writerow([ex.label, packed])
            else:
                writer.writerow([ex.label, ex.text_a])


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
