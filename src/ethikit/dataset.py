"""Ingestion of ETHICS-format CSV files for the four domains.

Column mappings ship as an editable JSON spec defaulting to the public
dataset layout: commonsense and justice carry one text column, deontology a
scenario/excuse pair, and virtue packs "scenario [SEP] trait" into a single
column that gets split on load.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from importlib import resources

from ethikit.batching import DOMAINS, Example
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


@dataclass(frozen=True)
class DomainSpec:
    domain: str
    label_col: str
    text_a_col: str
    text_b_col: str | None = None
    pack_separator: str | None = None

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.text_b_col is not None and self.pack_separator is not None:
            raise ConfigError("text_b_col and pack_separator are exclusive")


def _parse_specs(raw, source) -> dict[str, DomainSpec]:
    """Build DomainSpecs from the decoded JSON object of a spec file."""
    specs = {}
    for domain, cols in raw.items():
        for key in ("label_col", "text_a_col"):
            if key not in cols:
                raise ConfigError(f"{source}: spec for {domain!r} lacks {key!r}")
        specs[domain] = DomainSpec(
            domain=domain,
            label_col=cols["label_col"],
            text_a_col=cols["text_a_col"],
            text_b_col=cols.get("text_b_col"),
            pack_separator=cols.get("pack_separator"),
        )
    return specs


def default_specs() -> dict[str, DomainSpec]:
    """Domain specs bundled with the package (public ETHICS layout)."""
    ref = resources.files("ethikit.data") / "domains.json"
    return _parse_specs(json.loads(ref.read_text(encoding="utf-8")), ref)


def load_specs(path) -> dict[str, DomainSpec]:
    """Load domain specs from a user-edited JSON file."""
    with reading(path), open(path, encoding="utf-8") as fh:
        return _parse_specs(json.load(fh), path)


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
            examples.append(
                Example(domain=spec.domain, text_a=text_a, text_b=text_b, label=label)
            )
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
