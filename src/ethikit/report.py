"""Comparison tables across domains, with optional published baseline rows.

Evaluation CSVs store metrics as fractions; rendering converts to percent and
rounds half-up to two decimals. Averages for our rows are recomputed at full
precision before rounding, so the displayed average can differ in the last
digit from an average of the displayed (pre-rounded) cells.
"""

from __future__ import annotations

import math

from ethikit.dataset import DOMAINS, read_rows
from ethikit.errors import MalformedReport
from ethikit.metrics import REPORT_CSV_HEADER, round_half_up

AVERAGE_FOOTNOTE = (
    "* average recomputed from full-precision domain accuracies, "
    "then rounded half-up"
)

# Published reference rows (Hendrycks et al. 2021, arXiv 2008.02275) in
# percent, by split, with their published averages verbatim.
BASELINES = {
    "test": [
        {"model": "BERT-base", "commonsense": 86.5, "justice": 26.0, "virtue": 33.1,
         "deontology": 38.8, "average": 46.1},
        {"model": "RoBERTa-large", "commonsense": 90.4, "justice": 56.7, "virtue": 53.0,
         "deontology": 60.3, "average": 65.1},
        {"model": "ALBERT-xxlarge", "commonsense": 85.1, "justice": 59.9, "virtue": 64.1,
         "deontology": 64.1, "average": 68.3},
    ],
    "hard_test": [
        {"model": "BERT-base", "commonsense": 48.7, "justice": 7.6, "virtue": 8.6,
         "deontology": 10.3, "average": 16.8},
        {"model": "RoBERTa-large", "commonsense": 63.4, "justice": 38.0, "virtue": 25.5,
         "deontology": 30.8, "average": 39.42},
        {"model": "ALBERT-xxlarge", "commonsense": 59.0, "justice": 38.2, "virtue": 37.8,
         "deontology": 37.2, "average": 43.05},
    ],
}


def read_eval_csv(path) -> dict[str, dict[str, float]]:
    """Parse an evaluation CSV into {domain: {metric: fraction}}.

    Every metric must lie in [0, 1], except an AUC may be NaN, and each
    domain may appear in one row only.
    """
    expected_cols = REPORT_CSV_HEADER.split(",")
    out: dict[str, dict[str, float]] = {}
    row_of: dict[str, int] = {}
    for row_num, (domain, *cells) in enumerate(read_rows(path, expected_cols), start=2):
        if domain not in DOMAINS:
            raise MalformedReport(f"{path}: unknown domain {domain!r}")
        if domain in row_of:
            raise MalformedReport(f"{path}: {domain} is in rows {row_of[domain]} and {row_num}")
        row_of[domain] = row_num
        try:
            values = [float(v) for v in cells]
        except ValueError as exc:
            raise MalformedReport(f"{path}: non-numeric cell in {cells}") from exc
        row = dict(zip(expected_cols[1:], values))
        for name, value in row.items():
            # evaluate writes a NaN AUC for a split of one label
            if not 0.0 <= value <= 1.0 and not (name == "auc" and math.isnan(value)):
                raise MalformedReport(f"{path}: {domain} {name} {value!r} is not in [0, 1]")
        out[domain] = row
    return out


def comparison_table(accuracies: dict[str, float], baselines: list[dict] | None = None) -> str:
    """Render the baseline rows, then an "ours" row, with per-domain accuracy percents
    and an average.

    ``accuracies`` maps domain -> fraction in [0, 1]. Baseline rows carry the
    published percents and keep their published averages.
    """
    columns = ["model", *DOMAINS, "average"]
    rows: list[list[str]] = []
    for base in baselines or []:
        rows.append(
            [base["model"]]
            + [f"{base[d]:.2f}" if d in base else "-" for d in DOMAINS]
            + [f"{base['average']:.2f}"]
        )

    cells = [f"{round_half_up(100.0 * accuracies[d]):.2f}" if d in accuracies else "-"
             for d in DOMAINS]
    present = [100.0 * accuracies[d] for d in DOMAINS if d in accuracies]
    if not present:
        raise MalformedReport("no domain accuracies to report")
    average = round_half_up(sum(present) / len(present))
    rows.append(["ours"] + cells + [f"{average:.2f}*"])

    widths = [
        max(len(columns[i]), *(len(r[i]) for r in rows)) for i in range(len(columns))
    ]
    lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(columns)).rstrip()]
    for row in rows:
        lines.append(
            "  ".join(
                row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
                for i in range(len(row))
            ).rstrip()
        )
    lines.append(AVERAGE_FOOTNOTE)
    return "\n".join(lines)
