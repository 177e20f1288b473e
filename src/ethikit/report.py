"""Comparison tables across domains, with optional published baseline rows.

Evaluation CSVs store metrics as fractions; rendering converts to percent and
rounds half-up to two decimals. Averages for our rows are recomputed at full
precision before rounding, so the displayed average can differ in the last
digit from an average of the displayed (pre-rounded) cells.
"""

from __future__ import annotations

import json
from importlib import resources

from ethikit.dataset import DOMAINS, read_rows
from ethikit.errors import MalformedReport
from ethikit.metrics import REPORT_CSV_HEADER, round_half_up

AVERAGE_FOOTNOTE = (
    "* average recomputed from full-precision domain accuracies, "
    "then rounded half-up"
)


def load_baselines(split: str) -> list[dict]:
    """Published reference rows ('test' or 'hard_test'), verbatim averages."""
    ref = resources.files("ethikit.data") / "baselines.json"
    data = json.loads(ref.read_text(encoding="utf-8"))
    if split not in data:
        raise MalformedReport(f"no baseline table for split {split!r}")
    return data[split]


def read_eval_csv(path) -> dict[str, dict[str, float]]:
    """Parse an evaluation CSV into {domain: {metric: fraction}}."""
    expected_cols = REPORT_CSV_HEADER.split(",")
    out: dict[str, dict[str, float]] = {}
    for domain, *cells in read_rows(path, expected_cols):
        if domain not in DOMAINS:
            raise MalformedReport(f"{path}: unknown domain {domain!r}")
        try:
            values = [float(v) for v in cells]
        except ValueError as exc:
            raise MalformedReport(f"{path}: non-numeric cell in {cells}") from exc
        out[domain] = dict(zip(expected_cols[1:], values))
    return out


def comparison_table(
    accuracies: dict[str, float],
    name: str = "ours",
    baselines: list[dict] | None = None,
) -> str:
    """Render model rows with per-domain accuracy percents and an average.

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
    rows.append([name] + cells + [f"{average:.2f}*"])

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
