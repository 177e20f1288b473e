"""Tests of the benchmark itself: inputs, hooks, checks and its declared metrics.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import datagen
import harness
import spans

ROOT = Path(__file__).resolve().parents[2]


def _write_all(seed: int, out: Path) -> dict[str, bytes]:
    out.mkdir()
    words = datagen.lexicon()
    sampler = datagen.RowSampler(seed, words)
    datagen.write_justice(out / "j.csv", sampler, 30)
    datagen.write_commonsense(out / "c.csv", sampler, 30)
    datagen.write_deontology(out / "d.csv", sampler, 30)
    datagen.write_vocab(out / "v.txt", words)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        assert _write_all(7, tmp_path / "a") == _write_all(7, tmp_path / "b")

    def test_seeds_differ(self, tmp_path):
        a, b = _write_all(7, tmp_path / "a"), _write_all(8, tmp_path / "b")
        for name in ("j.csv", "c.csv", "d.csv"):
            assert a[name] != b[name]
        assert a["v.txt"] == b["v.txt"]  # the lexicon does not depend on the seed

    def test_layouts_load_in_ethikit(self, tmp_path):
        from ethikit import dataset

        _write_all(1, tmp_path / "a")
        specs = dataset.default_specs()
        for name, domain in (("j.csv", "justice"), ("c.csv", "commonsense"),
                             ("d.csv", "deontology")):
            rows = dataset.load_split(tmp_path / "a" / name, specs[domain])
            assert len(rows) == 30 and {ex.label for ex in rows} <= {0, 1}

    def test_long_rows_exceed_the_length_cap(self):
        sampler = datagen.RowSampler(3, datagen.lexicon())
        lengths = [sampler.long_tail_length() for _ in range(2000)]
        assert 0.1 < np.mean(np.array(lengths) > 100) < 0.4

    def test_vocab_file_loads(self, tmp_path):
        from ethikit import tokenizer

        words = datagen.lexicon()
        datagen.write_vocab(tmp_path / "v.txt", words)
        vocab = tokenizer.load_vocab(tmp_path / "v.txt")
        ids = tokenizer.encode(" ".join(words), vocab)
        assert tokenizer.UNK_ID not in ids and len(ids) > len(words)


def _toy_tracer():
    tracer = spans.Tracer()

    def inner(x):
        time.sleep(0.001)
        return x

    inner_w = tracer.wrap("toy.inner", inner)

    def outer(x):
        return inner_w(x) + inner_w(x)

    outer_w = tracer.wrap("toy.outer", outer)
    return tracer, outer_w


def _all_bindings():
    return {(m.__name__, name): value for m in spans.ethikit_modules()
            for name, value in vars(m).items()}


class TestHooks:
    def test_self_time_is_span_minus_children(self, tmp_path):
        tracer, outer = _toy_tracer()
        for _ in range(3):
            outer(1)
        tracer.save(tmp_path / "s.npz")
        table = spans.span_table(spans.load_spans(tmp_path / "s.npz"))
        assert table["toy.outer"]["calls"] == 3 and table["toy.inner"]["calls"] == 6
        for row in table.values():
            assert row["self_s"] >= 0.0
        assert table["toy.outer"]["self_s"] == pytest.approx(
            table["toy.outer"]["busy_s"] - table["toy.inner"]["busy_s"], abs=1e-12)

    def test_tracer_restores_every_binding(self):
        import ethikit.cli  # noqa: F401  (loads every module cli uses)

        before = _all_bindings()
        patch = spans.Tracer().install(spans.ethikit_modules())
        from ethikit import model, trainer

        assert trainer.forward is not before[("ethikit.model", "forward")]
        assert model.forward is not before[("ethikit.model", "forward")]
        patch.undo()
        after = _all_bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_phase_stamps_restore_every_binding(self):
        import ethikit.cli  # noqa: F401

        before = _all_bindings()
        spans.PhaseStamps().install(spans.ethikit_modules()).undo()
        after = _all_bindings()
        assert all(after[k] is before[k] for k in before)

    def test_traced_cli_run(self, tmp_path):
        from ethikit import cli

        sampler = datagen.RowSampler(0, datagen.lexicon())
        datagen.write_justice(tmp_path / "train.csv", sampler, 40)
        tracer = spans.Tracer()
        patch = tracer.install(spans.ethikit_modules())
        try:
            rc = cli.main(["train", "--train-file", str(tmp_path / "train.csv"),
                           "--domain", "justice", "--out-dir", str(tmp_path / "run"),
                           "--epochs", "1", "--vocab-size", "200", "--d-model", "16",
                           "--d-ff", "32", "--heads", "2", "--layers", "1"])
        finally:
            patch.undo()
        assert rc == 0
        tracer.save(tmp_path / "s.npz")
        table = spans.span_table(spans.load_spans(tmp_path / "s.npz"))
        fired = tracer.fired()
        assert {"cli.main", "cli.cmd_train", "model.forward", "model.backward",
                "model.forward_eval", "tokenizer.train_vocab", "optim.flush"} <= fired
        assert all(row["self_s"] >= 0.0 for row in table.values())
        assert tracer.counters["dataset.rows"] == 40
        assert tracer.counters["tokenizer.merges"] > 0


def _eval_files(tmp_path: Path, scores: list[float], labels: list[int]):
    from ethikit import metrics

    test_csv, scores_csv, report_csv = (tmp_path / n for n in ("t.csv", "s.csv", "r.csv"))
    with open(test_csv, "w", newline="") as fh:
        csv.writer(fh).writerows([["label", "scenario"]] + [[y, "x"] for y in labels])
    lines = ["example_id,label,score"]
    lines += [f"{i},{y},{s!r}" for i, (y, s) in enumerate(zip(labels, scores))]
    scores_csv.write_text("\n".join(lines) + "\n")
    report = metrics.build_report(np.array(scores), np.array(labels))
    report_csv.write_text(metrics.REPORT_CSV_HEADER + "\n"
                          + metrics.report_csv_row("justice", report) + "\n")
    return scores_csv, report_csv, test_csv


class TestChecks:
    SCORES = [0.9, 0.2, 0.6, 0.4, 0.7, 0.1, 0.55, 0.3]
    LABELS = [1, 0, 1, 0, 0, 1, 1, 0]

    def test_consistent_evaluate_outputs_pass(self, tmp_path):
        c = checks.Check("evaluate")
        checks.check_evaluate(c, *_eval_files(tmp_path, self.SCORES, self.LABELS))
        assert c.failures == []

    def test_flipped_score_is_a_failure(self, tmp_path):
        scores_csv, report_csv, test_csv = _eval_files(tmp_path, self.SCORES, self.LABELS)
        lines = scores_csv.read_text().splitlines()
        lines[1] = "0,1,0.09999999999999998"  # 1 - 0.9
        scores_csv.write_text("\n".join(lines) + "\n")
        c = checks.Check("evaluate")
        checks.check_evaluate(c, scores_csv, report_csv, test_csv)
        assert c.failures

    def test_missing_score_row_is_a_failure(self, tmp_path):
        scores_csv, report_csv, test_csv = _eval_files(tmp_path, self.SCORES, self.LABELS)
        scores_csv.write_text("\n".join(scores_csv.read_text().splitlines()[:-1]) + "\n")
        c = checks.Check("evaluate")
        checks.check_evaluate(c, scores_csv, report_csv, test_csv)
        assert c.failures

    def test_numpy_repr_scores_are_read_and_counted(self, tmp_path):
        scores_csv, report_csv, test_csv = _eval_files(tmp_path, self.SCORES, self.LABELS)
        lines = scores_csv.read_text().splitlines()
        lines[1] = "0,1,np.float64(0.9)"
        scores_csv.write_text("\n".join(lines) + "\n")
        c = checks.Check("evaluate")
        checks.check_evaluate(c, scores_csv, report_csv, test_csv)
        assert c.failures == [] and c.notes["scores_in_numpy_repr"] == 1

    def test_brute_force_auc_matches_ethikit(self):
        from ethikit import metrics

        rng = np.random.default_rng(0)
        scores = np.round(rng.random(200), 2)  # rounding makes ties
        labels = rng.integers(0, 2, 200)
        assert checks.brute_force_auc(scores, labels) == metrics.auc(scores, labels)

    def test_filter_kept_count(self, tmp_path):
        pool = tmp_path / "pool.csv"
        with open(pool, "w", newline="") as fh:
            csv.writer(fh).writerows([["label", "scenario", "excuse"]]
                                     + [[0, "a", "b"]] * 6)
        scores = tmp_path / "hard.scores.csv"
        scores.write_text("example_id,score\n"
                          + "".join(f"{i},{s}\n" for i, s in
                                    enumerate([0.1, 0.5, 0.5, 0.9, 0.2, 0.7])))
        hard = tmp_path / "hard.csv"
        kept_rows = [["label", "scenario", "excuse"]] + [[0, "a", "b"]] * 4
        with open(hard, "w", newline="") as fh:
            csv.writer(fh).writerows(kept_rows)
        c = checks.Check("filter-hard")
        checks.check_filter(c, scores, hard, pool, 0.5)
        assert c.failures == [] and c.notes["kept"] == 4
        with open(hard, "w", newline="") as fh:
            csv.writer(fh).writerows(kept_rows[:-1])
        c = checks.Check("filter-hard")
        checks.check_filter(c, scores, hard, pool, 0.5)
        assert c.failures

    def test_nonzero_exit_counts_as_failed_operation(self, tmp_path):
        plan = harness.prepare_deontology(0, tmp_path, None)
        it = harness.Iteration(False, tmp_path / "out", 0, 1.0, {"commands": [
            {"argv": ["filter-hard"], "rc": 1, "error": None, "first_model": None}]})
        harness.check_iteration(it, plan, np.random.default_rng(0))
        assert not it.ok and len(it.checks) == 1 and it.checks[0].failures


class TestDeclaredMetrics:
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
        assert {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"} == {
            name for name, exponent in harness.SPEED_EXPONENT.items() if exponent < 0}
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
        for w in spec["workloads"]:
            assert w["why"] == harness.WORKLOADS[w["name"]].why


class TestReferenceSpeed:
    def test_slow_spell_is_scaled_out(self):
        measured = {"setup_s": 2.0, "wall_s": 6.0, "train_examples_per_s": 100.0,
                    "score_examples_per_s": 50.0, "peak_rss_mb": 80.0}
        scaled = harness.at_reference_speed(measured, 2 * harness.probe.REFERENCE_S)
        assert scaled == {"setup_s": 1.0, "wall_s": 3.0, "train_examples_per_s": 200.0,
                          "score_examples_per_s": 100.0, "peak_rss_mb": 80.0}
