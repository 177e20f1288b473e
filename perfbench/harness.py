"""Workloads, iterations, output checks and metrics of the benchmark.

A run generates its inputs from the seed, then repeats the workload, each
repetition ("iteration") in a fresh Python process running ethikit's CLI
commands in-process, until ``--seconds`` have passed. Inputs are identical
across the iterations of a run, and a fixed probe (probe.py) runs before
the first iteration and after each one. The end-to-end metrics are scaled
to the probe's reference speed (see ``at_reference_speed``), then the median
over iterations is reported; the unscaled medians are printed beside them.

With ``--trace 0`` every iteration runs with phase stamps only and the
end-to-end metrics are reported. With ``--trace 1`` untraced and traced
iterations alternate; the traced ones give the per-layer metrics and the
difference between the two kinds gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import datagen
import probe
import spans

MIN_ITERATIONS = 5          # untraced iterations in a --trace 0 run
MIN_TRACED_ITERATIONS = 2   # of each kind in a --trace 1 run
RUN_LIMIT_S = 150           # start no iteration expected to end past this

# ethikit defaults the workloads rely on, passed explicitly so that the
# example counts below stay right if a default changes.
VAL_RATIO = 0.8
TRAIN_EPOCHS = 1
FILTER_PROXIES = 2
FILTER_EPOCHS = 2
FILTER_QUANTILE = 0.5

JUSTICE_TRAIN_ROWS, JUSTICE_TEST_ROWS = 600, 400
CM_TRAIN_ROWS, CM_TEST_ROWS = 160, 80
DEON_DEV_ROWS, DEON_POOL_ROWS = 300, 1200

COMMON_SPANS = (
    "cli.main", "dataset.load_split", "normalize.normalize", "tokenizer.encode",
    "batching.make_batches", "batching.truncate", "model.forward", "model.backward",
    "model.classify", "optim.accumulate", "optim.flush", "trainer.train",
    "trainer.predict_probs",
)


@dataclass
class Plan:
    """What one iteration runs and how its outputs are checked."""

    commands: Callable[[Path], list[list[str]]]   # CLI argument lists, given the out dir
    train_examples: int   # rows x epochs (x proxies) trained per iteration
    score_examples: int   # rows scored in eval mode after training
    expected_spans: tuple[str, ...]
    # (out_dir, rng) -> one Check per command
    check: Callable[[Path, np.random.Generator], list[checks.Check]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path, object], Plan]   # (seed, data_dir, tokenizer)


def _train_args(train_csv: Path, domain: str, out: Path, extra=()) -> list[str]:
    return ["train", "--train-file", str(train_csv), "--domain", domain,
            "--out-dir", str(out / "run"), "--epochs", str(TRAIN_EPOCHS),
            "--val-ratio", str(VAL_RATIO), *extra]


def _evaluate_args(test_csv: Path, domain: str, out: Path) -> list[str]:
    return ["evaluate", "--checkpoint", str(out / "run" / "best.ckpt"),
            "--data", str(test_csv), "--domain", domain,
            "--report", str(out / "eval.csv"), "--scores", str(out / "scores.csv")]


def _train_then_evaluate(train_csv: Path, test_csv: Path, domain: str, text_col: str,
                         n_train: int, n_test: int, tokenizer, expected: tuple[str, ...],
                         vocab_args=()) -> Plan:
    """Plan for ``train`` followed by ``evaluate`` on a held-out file."""

    def commands(out: Path) -> list[list[str]]:
        return [_train_args(train_csv, domain, out, vocab_args),
                _evaluate_args(test_csv, domain, out)]

    def check(out: Path, rng) -> list[checks.Check]:
        train, evaluate = checks.Check("train"), checks.Check("evaluate")
        checks.check_train(train, out / "run")
        checks.check_vocab_roundtrip(train, tokenizer, out / "run" / "vocab.txt",
                                     train_csv, (text_col,), rng)
        checks.check_evaluate(evaluate, out / "scores.csv", out / "eval.csv", test_csv)
        return [train, evaluate]

    expected = COMMON_SPANS + (
        "cli.cmd_train", "cli.cmd_evaluate", "tokenizer.load_vocab", "model.save_checkpoint",
        "model.load_checkpoint", "metrics.build_report", "trainer.evaluate") + expected
    return Plan(commands, int(n_train * VAL_RATIO) * TRAIN_EPOCHS, n_test, expected, check)


def prepare_justice(seed: int, data: Path, tokenizer) -> Plan:
    sampler = datagen.RowSampler(seed, datagen.lexicon())
    train_csv, test_csv = data / "justice_train.csv", data / "justice_test.csv"
    datagen.write_justice(train_csv, sampler, JUSTICE_TRAIN_ROWS)
    datagen.write_justice(test_csv, sampler, JUSTICE_TEST_ROWS)
    return _train_then_evaluate(
        train_csv, test_csv, "justice", "scenario", JUSTICE_TRAIN_ROWS, JUSTICE_TEST_ROWS,
        tokenizer, expected=("tokenizer.train_vocab", "tokenizer.save_vocab"))


def prepare_commonsense(seed: int, data: Path, tokenizer) -> Plan:
    words = datagen.lexicon()
    sampler = datagen.RowSampler(seed, words)
    train_csv, test_csv, vocab = data / "cm_train.csv", data / "cm_test.csv", data / "vocab.txt"
    datagen.write_commonsense(train_csv, sampler, CM_TRAIN_ROWS)
    datagen.write_commonsense(test_csv, sampler, CM_TEST_ROWS)
    datagen.write_vocab(vocab, words)
    return _train_then_evaluate(
        train_csv, test_csv, "commonsense", "input", CM_TRAIN_ROWS, CM_TEST_ROWS,
        tokenizer, expected=(), vocab_args=("--vocab", str(vocab)))


def prepare_deontology(seed: int, data: Path, tokenizer) -> Plan:
    sampler = datagen.RowSampler(seed, datagen.lexicon())
    dev_csv, pool_csv = data / "deontology_dev.csv", data / "deontology_pool.csv"
    datagen.write_deontology(dev_csv, sampler, DEON_DEV_ROWS)
    datagen.write_deontology(pool_csv, sampler, DEON_POOL_ROWS)

    def commands(out: Path) -> list[list[str]]:
        return [["filter-hard", "--dev", str(dev_csv), "--pool", str(pool_csv),
                 "--domain", "deontology", "--out", str(out / "hard.csv"),
                 "--proxies", str(FILTER_PROXIES), "--epochs", str(FILTER_EPOCHS),
                 "--quantile", str(FILTER_QUANTILE)]]

    def check(out: Path, rng) -> list[checks.Check]:
        c = checks.Check("filter-hard")
        checks.check_filter(c, out / "hard.scores.csv", out / "hard.csv", pool_csv,
                            FILTER_QUANTILE)
        return [c]

    expected = COMMON_SPANS + (
        "cli.cmd_filter_hard", "tokenizer.train_vocab", "hard_filter.train_proxies",
        "hard_filter.score_examples", "hard_filter.filter_hard", "dataset.serialize_split")
    n_train = int(DEON_DEV_ROWS * VAL_RATIO) * FILTER_EPOCHS * FILTER_PROXIES
    return Plan(commands, n_train, DEON_POOL_ROWS * FILTER_PROXIES, expected, check)


WORKLOADS = {w.name: w for w in (
    Workload("train_justice_short",
             "short rows, vocab learned at the default size, checkpoint save/load "
             "and evaluate: dense per-position encoder work dominates",
             prepare_justice),
    Workload("train_commonsense_long",
             "long-tailed rows cut at 128 with a supplied vocab: attention and padding "
             "dominate and vocab learning does no work",
             prepare_commonsense),
    Workload("filter_hard_deontology",
             "filter-hard defaults on pairs: vocab learning and eval-mode scoring "
             "dominate, one optimizer flush per micro-batch",
             prepare_deontology),
)}


# --- end-to-end metrics -----------------------------------------------------

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "train_examples_per_s": "examples/s",
    "score_examples_per_s": "examples/s",
    "peak_rss_mb": "MB",
}
# How each metric follows the machine's speed: times grow as it slows
# (1), rates shrink (-1), memory does not follow it (0).
SPEED_EXPONENT = {"setup_s": 1, "wall_s": 1, "train_examples_per_s": -1,
                  "score_examples_per_s": -1, "peak_rss_mb": 0}


def at_reference_speed(metrics: dict[str, float], probe_s: float) -> dict[str, float]:
    """One iteration's metrics as the machine would give them at probe.REFERENCE_S.

    ``probe_s`` is the mean of the probes just before and just after the
    iteration. A slow spell that makes the probe take 1.3x its reference
    time makes the iteration's times 1.3x too, so they are divided by 1.3
    and its rates multiplied by 1.3.
    """
    scale = probe_s / probe.REFERENCE_S
    return {name: value / scale ** SPEED_EXPONENT[name] for name, value in metrics.items()}


def end_to_end(it: Iteration, plan: Plan) -> dict[str, float]:
    """Metrics of one untraced iteration, from its phase stamps.

    Set-up runs from process start (for later commands, from the command's
    start) to the command's first model call. Training runs from there to
    the last return from trainer.train. Scoring runs from the first
    eval-mode model call after training to the end of the command.
    """
    setup = train = score = 0
    for k, cmd in enumerate(it.result["commands"]):
        setup += cmd["first_model"] - (it.t_spawn if k == 0 else cmd["start"])
        if cmd["last_train_exit"] is not None:
            train += cmd["last_train_exit"] - cmd["first_model"]
        if cmd["first_score"] is not None:
            score += cmd["end"] - cmd["first_score"]
    return {
        "setup_s": setup / 1e9,
        "wall_s": it.wall_s,
        "train_examples_per_s": plan.train_examples / (train / 1e9),
        "score_examples_per_s": plan.score_examples / (score / 1e9),
        "peak_rss_mb": it.result["maxrss_kb"] / 1024.0,
    }


# --- per-layer metrics ------------------------------------------------------

def _stat(span: str, stat: str):
    return lambda table, counters: table[span][stat] if span in table else 0.0


def _ratio(num: str, den: str):
    return lambda table, counters: counters[num] / counters[den] if counters[den] else 0.0


def _counter(name: str):
    return lambda table, counters: float(counters[name])


PER_LAYER = {  # name -> (unit, value from one traced iteration's spans)
    "tokenizer.train_vocab.busy_s": ("s", _stat("tokenizer.train_vocab", "busy_s")),
    "tokenizer.merges": ("count", _counter("tokenizer.merges")),
    "tokenizer.encode.busy_s": ("s", _stat("tokenizer.encode", "busy_s")),
    "tokenizer.encode.calls": ("count", _stat("tokenizer.encode", "calls")),
    "tokenizer.load_vocab.busy_s": ("s", _stat("tokenizer.load_vocab", "busy_s")),
    "tokenizer.unk_frac": ("ratio", _ratio("tokenizer.unk_ids", "tokenizer.encoded_ids")),
    "model.forward.busy_s": ("s", _stat("model.forward", "busy_s")),
    "model.backward.busy_s": ("s", _stat("model.backward", "busy_s")),
    "model.classify.busy_s": ("s", _stat("model.classify", "busy_s")),
    "model.classify.calls": ("count", _stat("model.classify", "calls")),
    "batching.make_batches.self_s": ("s", _stat("batching.make_batches", "self_s")),
    "batching.pad_frac": ("ratio", _ratio("batching.pad_slots", "batching.padded_slots")),
    "batching.truncated_frac": ("ratio", _ratio("batching.truncated", "batching.sequences")),
    "optim.accumulate.busy_s": ("s", _stat("optim.accumulate", "busy_s")),
    "optim.flush.busy_s": ("s", _stat("optim.flush", "busy_s")),
    "optim.flush.calls": ("count", _stat("optim.flush", "calls")),
    "trainer.train.self_s": ("s", _stat("trainer.train", "self_s")),
    "trainer.predict_probs.busy_s": ("s", _stat("trainer.predict_probs", "busy_s")),
    "trainer.predict_probs.calls": ("count", _stat("trainer.predict_probs", "calls")),
    "model.save_checkpoint.busy_s": ("s", _stat("model.save_checkpoint", "busy_s")),
    "model.load_checkpoint.busy_s": ("s", _stat("model.load_checkpoint", "busy_s")),
    "metrics.build_report.busy_s": ("s", _stat("metrics.build_report", "busy_s")),
    "cli.cmd_train.self_s": ("s", _stat("cli.cmd_train", "self_s")),
    "cli.cmd_evaluate.self_s": ("s", _stat("cli.cmd_evaluate", "self_s")),
    "cli.cmd_filter_hard.self_s": ("s", _stat("cli.cmd_filter_hard", "self_s")),
    "dataset.load_split.busy_s": ("s", _stat("dataset.load_split", "busy_s")),
    "dataset.rows": ("count", _counter("dataset.rows")),
    "normalize.normalize.busy_s": ("s", _stat("normalize.normalize", "busy_s")),
    "normalize.normalize.calls": ("count", _stat("normalize.normalize", "calls")),
    "hard_filter.train_proxies.busy_s": ("s", _stat("hard_filter.train_proxies", "busy_s")),
    "hard_filter.score_examples.busy_s": ("s", _stat("hard_filter.score_examples", "busy_s")),
}
# Per-call percentiles, pooled over the traced iterations of a run.
PER_CALL = ("model.forward", "model.backward", "model.classify")
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _) in PER_LAYER.items()},
    **{f"{span}.p50_ms": "ms" for span in PER_CALL},
    "trace.overhead_s": "s",
}


def per_layer(traced: list[Iteration], untraced: list[Iteration]) -> tuple[dict, dict]:
    """Medians over traced iterations; also p90s that have enough samples."""
    tables = [(spans.span_table(spans.load_spans(it.spans_path)), it.result["counters"])
              for it in traced]
    values = {name: statistics.median(fn(t, c) for t, c in tables)
              for name, (_, fn) in PER_LAYER.items()}
    extra = {}
    for span in PER_CALL:
        pooled = np.concatenate([t[span]["durations_ms"] for t, _ in tables if span in t]
                                or [np.zeros(0)])
        values[f"{span}.p50_ms"] = float(np.percentile(pooled, 50)) if pooled.size else 0.0
        # A p90 needs at least ten samples beyond it.
        if pooled.size >= 100:
            extra[f"{span}.p90_ms"] = (float(np.percentile(pooled, 90)), pooled.size)
    def wall_s(its):  # at the reference speed, like the end-to-end wall_s
        return statistics.median(it.wall_s * probe.REFERENCE_S / it.probe_s for it in its)

    values["trace.overhead_s"] = wall_s(traced) - wall_s(untraced)
    return values, extra


# --- environment ------------------------------------------------------------

def _blas_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS, keyed by library file."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import scipy
    import scipy.special  # noqa: F401  (loads the libraries ethikit uses)

    import ethikit._kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ethikit_kernels": ethikit._kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


# --- running ----------------------------------------------------------------

@dataclass
class Iteration:
    traced: bool
    out_dir: Path
    t_spawn: int
    wall_s: float
    result: dict | None
    checks: list[checks.Check] = field(default_factory=list)
    probe_s: float = probe.REFERENCE_S   # mean of the probes around it

    @property
    def ok(self) -> bool:
        return self.result is not None and not any(c.failures for c in self.checks)

    @property
    def timed(self) -> bool:
        """Every command ran to completion, so its timings can be used.

        Outputs may still have failed their checks; that is reported as
        failed operations, and the timings stay valid.
        """
        if self.result is None:
            return False
        cmds = self.result["commands"]
        if any(cmd["rc"] != 0 or cmd["error"] is not None for cmd in cmds):
            return False
        return self.traced or all(cmd["first_model"] is not None for cmd in cmds)

    @property
    def spans_path(self) -> Path:
        return self.out_dir.parent / "spans.npz"


def run_iteration(k: int, traced: bool, plan: Plan, work: Path, src: Path,
                  timeout_s: float) -> Iteration:
    """Start one workload process and wait for it to end."""
    it_dir = work / f"it{k:02d}{'-traced' if traced else ''}"
    out = it_dir / "out"
    out.mkdir(parents=True)
    plan_path, result_path = it_dir / "plan.json", it_dir / "result.json"
    it = Iteration(traced, out, 0, 0.0, None)
    plan_path.write_text(json.dumps({
        "src": str(src), "commands": plan.commands(out), "trace": traced,
        "spans_path": str(it.spans_path),
    }, indent=1), encoding="utf-8")
    with open(it_dir / "log.txt", "w", encoding="utf-8") as log:
        t_spawn = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("workload.py")),
             str(plan_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=it_dir)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            pass
        finally:  # also on SIGTERM or ^C, so no workload process outlives the run
            t_exit = time.monotonic_ns()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    it.t_spawn, it.wall_s = t_spawn, (t_exit - t_spawn) / 1e9
    if proc.returncode == 0 and result_path.is_file():
        it.result = json.loads(result_path.read_text(encoding="utf-8"))
    return it


def check_iteration(it: Iteration, plan: Plan, rng: np.random.Generator) -> None:
    """Attach one Check per command; any failure fails that command."""
    if it.result is None:
        it.checks = [checks.Check(argv[0]) for argv in plan.commands(it.out_dir)]
        for c in it.checks:
            c.require(False, "workload process failed or timed out; see log.txt")
        return
    it.checks = plan.check(it.out_dir, rng)
    for c, cmd in zip(it.checks, it.result["commands"]):
        c.require(cmd["rc"] == 0 and cmd["error"] is None,
                  f"exit status {cmd['rc']}: {cmd['error'] or 'see log.txt'}")
        if not it.traced:
            c.require(cmd["first_model"] is not None, "command never called the model")
    if it.traced:
        missing = sorted(set(plan.expected_spans) - set(it.result["fired"]))
        it.checks[-1].require(not missing, f"expected spans never fired: {missing}")


def _enough(iterations: list[Iteration], trace: bool) -> bool:
    untraced = sum(not it.traced for it in iterations)
    if not trace:
        return untraced >= MIN_ITERATIONS
    return min(untraced, len(iterations) - untraced) >= MIN_TRACED_ITERATIONS


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[{q1:.4g}, {q3:.4g}]"


def _print_notes(iterations: list[Iteration]) -> None:
    """Reported, not gated: one line per command, flagging figures that vary."""
    good = [it for it in iterations if it.ok]
    if not good:
        return
    for k, first in enumerate(good[0].checks):
        parts = []
        for key, value in first.notes.items():
            same = all(it.checks[k].notes.get(key) == value for it in good)
            parts.append(f"{key}={value:.6g}" + ("" if same else " (varies)"))
        print(f"  {first.command}: {' '.join(parts)}")


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="End-to-end benchmark of ethikit.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long: start no iteration expected "
                             "to end later, once the minimum count has run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    src = root / "src"
    sys.path.insert(0, str(src))
    from ethikit import tokenizer  # the checkout's, for the vocab round-trip check

    work = Path(__file__).resolve().parent / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "data").mkdir(parents=True)
    env = environment()
    (work / "env.json").write_text(json.dumps(env, indent=1), encoding="utf-8")
    plan = WORKLOADS[args.workload].prepare(args.seed, work / "data", tokenizer)
    gen_s = time.monotonic() - started

    rng = np.random.default_rng(args.seed)
    iterations: list[Iteration] = []
    measuring = time.monotonic()
    probes = [probe.probe_s()]
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        it = run_iteration(len(iterations), traced, plan, work, src,
                           timeout_s=max(RUN_LIMIT_S + 15 - (time.monotonic() - started), 1.0))
        probes.append(probe.probe_s())
        it.probe_s = (probes[-2] + probes[-1]) / 2
        check_iteration(it, plan, rng)
        iterations.append(it)
        # Stop before an iteration of typical length would overrun --seconds.
        next_end = time.monotonic() + statistics.median(i.wall_s + p
                                                        for i, p in zip(iterations, probes))
        if _enough(iterations, args.trace) and next_end - measuring > args.seconds:
            break
        if next_end - started > RUN_LIMIT_S:
            break

    attempted = sum(len(it.checks) for it in iterations)
    failed = sum(1 for it in iterations for c in it.checks if c.failures)
    untraced = [it for it in iterations if not it.traced and it.timed]
    traced_ok = [it for it in iterations if it.traced and it.timed]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"  inputs generated, set-up done in {gen_s:.2f} s; "
          f"{len(iterations)} iterations in {time.monotonic() - started:.1f} s")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for it in iterations:
        for c in it.checks:
            for failure in c.failures:
                print(f"  FAILED {it.out_dir.parent.name} {c.command}: {failure}")
    if not untraced or (args.trace and not traced_ok):
        print("error: no iteration ran to completion, no result", file=sys.stderr)
        return 1

    raw = [end_to_end(it, plan) for it in untraced]
    e2e = [at_reference_speed(m, it.probe_s) for m, it in zip(raw, untraced)]
    print(f"  end-to-end, median [quartiles] over {len(e2e)} untraced iterations, at the "
          f"reference speed and as measured (probe median {statistics.median(probes):.4f} s, "
          f"reference {probe.REFERENCE_S} s):")
    for name, unit in END_TO_END.items():
        values, measured = [m[name] for m in e2e], [m[name] for m in raw]
        print(f"    {name:<24} {statistics.median(values):>12.4f} {unit:<11} "
              f"{_spread(values)} measured {statistics.median(measured):.4f} "
              f"{_spread(measured)} n={len(values)}")
    print(f"    {'failed_ops_frac':<24} {failed / attempted:>12.4f} {'ratio':<11} "
          f"{failed} of {attempted} operations")
    print("  outputs (reported, not gated):")
    _print_notes(iterations)

    if args.trace:
        layer, p90s = per_layer(traced_ok, untraced)
        print(f"  per-layer, median over {len(traced_ok)} traced iterations:")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"    {name:<36} {layer[name]:>12.6g} {unit}")
        for name, (value, n) in p90s.items():
            print(f"    {name:<36} {value:>12.6g} ms (n={n})")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(m[name] for m in e2e), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
