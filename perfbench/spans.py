"""Timing hooks installed around ethikit's public functions from outside.

ethikit is not changed. A function is replaced at every module attribute
bound to it, so ``ethikit.trainer.forward`` and ``ethikit.model.forward`` are
both wrapped, and intra-module calls go through the wrapper too.

Two recorders share that mechanism:

- ``PhaseStamps`` stamps entry into ``model.forward``/``model.classify`` and
  exit from ``trainer.train``. That is enough to split each command into
  set-up, training and scoring phases, and it costs a few hundred calls of
  overhead, so the end-to-end run uses it.
- ``Tracer`` records a span (name, start, end, parent) for every call of every
  public function of the traced modules, plus work counters at the same
  boundaries. Spans stay in memory until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from types import ModuleType

import numpy as np

TRACED_MODULES = ("dataset", "normalize", "tokenizer", "batching", "model",
                  "optim", "trainer", "metrics", "hard_filter", "cli")

UNK_ID = 1  # ethikit.tokenizer.UNK_ID; ids are counted without importing it


def ethikit_modules() -> list[ModuleType]:
    """Every loaded ethikit module, the places a function can be bound."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ethikit" or name.startswith("ethikit."))]


def public_functions(module: ModuleType) -> dict[str, object]:
    """Functions defined in ``module`` (not imported into it), without a leading _."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Patch:
    """Rebinds functions wherever they are bound by name; ``undo`` restores them."""

    def __init__(self, modules: list[ModuleType]):
        self.modules = modules
        self._saved: list[tuple[ModuleType, str, object]] = []

    def replace(self, func, wrapper) -> int:
        """Bind ``wrapper`` in place of ``func``; returns the number of bindings."""
        hits = [(m, name) for m in self.modules
                for name, value in list(vars(m).items()) if value is func]
        for m, name in hits:
            self._saved.append((m, name, func))
            setattr(m, name, wrapper)
        return len(hits)

    def undo(self) -> None:
        for m, name, func in reversed(self._saved):
            setattr(m, name, func)
        self._saved.clear()


def _module(modules, short: str) -> ModuleType:
    for m in modules:
        if m.__name__ == f"ethikit.{short}":
            return m
    raise LookupError(f"ethikit.{short} is not loaded")


class PhaseStamps:
    """Per-command timestamps that split a command into phases.

    ``first_model``: first entry into model.forward or model.classify.
    ``last_train_exit``: last return from trainer.train.
    ``first_score``: first model.classify entry outside trainer.train,
    i.e. the start of eval-mode scoring after any training.
    """

    def __init__(self, clock=time.monotonic_ns):
        self.clock = clock
        self.train_depth = 0
        self.first_model = self.last_train_exit = self.first_score = None

    def take(self) -> dict:
        """The stamps of the command that just ended; resets for the next one."""
        stamps = {"first_model": self.first_model,
                  "last_train_exit": self.last_train_exit,
                  "first_score": self.first_score}
        self.first_model = self.last_train_exit = self.first_score = None
        return stamps

    def install(self, modules) -> Patch:
        patch = Patch(modules)
        model = _module(modules, "model")
        trainer = _module(modules, "trainer")
        patch.replace(model.forward, self._model_entry(model.forward, scoring=False))
        patch.replace(model.classify, self._model_entry(model.classify, scoring=True))
        patch.replace(trainer.train, self._train_exit(trainer.train))
        return patch

    def _model_entry(self, func, scoring: bool):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            now = self.clock()
            if self.first_model is None:
                self.first_model = now
            if scoring and self.train_depth == 0 and self.first_score is None:
                self.first_score = now
            return func(*args, **kwargs)
        return wrapper

    def _train_exit(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.train_depth += 1
            try:
                return func(*args, **kwargs)
            finally:
                self.train_depth -= 1
                self.last_train_exit = self.clock()
        return wrapper


def _forward_mode(args, kwargs) -> str:
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "model.forward" if train else "model.forward_eval"


def _count_encode(counters, args, kwargs, result) -> None:
    counters["tokenizer.encoded_ids"] += len(result)
    counters["tokenizer.unk_ids"] += result.count(UNK_ID)


def _count_truncate(counters, args, kwargs, result) -> None:
    l_max = kwargs.get("l_max", args[1] if len(args) > 1 else None)
    counters["batching.sequences"] += 1
    counters["batching.truncated"] += int(len(args[0]) > l_max)


def _count_batches(counters, args, kwargs, result) -> None:
    for batch in result:
        counters["batching.padded_slots"] += int(batch.mask.size)
        counters["batching.pad_slots"] += int(batch.mask.size - np.count_nonzero(batch.mask))


def _count_rows(counters, args, kwargs, result) -> None:
    counters["dataset.rows"] += len(result)


def _count_merges(counters, args, kwargs, result) -> None:
    # Every token longer than one character (after the continuation prefix)
    # was made by a merge; specials are bracketed and excluded.
    prefix = result.continuation_prefix
    counters["tokenizer.merges"] += sum(
        1 for tok in result.tokens
        if not tok.startswith("[") and len(tok.removeprefix(prefix)) > 1
    )


COUNTER_KEYS = ("tokenizer.encoded_ids", "tokenizer.unk_ids", "tokenizer.merges",
                "batching.sequences", "batching.truncated", "batching.padded_slots",
                "batching.pad_slots", "dataset.rows")

# Work counters taken at span boundaries, after the span has ended.
COUNTERS = {
    "tokenizer.encode": _count_encode,
    "tokenizer.train_vocab": _count_merges,
    "batching.truncate": _count_truncate,
    "batching.make_batches": _count_batches,
    "dataset.load_split": _count_rows,
}


class Tracer:
    """Nested spans for every public function of ``TRACED_MODULES``."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func, label=None, count=None):
        """Wrapper recording one span per call; ``label`` may rename by arguments."""
        fixed_id = self._intern(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            nid = fixed_id if label is None else self._intern(label(args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(self.clock())
            self.end.append(0)
            self._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return wrapper

    def install(self, modules) -> Patch:
        patch = Patch(modules)
        for short in TRACED_MODULES:
            for fname, func in public_functions(_module(modules, short)).items():
                name = f"{short}.{fname}"
                label = _forward_mode if name == "model.forward" else None
                patch.replace(func, self.wrap(name, func, label, COUNTERS.get(name)))
        return patch

    def fired(self) -> set[str]:
        return {self.names[i] for i in set(self.name_id)}

    def save(self, path) -> None:
        """Write the spans: name table, then one row per span."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def load_spans(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def span_table(spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per name: calls, busy_s, self_s and per-call durations in ms.

    Self time is a span's duration minus its children's durations. Children
    of one span run one after another inside it, so the difference is exact
    in integer nanoseconds and never negative.
    """
    names = spans["names"]
    name_id = spans["name_id"]
    parent = spans["parent"]
    dur = spans["end_ns"] - spans["start_ns"]
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    table = {}
    for i, name in enumerate(names):
        sel = name_id == i
        table[str(name)] = {
            "calls": int(sel.sum()),
            "busy_s": float(dur[sel].sum()) / 1e9,
            "self_s": float(self_ns[sel].sum()) / 1e9,
            "durations_ms": dur[sel] / 1e6,
        }
    return table
