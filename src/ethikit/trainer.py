"""Fine-tuning loop: stratified split, epochs, accumulation cadence, curves.

Training, scoring and evaluation take sets already encoded by
``batching.encode_examples``, so no text is tokenized here. Each epoch
shuffles the training set and walks its micro-batches in windows of
``n_acc``, the last window of an epoch holding what is left. Each micro-batch
runs forward/loss/backward, backward adding its gradients into the optimizer's
``g_acc``, and ``optim.accumulate`` then counts it; each window ends in one
flush, which divides by that count. Each epoch then records eval-mode loss
and accuracy on the validation split, and on the training split unless the
caller reads no training metrics (``train(..., score_train=False)``), each
scored in batches built at the first epoch's end. The best checkpoint by
validation accuracy (ties to lower validation loss) is retained.

One micro-batch's activations are alive at a time: its logits and cache are
dropped once backward has added its gradients, before the next forward or
the epoch-end scoring, and ``_keep_freed_heap`` keeps the heap they leave
for the next step.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field

import numpy as np

from ethikit import loss as loss_mod
from ethikit import metrics as metrics_mod
from ethikit.batching import DEFAULT_BATCH_SIZE, make_batches
from ethikit.errors import ConfigError, EmptyDataset, NonFiniteTraining, TooFewExamples
from ethikit.model import ModelConfig, ModelParams, backward, classify, forward, init_params
from ethikit.optim import OptimConfig, accumulate, flush, init_state


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    optim: OptimConfig = field(default_factory=OptimConfig)
    epochs: int = 5
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float | None  # None when the training split was not scored
    train_acc: float | None
    val_loss: float
    val_acc: float
    seconds: float


EPOCH_CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc,seconds"


def epoch_logs_csv(logs) -> str:
    lines = [EPOCH_CSV_HEADER]
    for log in logs:
        lines.append(
            f"{log.epoch},{log.train_loss!r},{log.train_acc!r},"
            f"{log.val_loss!r},{log.val_acc!r},{log.seconds!r}"
        )
    return "\n".join(lines) + "\n"


TRAIN_RATIO = 0.8  # the train share of ``split_train_val`` and ``train --val-ratio``


def check_ratio(ratio: float) -> None:
    """Raise ConfigError unless a train share lies strictly between 0 and 1."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError("ratio must lie strictly between 0 and 1")


def split_train_val(examples, ratio: float = TRAIN_RATIO, seed: int = 0):
    """Seeded, label-stratified split; train gets floor(n * ratio) examples.

    A ratio that leaves no example to train on raises TooFewExamples.
    """
    examples = list(examples)
    n = len(examples)
    if n < 2:
        raise TooFewExamples(f"cannot split {n} example(s)")
    check_ratio(ratio)

    rng = np.random.default_rng(seed)
    pos = [ex for ex in examples if ex.label == 1]
    neg = [ex for ex in examples if ex.label != 1]
    rng.shuffle(pos)
    rng.shuffle(neg)

    n_train = int(n * ratio)
    take_pos = int(len(pos) * ratio)
    take_neg = int(len(neg) * ratio)
    # Largest-remainder top-up keeps each side's positive rate within one
    # example of the whole while the total matches floor(n * ratio).
    while take_pos + take_neg < n_train:
        frac_pos = len(pos) * ratio - take_pos
        frac_neg = len(neg) * ratio - take_neg
        if take_neg >= len(neg) or (take_pos < len(pos) and frac_pos >= frac_neg):
            take_pos += 1
        else:
            take_neg += 1
    train = pos[:take_pos] + neg[:take_neg]
    val = pos[take_pos:] + neg[take_neg:]
    if not train:  # floor(n * ratio) < n, so validation always keeps a row
        raise TooFewExamples(f"cannot split {n} example(s) at ratio {ratio}: "
                             "the training set would be empty")
    return train, val


def scoring_batches(dataset, max_len: int):
    """``(order, batches)`` that score ``dataset``, truncated at ``max_len``.

    ``order`` lists the rows by truncated length (stable), and ``batches``
    are those rows packed by ``make_batches``: each holds rows while rows x
    padded width stays within ``DEFAULT_BATCH_SIZE`` x the widest truncated
    row, so short rows share a call and no call is larger than a full batch
    of the widest rows. This is the one scoring budget; the training batch
    size does not set it.
    """
    lengths = np.fromiter((min(len(ex.ids), max_len) for ex in dataset),
                          dtype=np.int64, count=len(dataset))
    order = np.argsort(lengths, kind="stable")
    return order, make_batches(dataset, DEFAULT_BATCH_SIZE, order=order, max_len=max_len,
                               pack=True)


def predict_probs(params: ModelParams, dataset, *, prepared=None) -> np.ndarray:
    """Eval-mode probabilities for every encoded example, in dataset order.

    Rows are scored in the ``scoring_batches`` of ``dataset`` at the model's
    own ``max_len``: ``prepared``, when a caller scoring the same set again
    has kept them, else built here. The probabilities are scattered back
    into dataset order.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("nothing to score")
    order, batches = prepared or scoring_batches(dataset, params.cfg.max_len)
    probs = np.empty(len(dataset), dtype=np.float64)
    probs[order] = np.concatenate([classify(params, b) for b in batches])
    return probs


def _eval_loss_acc(params, dataset, prepared):
    probs = predict_probs(params, dataset, prepared=prepared)
    labels = np.array([ex.label for ex in dataset], dtype=np.float64)
    mean_loss = loss_mod.bce(probs, labels)
    preds = (probs >= metrics_mod.THRESHOLD).astype(np.int64)
    acc = float((preds == labels.astype(np.int64)).mean())
    return mean_loss, acc


def evaluate(params: ModelParams, dataset) -> metrics_mod.EvalReport:
    """Full metric report at ``metrics.THRESHOLD`` over a labeled, encoded dataset."""
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("cannot evaluate an empty dataset")
    probs = predict_probs(params, dataset)
    labels = np.array([ex.label for ex in dataset], dtype=np.int64)
    return metrics_mod.build_report(probs, labels)


def _require_finite(epoch: int, step: int, tensors: dict, kind: str = "") -> None:
    """Stop training at the first NaN or infinite tensor, before it is applied."""
    for name, value in tensors.items():
        if not np.isfinite(value).all():
            raise NonFiniteTraining(
                f"epoch {epoch}, flush step {step}: {kind}{name} is NaN or infinite"
            )


def _keep_freed_heap() -> None:
    """Pin glibc's mmap and trim thresholds, so freed activations stay reusable.

    A training step frees every activation it made. Below the mmap
    threshold they come from the heap, and freed heap is returned to the
    kernel only past the trim threshold, so each step reuses the last one's
    pages instead of faulting them in again. The values are those glibc's
    own dynamic rule climbs to on a 64-bit system, and they are process-wide.
    Where the running program's C library cannot be opened (``CDLL(None)``
    is a TypeError on Windows) or has no ``mallopt``, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the dynamic rule's maximum
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice it, as the rule sets it


def train(train_set, val_set, cfg: TrainConfig, *, score_train: bool = True):
    """Run the fine-tuning loop on encoded sets; returns (best params, logs).

    Batches are cut at ``cfg.model.max_len``; ``cfg.model.seed`` seeds both
    the per-epoch shuffle and the dropout masks. A NaN or infinite logit, or
    accumulated gradient at a flush, raises ``NonFiniteTraining``.

    At each epoch's end the validation split is scored in eval mode; its
    accuracy, ties to its lower loss, alone picks the best epoch. The
    training split is scored too when ``score_train`` is true, as
    ``ethikit train`` does for ``epochs.csv``. The filter-hard proxies read
    no logs and pass false: the training split then gets no scoring batches,
    and each log's ``train_loss`` and ``train_acc`` are None.
    """
    train_set = list(train_set)
    val_set = list(val_set)
    if not train_set:
        raise EmptyDataset("empty training set")
    if not val_set:
        raise EmptyDataset("empty validation set")

    _keep_freed_heap()
    params = init_params(cfg.model)
    state = init_state(params)
    dropout_rng = np.random.default_rng(cfg.model.seed)

    logs: list[EpochLog] = []
    best_key: tuple[float, float] | None = None
    scored = (train_set, val_set) if score_train else (val_set,)
    scoring = None  # the scoring_batches of the scored sets, built once

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = np.random.default_rng((cfg.model.seed, epoch)).permutation(len(train_set))
        batches = make_batches(
            train_set, cfg.batch_size, order=order, max_len=cfg.model.max_len
        )
        for start in range(0, len(batches), cfg.optim.n_acc):
            for batch in batches[start:start + cfg.optim.n_acc]:
                logits, cache = forward(params, batch, train=True, rng=dropout_rng)
                _require_finite(epoch, state.t + 1, {"logits": logits})
                backward(params, cache, loss_mod.bce_grad_logits(logits, batch.labels),
                         state.g_acc)
                del logits, cache
                accumulate(state)
            # One check of the flat buffer; only a failure searches by name.
            if not np.isfinite(state.g_acc.flat).all():
                _require_finite(epoch, state.t + 1, state.g_acc, "gradient of ")
            flush(params, state, cfg.optim)

        if scoring is None:  # at the first epoch's end, so set-up does not wait on it
            scoring = [scoring_batches(s, cfg.model.max_len) for s in scored]
        train_loss = train_acc = None
        if score_train:
            train_loss, train_acc = _eval_loss_acc(params, train_set, scoring[0])
        val_loss, val_acc = _eval_loss_acc(params, val_set, scoring[-1])
        logs.append(EpochLog(
            epoch=epoch,
            train_loss=train_loss,
            train_acc=train_acc,
            val_loss=val_loss,
            val_acc=val_acc,
            seconds=time.perf_counter() - started,
        ))

        key = (val_acc, -val_loss)
        if best_key is None or key > best_key:
            best_key = key
            best_params = params.copy()

    return best_params, logs
