"""Fine-tuning loop: stratified split, epochs, accumulation cadence, curves.

Training, scoring and evaluation take sets already encoded by
``batching.encode_examples``, so no text is tokenized here. Each epoch
shuffles the training set, walks micro-batches through
forward/loss/backward/accumulate, flushes every ``n_acc`` micro-batches (plus
one leftover flush for a partial window at the epoch boundary), then records
eval-mode loss and accuracy on both splits. The best checkpoint by validation
accuracy (ties to lower validation loss) is retained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ethikit import loss as loss_mod
from ethikit import metrics as metrics_mod
from ethikit.batching import make_batches
from ethikit.errors import EmptyDataset, InvalidConfig, NonFiniteTraining, TooFewExamples
from ethikit.model import ModelConfig, ModelParams, backward, classify, forward, init_params
from ethikit.optim import OptimConfig, accumulate, flush, init_state


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    optim: OptimConfig = field(default_factory=OptimConfig)
    epochs: int = 5
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    train_acc: float
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


def split_train_val(examples, ratio: float = 0.8, seed: int = 0):
    """Seeded, label-stratified split; train gets floor(n * ratio) examples."""
    examples = list(examples)
    n = len(examples)
    if n < 2:
        raise TooFewExamples(f"cannot split {n} example(s)")
    if not 0.0 < ratio < 1.0:
        raise InvalidConfig("ratio must lie strictly between 0 and 1")

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
    return train, val


def predict_probs(params: ModelParams, dataset, batch_size: int = 32) -> np.ndarray:
    """Eval-mode probabilities for every encoded example, in dataset order.

    Sequences are truncated at the model's own ``max_len``. Rows are batched
    in order of truncated length, so each batch pads to little more than its
    own rows, and the probabilities are scattered back into dataset order.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("nothing to score")
    max_len = params.cfg.max_len
    lengths = np.fromiter((min(len(ex.ids), max_len) for ex in dataset),
                          dtype=np.int64, count=len(dataset))
    order = np.argsort(lengths, kind="stable")
    batches = make_batches(dataset, batch_size, order=order, max_len=max_len)
    probs = np.empty(len(dataset), dtype=np.float64)
    probs[order] = np.concatenate([classify(params, b) for b in batches])
    return probs


def _eval_loss_acc(params, dataset, batch_size):
    probs = predict_probs(params, dataset, batch_size)
    labels = np.array([ex.label for ex in dataset], dtype=np.float64)
    mean_loss = loss_mod.bce(probs, labels).mean_loss
    acc = float(((probs >= 0.5).astype(np.int64) == labels.astype(np.int64)).mean())
    return mean_loss, acc


def evaluate(
    params: ModelParams, dataset, batch_size: int = 32
) -> metrics_mod.EvalReport:
    """Full metric report at threshold 0.5 over a labeled, encoded dataset."""
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("cannot evaluate an empty dataset")
    probs = predict_probs(params, dataset, batch_size)
    labels = np.array([ex.label for ex in dataset], dtype=np.int64)
    return metrics_mod.build_report(probs, labels)


def _require_finite(epoch: int, step: int, tensors: dict, kind: str = "") -> None:
    """Stop training at the first NaN or infinite tensor, before it is applied."""
    for name, value in tensors.items():
        if not np.isfinite(value).all():
            raise NonFiniteTraining(
                f"epoch {epoch}, flush step {step}: {kind}{name} is NaN or infinite"
            )


def train(train_set, val_set, cfg: TrainConfig):
    """Run the fine-tuning loop on encoded sets; returns (best params, logs).

    Batches are cut at ``cfg.model.max_len``; ``cfg.model.seed`` seeds both
    the per-epoch shuffle and the dropout masks. A NaN or infinite logit, or
    accumulated gradient at a flush, raises ``NonFiniteTraining``.
    """
    train_set = list(train_set)
    val_set = list(val_set)
    if not train_set:
        raise EmptyDataset("empty training set")
    if not val_set:
        raise EmptyDataset("empty validation set")

    params = init_params(cfg.model)
    state = init_state(params, cfg.optim)
    dropout_rng = np.random.default_rng(cfg.model.seed)

    logs: list[EpochLog] = []
    best_params = params.copy()
    best_key: tuple[float, float] | None = None

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = np.random.default_rng((cfg.model.seed, epoch)).permutation(len(train_set))
        batches = make_batches(
            train_set, cfg.batch_size, order=order, max_len=cfg.model.max_len
        )
        for batch in batches:
            logits, cache = forward(params, batch, train=True, rng=dropout_rng)
            _require_finite(epoch, state.t + 1, {"logits": logits})
            grads = backward(
                params, cache, loss_mod.bce_grad_logits(logits, batch.labels)
            )
            accumulate(state, grads)
            if state.counter == cfg.optim.n_acc:
                _require_finite(epoch, state.t + 1, state.g_acc, "gradient of ")
                flush(params, state, cfg.optim)
        if state.counter > 0:
            _require_finite(epoch, state.t + 1, state.g_acc, "gradient of ")
            flush(params, state, cfg.optim, allow_partial=True)

        train_loss, train_acc = _eval_loss_acc(params, train_set, cfg.batch_size)
        val_loss, val_acc = _eval_loss_acc(params, val_set, cfg.batch_size)
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
