"""Training: MSE loss, analytic backprop, Adam, plus compression ablations.

Gradients are exact for all four activation pairings (the softmax path uses
the full Jacobian, not the cross-entropy shortcut) and read each layer's
(z, a) from the inference walk, `nn.layers`. One epoch takes one Adam
step, from one batched forward in `backward`, on a freshly shuffled batch.
One loop, `_descend`, owns that schedule, the Adam state and the freeze mask;
`fit` and `distill` each hand it a `grad_fn(idx) -> (loss, grads)`.
A gradient, the Adam moments and a freeze or prune mask each span the
model's one parameter buffer, `model.flat`, so each is one array op.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .ingest import BeatSet
from .labels import CLASSES
from .metrics import confusion, scores
from .nn import INPUT_LEN, LAYER_SHAPES, OUTPUT_LEN, RELU, SIGMOID, SOFTMAX, VARIANTS
from .nn import DenseModel, flat_size, glorot_init, layers, predict_labels, softmax, unflatten

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DISTILL_TEMPERATURE = 10.0
STUDENT_HIDDEN_LEN = 4


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10_000
    learning_rate: float = 0.001
    batch_size: int = 1024
    seed: int = 0
    variant: str = "sigmoid-sigmoid"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {sorted(VARIANTS)}"
            )


@dataclass
class AdamState:
    """First/second moment accumulators, each shaped like the flat parameters."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


@dataclass
class TrainTrace:
    losses: np.ndarray
    train_accuracy: float = float("nan")
    test_accuracy: float = float("nan")
    train_macro_f1: float = float("nan")
    test_macro_f1: float = float("nan")

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(self.losses):
                writer.writerow([epoch, repr(float(loss))])


def one_hot(labels: np.ndarray) -> np.ndarray:
    return np.eye(len(CLASSES))[labels]


def mse_loss(predicted, target) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ValueError(f"shape mismatch {predicted.shape} vs {target.shape}")
    diff = predicted - target
    return float(np.mean(diff * diff))


def forward_batch(model: DenseModel, x: np.ndarray):
    """The walk `nn.layers` of a batch, flattened for backprop: (z1, a1, z2, out)."""
    (z1, a1), (z2, out) = layers(model, x)
    return z1, a1, z2, out


def _activation_backward(activation: str, grad_out, z, out) -> np.ndarray:
    """dL/dz from dL/d(activation(z)), rows are batch samples."""
    if activation == SIGMOID:
        return grad_out * out * (1.0 - out)
    if activation == RELU:
        return grad_out * (z > 0)
    # softmax Jacobian: dz_i = s_i * (g_i - sum_j g_j s_j), summed as in `softmax`
    dot = np.ascontiguousarray((grad_out * out).T).sum(axis=0)
    return out * (grad_out - dot[:, None])


def _grads_from_dz2(model, x, a1, z1, dz2) -> np.ndarray:
    act1, _ = VARIANTS[model.variant]
    grads = np.empty_like(model.flat)
    g_w1, g_b1, g_w2, g_b2 = unflatten(grads, model.shapes)
    np.matmul(a1.T, dz2, out=g_w2)
    dz2.sum(axis=0, out=g_b2)
    dz1 = _activation_backward(act1, dz2 @ model.w2.T, z1, a1)
    np.matmul(x.T, dz1, out=g_w1)
    dz1.sum(axis=0, out=g_b1)
    return grads


def backward(model: DenseModel, x, target) -> tuple[float, np.ndarray]:
    """mse_loss and its exact gradient w.r.t. `model.flat`, from one forward."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    z1, a1, z2, out = forward_batch(model, x)
    _, act2 = VARIANTS[model.variant]
    grad_out = 2.0 * (out - target) / target.size
    dz2 = _activation_backward(act2, grad_out, z2, out)
    return mse_loss(out, target), _grads_from_dz2(model, x, a1, z1, dz2)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """In-place Adam update with bias correction, one pass over the flat parameters."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correct1 = 1.0 - b1**state.t
    correct2 = 1.0 - b2**state.t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    params -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def _descend(model: DenseModel, grad_fn, n: int, config: TrainConfig,
             rng: np.random.Generator, mask: np.ndarray | None = None) -> np.ndarray:
    """Adam on `model.flat` over `n` samples; returns each epoch's loss.

    Each epoch takes one step on a freshly shuffled batch of `config.batch_size`;
    `grad_fn(idx) -> (loss, grads)` scores it, and `mask` positions are
    re-zeroed after the step.
    """
    state = AdamState.for_params(model.flat)
    losses = np.empty(config.epochs)
    for epoch in range(config.epochs):
        losses[epoch], grads = grad_fn(rng.permutation(n)[: config.batch_size])
        adam_step(model.flat, grads, state, config.learning_rate)
        if mask is not None:
            model.flat[mask] = 0.0
    return losses


def evaluate(model: DenseModel, beats: BeatSet) -> tuple[float, float]:
    """Accuracy and macro-F1 of `model` on `beats`, from the labels
    `nn.predict_labels` gives, as `tinyecg eval` scores them."""
    report = scores(confusion(beats.labels, predict_labels(model, beats.windows)))
    return report.accuracy, report.macro_f1


def fit(
    train: BeatSet,
    test: BeatSet | None,
    config: TrainConfig,
    init_model: DenseModel | None = None,
    freeze_mask: np.ndarray | None = None,
) -> tuple[DenseModel, TrainTrace]:
    """Shuffled mini-batch Adam loop on the MSE gradient, deterministic per seed.

    `init_model` resumes from a copy of existing parameters (its variant wins
    over `config.variant`); `freeze_mask`, one boolean array over `model.flat`,
    pins masked parameters at zero (pruning and the weights-only ablation).
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    missing = [c for c, n in train.counts.items() if n == 0]
    if missing:
        warnings.warn(f"training set has no beats for class(es): {', '.join(missing)}")

    rng = np.random.default_rng(config.seed)
    model = (glorot_init(LAYER_SHAPES, config.variant, rng) if init_model is None
             else replace(init_model))
    if freeze_mask is not None:
        model.flat[freeze_mask] = 0.0

    targets = one_hot(train.labels)
    losses = _descend(model, lambda idx: backward(
        model, train.windows.take(idx, axis=0), targets.take(idx, axis=0)),
        len(train), config, rng, freeze_mask)

    trace = TrainTrace(losses)
    trace.train_accuracy, trace.train_macro_f1 = evaluate(model, train)
    if test is not None and len(test) > 0:
        trace.test_accuracy, trace.test_macro_f1 = evaluate(model, test)
    return model, trace


def fit_weights_only(
    train: BeatSet, test: BeatSet | None, config: TrainConfig
) -> tuple[DenseModel, TrainTrace]:
    """Train with biases pinned at exactly zero throughout."""
    biases = np.zeros(flat_size(LAYER_SHAPES), dtype=bool)
    _, b1, _, b2 = unflatten(biases, LAYER_SHAPES)
    b1[:] = b2[:] = True
    return fit(train, test, config, freeze_mask=biases)


def prune_mask(model: DenseModel) -> np.ndarray:
    """True over `model.flat` where |value| falls below its group's median.

    Groups are per layer and per parameter type (weights and biases
    separately), so a large bias cannot shield small weights.
    """
    mask = np.empty(model.flat.shape, dtype=bool)
    for p, m in zip(model.parameters, unflatten(mask, model.shapes)):
        np.less(np.abs(p), np.percentile(np.abs(p), 50), out=m)
    return mask


def prune_and_retrain(
    model: DenseModel, train: BeatSet, config: TrainConfig
) -> DenseModel:
    """Zero the bottom half of each parameter group, then retrain at lr/100.

    Pruned positions stay exactly zero through retraining; pruning is not
    iterated. `fit` zeroes them in its own copy of `model`.
    """
    retrain_config = replace(config, learning_rate=config.learning_rate / 100.0)
    return fit(train, None, retrain_config, init_model=model, freeze_mask=prune_mask(model))[0]


def _distill_objective(soft_targets, p_soft, p_hard, hard_targets) -> float:
    """The distillation loss, batch means: 0.9 KL(q || p_soft) + 0.1 CE(y, p_hard)."""
    q, y = soft_targets, np.asarray(hard_targets, dtype=np.float64)
    kl = float(np.mean(np.sum(q * (np.log(q) - np.log(p_soft)), axis=-1)))
    ce = float(np.mean(-np.sum(y * np.log(p_hard), axis=-1)))
    return 0.9 * kl + 0.1 * ce


def distill_backward(
    student: DenseModel, x, soft_targets, hard_targets, temperature: float
) -> tuple[float, np.ndarray]:
    """The distillation loss and its exact gradient w.r.t. `student.flat`, for one batch."""
    z1, a1, z2, out = forward_batch(student, x)
    p_soft = softmax(z2 / temperature)
    p_hard = out if VARIANTS[student.variant][1] == SOFTMAX else softmax(z2)
    n = x.shape[0]
    dz2 = (
        0.9 * (p_soft - soft_targets) / (temperature * n)
        + 0.1 * (p_hard - hard_targets) / n
    )
    loss = _distill_objective(soft_targets, p_soft, p_hard, hard_targets)
    return loss, _grads_from_dz2(student, x, a1, z1, dz2)


def distill(teacher: DenseModel, train: BeatSet, config: TrainConfig) -> DenseModel:
    """Train a 61 -> 4 -> 4 student against the teacher's softened outputs.

    Loss = 0.9 * KL(teacher softmax(z/T) || student softmax(z/T))
         + 0.1 * cross-entropy(hard one-hot targets, student softmax(z)).
    T is `DISTILL_TEMPERATURE`. Softmax is applied to both logit sets
    regardless of variant. The student takes the teacher's variant;
    `config.variant` is not read. Batches follow `fit`'s schedule.
    """
    soft_targets = softmax(forward_batch(teacher, train.windows)[2] / DISTILL_TEMPERATURE)
    hard_targets = one_hot(train.labels)
    rng = np.random.default_rng(config.seed)
    shapes = [(INPUT_LEN, STUDENT_HIDDEN_LEN), (STUDENT_HIDDEN_LEN, OUTPUT_LEN)]
    student = glorot_init(shapes, teacher.variant, rng)
    _descend(student, lambda idx: distill_backward(
        student, train.windows[idx], soft_targets[idx], hard_targets[idx], DISTILL_TEMPERATURE),
        len(train), config, rng)
    return student


def distill_loss(
    teacher_logits, student_logits, hard_targets, temperature: float = DISTILL_TEMPERATURE
) -> float:
    """The distillation objective on teacher and student logits, for verification."""
    student_logits = np.asarray(student_logits)
    return _distill_objective(softmax(np.asarray(teacher_logits) / temperature),
                              softmax(student_logits / temperature),
                              softmax(student_logits), hard_targets)
