"""Dense two-layer network forward pass: the numeric core of the classifier.

The deployed topology is 61 -> 10 -> 4 with one activation per layer;
four activation pairings are supported, and a model's variant tag alone
names them (`VARIANTS`). One record, `TwoLayerModel`, holds the
parameters W1, b1, W2, b2 and checks the variant and the shapes for both
the float `DenseModel` and the int8 `quant.QuantizedModel`, as views of
one buffer, `flat`, whose layout `unflatten` alone defines. Shapes are
not hard-coded so the same code serves reduced test fixtures and the
distilled 61 -> 4 -> 4 student. Outputs follow the fixed class order
N, S, V, F.

Every forward, float or int8, inference or training, on one beat
`(fan_in,)`, a batch `(n, fan_in)` or a stack `(n, 1, fan_in)`, runs
through one walk, `layers`: it checks the input's shape once, then per
layer runs a kernel's affine map (`dense` is the float one) and the
variant's activation, and returns each layer's (z, a); `forward` keeps the
last a. `predict_labels`, the one label path, float or int8, walks the
windows once as a stack, whose rows carry the one-beat call's scores bit
for bit; training walks the 2-D batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .ingest import WINDOW_LEN
from .labels import CLASSES

SIGMOID = "sigmoid"
RELU = "relu"
SOFTMAX = "softmax"
ACTIVATIONS = (SIGMOID, RELU, SOFTMAX)

# variant tag -> (hidden activation, output activation)
VARIANTS = {
    "sigmoid-sigmoid": (SIGMOID, SIGMOID),
    "relu-sigmoid": (RELU, SIGMOID),
    "relu-softmax": (RELU, SOFTMAX),
    "sigmoid-softmax": (SIGMOID, SOFTMAX),
}

INPUT_LEN = WINDOW_LEN
HIDDEN_LEN = 10
OUTPUT_LEN = len(CLASSES)
LAYER_SHAPES = ((INPUT_LEN, HIDDEN_LEN), (HIDDEN_LEN, OUTPUT_LEN))


def sigmoid(z) -> np.ndarray:
    """Logistic, branch-wise so large |z| cannot overflow; min(z, -z) keeps a NaN's sign."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def relu(z) -> np.ndarray:
    return np.maximum(0.0, np.asarray(z, dtype=np.float64))


def softmax(z) -> np.ndarray:
    """Exponential sum then normalize, with max subtraction for stability.

    It cancels exactly, so outputs match the two-pass form where that does not
    overflow: bit for bit below 8 classes, as these whole-row ops on a class-first
    copy add left to right like numpy's sum over a short last axis; ~1e-15 above.
    """
    z = np.asarray(z, dtype=np.float64)
    if not z.shape or z.shape[-1] == 0:
        raise ValueError("softmax needs at least one class")
    zt = np.ascontiguousarray(z.T)
    e = np.exp(zt - zt.max(axis=0))
    e /= e.sum(axis=0)
    return np.ascontiguousarray(e.T)


_ACT_FN = {SIGMOID: sigmoid, RELU: relu, SOFTMAX: softmax}


def flat_size(shapes) -> int:
    """Parameter count of layers `shapes`: per layer, W (fan_in, fan_out) and b (fan_out,)."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)


def unflatten(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of `flat` as [W1, b1, W2, b2], each row-major, back to back: the
    parameter layout of every model and model file, defined here once."""
    if flat.shape != (flat_size(shapes),):
        raise ValueError(f"expected {flat_size(shapes)} parameters, got shape {flat.shape}")
    views, start = [], 0
    for fan_in, fan_out in shapes:
        stop = start + fan_in * fan_out
        views += [flat[start:stop].reshape(fan_in, fan_out), flat[stop : stop + fan_out]]
        start = stop + fan_out
    return views


_BUFFER_FIELDS = ("w1", "b1", "w2", "b2", "flat")


@dataclass
class TwoLayerModel:
    """The two dense layers' parameters, float or int8: W1 (fan_in, hidden),
    b1 (hidden,), W2 (hidden, fan_out), b2 (fan_out,).

    Subclasses add a `variant` field and set `dtype`. The arrays are coerced
    to it and, with the variant, checked here once, then copied into a new
    buffer, `flat`, whose views they become: write them in place, and copy a
    model with `dataclasses.replace` (`copy.deepcopy` parts them). Once `flat`
    exists, rebinding it or a view to another object raises.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)

    dtype: ClassVar[type] = np.float64

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=self.dtype))
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {sorted(VARIANTS)}"
            )
        for w, b in self.pairs:
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"inconsistent layer shapes {w.shape} / {b.shape}")
        (_, hidden), (fan_in, _) = self.shapes
        if hidden != fan_in:
            raise ValueError(f"layer widths disagree: {hidden} vs {fan_in}")
        flat = np.concatenate([p.ravel() for p in self.parameters])
        self.w1, self.b1, self.w2, self.b2 = unflatten(flat, self.shapes)
        self.flat = flat

    def __setattr__(self, name, value):
        # `m.w1 *= 30` rebinds w1 to itself; only another object would part it from flat
        if name in _BUFFER_FIELDS and "flat" in vars(self) and value is not getattr(self, name):
            raise AttributeError(f"{name} is a view of the model's flat buffer; write it in place")
        super().__setattr__(name, value)

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Live (weights, bias) views per layer: [(W1, b1), (W2, b2)]."""
        return [(self.w1, self.b1), (self.w2, self.b2)]

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [w.shape for w, _ in self.pairs]

    @property
    def parameters(self) -> list[np.ndarray]:
        """Live views in fixed order: W1, b1, W2, b2."""
        return [self.w1, self.b1, self.w2, self.b2]

    @property
    def param_count(self) -> int:
        return self.flat.size


@dataclass
class DenseModel(TwoLayerModel):
    """Float64 parameters of a trainable model."""

    variant: str


def glorot_init(
    shapes: list[tuple[int, int]],
    variant: str,
    rng: np.random.Generator,
) -> DenseModel:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
    params = []
    for fan_in, fan_out in shapes:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params += [rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)]
    return DenseModel(*params, variant)


def standard_model(variant: str, seed: int = 0) -> DenseModel:
    """Fresh 61 -> 10 -> 4 model (664 parameters)."""
    return glorot_init(LAYER_SHAPES, variant, np.random.default_rng(seed))


def dense(x, w, b) -> np.ndarray:
    """One float dense layer's affine map: x @ W + b."""
    return x @ w + b


def layers(model, beat, kernel=dense, *args) -> list[tuple[np.ndarray, np.ndarray]]:
    """Walk one beat `(fan_in,)`, a batch `(n, fan_in)` or a stack of beats
    `(n, 1, fan_in)` through `model`, float or int8: per layer,
    z = kernel(x, weights, bias, *args), then the activation a the variant
    names. Returns `[(z1, a1), (z2, out)]`.
    """
    x = np.asarray(beat, dtype=np.float64)
    pairs = model.pairs
    fan_in = pairs[0][0].shape[0]
    n = x.shape[:1]
    if x.shape not in ((fan_in,), n + (fan_in,), n + (1, fan_in)):
        raise ValueError(
            f"expected shape ({fan_in},), (n, {fan_in}) or (n, 1, {fan_in}), got {x.shape}"
        )
    walk = []
    for (w, b), activation in zip(pairs, VARIANTS[model.variant]):
        z = kernel(x, w, b, *args)
        x = _ACT_FN[activation](z)
        walk.append((z, x))
    return walk


def forward(model, beat, kernel=dense, *args) -> np.ndarray:
    """The output layer's activation from `layers`: one score row per beat."""
    return layers(model, beat, kernel, *args)[-1][1]


def predict_labels(model, windows, kernel=dense, *args) -> np.ndarray:
    """Predicted class codes for beat windows `(n, fan_in)`, float or int8 as
    `layers`; ties resolve to the lowest class index.

    One walk over the stack `(n, 1, fan_in)`: numpy's matmul runs each row as
    the vector-matrix product of a one-beat `forward`, so every row's scores,
    and so its label, are the per-beat call's bit for bit, exact ties
    included. A 2-D batch would add in another order."""
    windows = np.asarray(windows, dtype=np.float64)
    fan_in = model.shapes[0][0]
    if windows.ndim != 2 or windows.shape[1] != fan_in:
        raise ValueError(f"expected windows of shape (n, {fan_in}), got {windows.shape}")
    scores = forward(model, windows[:, None, :], kernel, *args)[:, 0]
    return np.argmax(scores, axis=1).astype(np.int64, copy=False)
