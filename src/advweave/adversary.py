"""Trainable tiny CNN with from-scratch backprop, FGSM, universal
perturbation crafting, random-noise baselines, fooling metrics, TCNN files.

Architecture: conv (stride 1, valid, CONV_CHANNELS filters) -> ReLU ->
2x2 maxpool -> flatten -> dense -> softmax, with cross-entropy loss. Pixels
live in [0, 1] and a perturbation budget is at most 5% of the maximum
pixel magnitude.

A corpus is one read-only (N, C, H, W) float64 array and an int64 label
vector, as make_corpus returns them. The model runs on batches only:
forward, backward, predict, train, craft_uap and fooling_report take those
arrays. One image or perturbation is a (C, H, W) array: fgsm (the only
one-image model call) takes and returns one, as random_noise and craft_uap
return and fooling_report applies one.

The first layer works pool-major on both routes: _columns copies conv's
window view of a batch with each output axis split by pooling window,
cols[c, j, k, dy, dx, n, py, px] = x[n, c, 2py+dy+j, 2px+dx+k], so the
forward GEMM's output (O, 4, N*ph*pw) holds value (dy, dx) of every 2x2
pooling window in one contiguous slab, which _pool pools. The columns'
rows run in the filters' own (C, kh, kw) order, so the layers compute on
the TinyCNN's arrays as they are: conv1.weights reshaped to (O, C*kh*kw)
is the GEMM's matrix. The forward keeps the conv output and the pooled
values; backprop alone builds the first-maximum mask (_first_max) and
routes each window's gradient to that maximum with one product, so the
conv output's gradient dz1 keeps the columns' order: dW is one GEMM of dz1
by the columns, db a sum, and dx the exact adjoint of _columns: the
columns' gradient W.T @ dz1, summed into the input by one np.bincount over
_column_index.

train builds one TinyCNN and one Gradients on views of two flat float64
buffers, and returns that model: each step takes its batch from the
corpus's columns (built once, about 1 MB at the CLI defaults), writes its
gradients into the second buffer and updates the first with one
subtraction. make_corpus's loop makes only the random draws (label, field,
bar position), in that order.

The fooling-rate evaluation can route the first layer either through
ordinary convolution of the explicitly noise-added input ("direct") or
through the noise-interleaved attacked convolution ("interleaved"): the
woven batch's columns at vertical stride 2, with j over the 2*kh duplicated
filter rows (np.repeat along the kernel-row axis, as weave does), into the
same GEMM and tail. The two paths must agree.
"""
from __future__ import annotations

import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .conv import FilterBank, _windows as _conv_windows
from .errors import Diverged, EmptyDataset, FormatError, ShapeMismatch
from .tensor import _naming, read_t3b_stream, write_t3b_stream
from .weave import weave_rows

TCNN_MAGIC = b"TCNN"
TCNN_VERSION = 1

# First-layer filters of the model init_model builds.
CONV_CHANNELS = 6

# The perturbation budget caps epsilon at RELATIVE_CAP of the maximum
# image magnitude (pixels live in [0, 1]); the paper's budget is 5%.
RELATIVE_CAP = 0.05
MAX_MAGNITUDE = 1.0

# Samples per batched forward in predict and fooling_report: large enough
# to amortise per-call overhead, small enough that a 2000-sample eval adds
# no memory.
EVAL_BLOCK = 64

# Reference-only context: published ImageNet fooling rates for pretrained
# models under a universal perturbation. Not reproducible at desk scale.
IMAGENET_FOOLING_RATES = {
    "AlexNet": 90.8,
    "VGG-16": 88.9,
    "ResNet-50": 84.2,
    "GoogleNet": 85.3,
}


@dataclass(frozen=True)
class TinyCNN:
    conv1: FilterBank
    fc_w: np.ndarray  # (num_classes, flat_features)
    fc_b: np.ndarray  # (num_classes,)
    input_shape: tuple[int, int, int]

    @property
    def num_classes(self) -> int:
        return self.fc_w.shape[0]


def _flat_features(input_shape: tuple[int, int, int], conv1: FilterBank) -> int:
    """Width of the dense layer: conv1's (stride 1, valid) output, 2x2 pooled.
    The model's one shape rule, for init_model and load_model alike."""
    _, h, w = input_shape
    oh = h - conv1.kernel_h + 1
    ow = w - conv1.kernel_w + 1
    if oh < 2 or ow < 2 or oh % 2 or ow % 2:
        raise ShapeMismatch("conv output dims must be even and >= 2 for pooling")
    return conv1.out_channels * (oh // 2) * (ow // 2)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 40
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class PerturbBudget:
    """L-inf perturbation budget; epsilon is capped at RELATIVE_CAP of the
    maximum image magnitude MAX_MAGNITUDE."""

    epsilon: float

    def __post_init__(self):
        # written so that NaN fails it too
        if not 0 <= self.epsilon <= RELATIVE_CAP * MAX_MAGNITUDE + 1e-12:
            raise ValueError(
                f"epsilon {self.epsilon} is outside [0, "
                f"{RELATIVE_CAP} * {MAX_MAGNITUDE}]")
        # -0.0 as 0.0: a bound of -0.0 would make [-bound, bound] reversed
        object.__setattr__(self, "epsilon", self.epsilon + 0.0)


@dataclass(frozen=True)
class FoolingReport:
    fooling_rate: float
    top1_clean: float
    top1_perturbed: float
    top5_clean: float | None
    top5_perturbed: float | None
    n_samples: int

    def to_dict(self) -> dict:
        """The fields, without the top-5 entries below five classes."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def init_model(seed: int, input_shape: tuple[int, int, int] = (1, 8, 8),
               num_classes: int = 4, kernel: int = 3) -> TinyCNN:
    c = input_shape[0]
    # checked before fan_in divides: FilterBank would reject them only later
    if kernel < 1:
        raise ShapeMismatch(f"kernel must be >= 1, got {kernel}")
    if c < 1:
        raise ShapeMismatch(f"input needs at least 1 channel, got {c}")
    rng = np.random.default_rng(seed)
    fan_in = c * kernel * kernel
    conv1 = FilterBank(rng.normal(0.0, (2.0 / fan_in) ** 0.5,
                                  (CONV_CHANNELS, c, kernel, kernel)),
                       np.zeros(CONV_CHANNELS))
    flat = _flat_features(input_shape, conv1)
    fc_w = rng.normal(0.0, (2.0 / flat) ** 0.5, (num_classes, flat))
    fc_b = np.zeros(num_classes)
    return TinyCNN(conv1=conv1, fc_w=fc_w, fc_b=fc_b, input_shape=input_shape)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one vector of logits, or one per row."""
    # the ufuncs' own reductions, which ndarray.max and .sum call
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Reference loss, which the finite-difference gradient tests differentiate."""
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


@dataclass
class _ForwardCache:
    z: np.ndarray       # (O, 4, N*ph*pw) conv output, pool-major
    pooled: np.ndarray  # (O, N*ph*pw) its 2x2 maxima, before ReLU
    flat: np.ndarray    # (N, features) ReLU output


def _parameters(model: TinyCNN) -> tuple[np.ndarray, ...]:
    """model's four parameter arrays, in Gradients' field order."""
    return model.conv1.weights, model.conv1.bias, model.fc_w, model.fc_b


def _windows(x: np.ndarray, kh: int, kw: int, sv: int = 1) -> np.ndarray:
    """The view of a C-contiguous batch x that _columns copies: conv's
    window view with each output axis split into (pooling window, offset),
    offsets first. sv, the vertical stride, is 2 on a woven batch of 2H
    rows, whose 2*kh kernel rows take the duplicated filter rows."""
    win = _conv_windows(x, sv * kh, kw, sv)
    c, j, k, n, oh, ow = win.shape
    # splitting an axis keeps a view, which craft_uap re-copies
    return win.reshape(c, j, k, n, oh // 2, 2, ow // 2, 2) \
        .transpose(0, 1, 2, 5, 7, 3, 4, 6)


def _columns(model: TinyCNN, xs: np.ndarray,
             noise: np.ndarray | None = None) -> np.ndarray:
    """The first layer's im2col columns of an (N, C, H, W) batch, pool-major:
    cols[c, j, k, dy, dx, n, py, px] = xs[n, c, 2py+dy+j, 2px+dx+k], so
    cols.reshape(C*kh*kw, -1) is the forward GEMM's operand as it is and the
    GEMM's output holds value (dy, dx) of every pooling window in one slab.

    With `noise` (as weave_rows takes it), the woven batch's columns at
    vertical stride 2: j runs over 2*kh duplicated filter rows, and woven
    row 2(2py+dy)+j takes the place of row 2py+dy+j.
    """
    if xs.shape[1:] != model.input_shape:
        raise ShapeMismatch(f"input {xs.shape[1:]} != model {model.input_shape}")
    x = np.ascontiguousarray(xs if noise is None else weave_rows(xs, noise),
                             dtype=np.float64)
    _, _, kh, kw = model.conv1.weights.shape
    return _windows(x, kh, kw, 1 if noise is None else 2).copy()


def _column_index(shape: tuple[int, ...], kh: int, kw: int) -> np.ndarray:
    """Where each entry of the flattened _columns of a batch of `shape` comes
    from: the columns of a batch that holds each element's flat index."""
    return _windows(np.arange(np.prod(shape)).reshape(shape), kh, kw).ravel()


def _pool(z: np.ndarray) -> np.ndarray:
    """The model's 2x2 max pooling of a pool-major z, whose z[:, i] holds
    value i of every window, in row-major order (q00, q01, q10, q11)."""
    # max(max(q00, q01), max(q10, q11)): which zero np.maximum returns when
    # 0.0 meets -0.0 depends on operand order, so this order fixes its sign
    top = np.maximum(z[:, 0], z[:, 1])
    return np.maximum(top, np.maximum(z[:, 2], z[:, 3]), out=top)


def _first_max(z: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """A boolean mask of the pool-major z's shape that marks each window's
    first maximum, given the windows' _pool."""
    mask = z == pooled[:, None]
    # one hit per window is already the first hit; a NaN window has none,
    # so it could balance a tied window's extra hit
    if pooled.size != np.count_nonzero(mask) or np.count_nonzero(pooled != pooled):
        taken = np.zeros(pooled.shape, dtype=bool)
        for i in range(4):  # row-major window order
            mask[:, i] &= ~taken
            taken |= mask[:, i]
    return mask


def _forward(model: TinyCNN,
             cols: np.ndarray) -> tuple[np.ndarray, _ForwardCache]:
    """forward's logits, and the cache _backprop_to_conv reads, from a batch's
    _columns, plain or woven (whose 2*kh kernel rows take the duplicated
    filter rows). ReLU runs after pooling, with which it commutes."""
    w = model.conv1.weights
    if cols.shape[1] != w.shape[2]:  # woven
        w = np.repeat(w, 2, axis=2)
    o, n, s = len(w), cols.shape[5], cols.shape[6] * cols.shape[7]
    z = w.reshape(o, -1) @ cols.reshape(w[0].size, -1)
    z += model.conv1.bias[:, None]
    z = z.reshape(o, 4, -1)
    pooled = _pool(z)
    # ReLU, written straight into the dense layer's (n, o, py, px) order
    flat = np.maximum(pooled.reshape(o, n, s).transpose(1, 0, 2), 0,
                      out=np.empty((n, o, s))).reshape(n, o * s)
    logits = flat @ model.fc_w.T + model.fc_b
    return logits, _ForwardCache(z, pooled, flat)


def forward(model: TinyCNN, xs: np.ndarray,
            noise: np.ndarray | None = None) -> np.ndarray:
    """The (N, num_classes) logits of an (N, C, H, W) batch.

    With `noise` (a (C, H, W) pattern, or a batch of them that broadcasts
    over xs) the first layer runs the noise-interleaved attacked
    convolution: the woven batch's columns by the duplicated filter rows.
    """
    return _forward(model, _columns(model, xs, noise))[0]


@dataclass
class Gradients:
    conv_w: np.ndarray
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    input: np.ndarray | None = None


def _checked_labels(model: TinyCNN, xs: np.ndarray, labels) -> np.ndarray:
    """`labels` as an array: one class index per sample of xs."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    # labels shorter than N, or of shape (N, 1), would broadcast silently
    if labels.shape != xs.shape[:1]:
        raise ShapeMismatch(f"{len(xs)} samples, labels of shape {labels.shape}")
    bad = (labels < 0) | (labels >= model.num_classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} out of range")
    return labels


def _backprop_to_conv(model: TinyCNN, logits: np.ndarray, cache: _ForwardCache,
                      targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Loss gradients at the logits and, as the forward GEMM's (O, 4*N*ph*pw)
    output is laid out, at the first layer's: each window's pooled gradient
    goes to its first maximum, found here, for one-hot `targets`."""
    dlogits = softmax(logits)
    dlogits -= targets  # x - 0.0 is x, so only the labels' entries move
    (n, f), (o, m) = cache.flat.shape, cache.pooled.shape
    # the ReLU gate (pooled > 0 exactly where flat > 0) moves the dense
    # layer's gradient from flat's (n, o, py, px) order to pooled's
    # (o, n, py, px) in one product
    dpooled = (dlogits @ model.fc_w).reshape(n, o, f // o).transpose(1, 0, 2) \
        * (cache.pooled > 0).reshape(o, n, f // o)
    mask = _first_max(cache.z, cache.pooled)
    return dlogits, (mask * dpooled.reshape(o, 1, m)).reshape(o, -1)


def _input_gradient(model: TinyCNN, dz1: np.ndarray,
                    index: np.ndarray) -> np.ndarray:
    """dx, flattened, from a plain batch's pool-major dz1 and _column_index:
    the adjoint of _columns applied to the columns' gradient W.T @ dz1, which
    sums each column entry into the input element it was copied from."""
    w = model.conv1.weights
    return np.bincount(index, (w.reshape(len(w), -1).T @ dz1).ravel())


def _parameter_gradients(model: TinyCNN, cols: np.ndarray,
                         targets: np.ndarray, out: Gradients) -> np.ndarray:
    """Batch-summed parameter gradients, written into out's C-contiguous
    arrays, from a batch's _columns and one-hot targets. Returns the loss
    gradient dz1 at the first layer's output, pool-major."""
    logits, cache = _forward(model, cols)
    dlogits, dz1 = _backprop_to_conv(model, logits, cache, targets)
    # dz1 and the columns share one column order, (dy, dx, n, py, px): dW is
    # one GEMM of dz1 by the columns, whose rows run in the filters'
    # (C, kh, kw) order, and db sums dz1's rows
    np.matmul(dz1, cols.reshape(out.conv_w[0].size, -1).T,
              out=out.conv_w.reshape(len(dz1), -1))
    np.add.reduce(dz1, axis=1, out=out.conv_b)
    np.matmul(dlogits.T, cache.flat, out=out.fc_w)
    np.add.reduce(dlogits, axis=0, out=out.fc_b)
    return dz1


def backward(model: TinyCNN, xs: np.ndarray, labels) -> Gradients:
    """Gradients of the summed cross-entropy loss of an (N, C, H, W) batch.

    Parameter gradients are summed over the batch; `input` holds each
    sample's own input gradient, shape (N, C, H, W).
    """
    targets = np.eye(model.num_classes)[_checked_labels(model, xs, labels)]
    g = Gradients(*(np.empty(a.shape) for a in _parameters(model)))
    dz1 = _parameter_gradients(model, _columns(model, xs), targets, g)
    index = _column_index(xs.shape, *model.conv1.weights.shape[2:])
    g.input = _input_gradient(model, dz1, index).reshape(xs.shape)
    return g


def _block_logits(model: TinyCNN, xs: np.ndarray, noise: np.ndarray | None = None,
                  path: str = "interleaved") -> np.ndarray:
    """forward's logits of an (N, C, H, W) batch from forwards of EVAL_BLOCK
    samples, which bound the memory used; "direct" adds `noise` to each."""
    # an empty batch still takes one forward, which checks its shape
    blocks = [xs[i:i + EVAL_BLOCK]
              for i in range(0, max(len(xs), 1), EVAL_BLOCK)]
    if path == "direct":
        return np.concatenate([forward(model, b + noise) for b in blocks])
    return np.concatenate([forward(model, b, noise) for b in blocks])


def predict(model: TinyCNN, xs: np.ndarray) -> np.ndarray:
    """Predicted labels of an (N, C, H, W) batch, forwarded in blocks."""
    return _block_logits(model, xs).argmax(axis=1)


def train(model: TinyCNN, xs: np.ndarray, ys: np.ndarray,
          cfg: TrainConfig) -> TinyCNN:
    """Minibatch SGD: w <- w - lr * dLoss/dw, deterministic per seed.

    The corpus's _columns are built once; each step gathers its batch's.
    """
    if len(xs) == 0:
        raise EmptyDataset("training set is empty")
    targets = np.eye(model.num_classes)[_checked_labels(model, xs, ys)]
    cols = _columns(model, xs)
    rng = np.random.default_rng(cfg.seed)
    start = _parameters(model)
    theta = np.concatenate([a.ravel() for a in start], dtype=np.float64)
    grad = np.empty_like(theta)
    ends = np.cumsum([a.size for a in start])[:-1]
    (w, b, fc_w, fc_b), parts = ([part.reshape(a.shape) for part, a in
                                  zip(np.split(flat, ends), start)]
                                 for flat in (theta, grad))
    # the model trained in place and its gradients: views of theta and grad
    fitted = TinyCNN(FilterBank(w, b), fc_w, fc_b, model.input_shape)
    g = Gradients(*parts)
    # a diverging step overflows to infinity and NaN quietly; the check
    # after the loop reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(len(xs))
            for i in range(0, len(xs), cfg.batch_size):
                batch = order[i:i + cfg.batch_size]
                _parameter_gradients(fitted, cols.take(batch, axis=5),
                                     targets.take(batch, axis=0), g)
                theta -= cfg.learning_rate / len(batch) * grad
    # one check suffices: a step never turns a NaN or infinity finite again
    if not np.isfinite(theta).all():
        raise Diverged(f"training diverged at learning rate "
                       f"{cfg.learning_rate}: a parameter is not finite")
    return fitted


def fgsm(model: TinyCNN, x: np.ndarray, label: int, budget: PerturbBudget) -> np.ndarray:
    """Perturbation = epsilon * sign(input gradient of the loss) of a (C, H, W)
    x: the input gradient of a one-sample backward."""
    return budget.epsilon * np.sign(
        backward(model, np.asarray(x)[None], [label]).input[0])


def random_noise(shape: tuple[int, int, int], budget: PerturbBudget,
                 mode: str, seed: int) -> np.ndarray:
    """Uniform noise bounded by epsilon (low) or the full image magnitude (high)."""
    rng = np.random.default_rng(seed)
    if mode == "low":
        bound = budget.epsilon
    elif mode == "high":
        bound = MAX_MAGNITUDE
    else:
        raise ValueError(f"mode must be 'low' or 'high', got {mode!r}")
    return rng.uniform(-bound, bound, shape)


def craft_uap(model: TinyCNN, xs: np.ndarray, budget: PerturbBudget,
              max_iters: int = 10) -> np.ndarray:
    """Iteratively build one input-shaped perturbation that flips predictions
    across the (N, C, H, W) sample set xs.

    Each pass forwards every sample plus the perturbation and takes an FGSM
    step on each one still unfooled (pushing it away from its clean
    prediction), projected back onto the L-inf ball of radius epsilon.
    Passes stop after max_iters, or once every sample is fooled.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if len(xs) == 0:
        raise EmptyDataset("sample set is empty")
    eps = budget.epsilon
    v = np.zeros(xs.shape[1:])
    if eps == 0:
        return v
    clean_preds = predict(model, xs)
    targets = np.eye(model.num_classes)[clean_preds, None]
    x = np.empty((1, *v.shape))  # one perturbed sample
    kernel = model.conv1.weights.shape[2:]
    windows, index = _windows(x, *kernel), _column_index(x.shape, *kernel)
    cols, x0, flat_v = np.empty(windows.shape), x[0], v.reshape(-1)
    for _ in range(max_iters):
        fooled = 0
        for sample, pred, target in zip(xs, clean_preds, targets):
            np.add(sample, v, out=x0)
            np.copyto(cols, windows)
            # one forward gives the prediction and, if unfooled, the gradient
            logits, cache = _forward(model, cols)
            if logits.argmax() != pred:
                fooled += 1
                continue
            # an FGSM step up the loss of the clean prediction, which pushes
            # the label away, from this forward's cache (no parameter
            # gradients), then a clip to [-eps, eps] by the ufuncs np.clip wraps
            _, dz1 = _backprop_to_conv(model, logits, cache, target)
            flat_v += eps / 4 * np.sign(_input_gradient(model, dz1, index))
            np.maximum(flat_v, -eps, out=flat_v)
            np.minimum(flat_v, eps, out=flat_v)
        if fooled == len(xs):
            break
    return v


def fooling_report(model: TinyCNN, xs: np.ndarray, ys: np.ndarray,
                   perturbation: np.ndarray,
                   path: str = "direct") -> FoolingReport:
    """Label-flip rate and top-k accuracy under one universal perturbation.

    `path` selects explicit noise addition ("direct") or the interleaved
    first-layer attack ("interleaved"). Samples are forwarded in blocks.
    A perturbation holding a NaN or infinity is a ValueError on both paths.
    """
    if len(xs) == 0:
        raise EmptyDataset("evaluation set is empty")
    ys = _checked_labels(model, xs, ys)
    if path not in ("direct", "interleaved"):
        raise ValueError(f"unknown path {path!r}")
    # checked here: the direct sum would broadcast a smaller pattern
    noise = np.asarray(perturbation)
    if noise.shape != model.input_shape:
        raise ShapeMismatch(f"{model.input_shape} vs {noise.shape}")
    # a NaN logit's argmax is 0, which would read as a label
    if not np.isfinite(noise).all():
        raise ValueError("perturbation holds a NaN or infinity")
    clean = _block_logits(model, xs)
    perturbed = _block_logits(model, xs, noise, path)
    pc, pp = clean.argmax(axis=1), perturbed.argmax(axis=1)
    n, k5 = len(xs), model.num_classes >= 5
    return FoolingReport(
        fooling_rate=int((pc != pp).sum()) / n,
        top1_clean=int((pc == ys).sum()) / n,
        top1_perturbed=int((pp == ys).sum()) / n,
        top5_clean=_in_top5(clean, ys) / n if k5 else None,
        top5_perturbed=_in_top5(perturbed, ys) / n if k5 else None,
        n_samples=n)


def _in_top5(logits: np.ndarray, labels: np.ndarray) -> int:
    """How many rows rank their label among their five largest logits."""
    return int((np.argsort(logits, axis=1)[:, -5:] == labels[:, None])
               .any(axis=1).sum())


# ---------------------------------------------------------------------------
# Synthetic corpus: class-conditional oriented bars, CONTRAST brighter
# than a uniform [0, BACKGROUND) field. Low contrast keeps decision margins
# small enough that a 5% perturbation has room to act, mirroring the
# fragility of large-scale models.

CONTRAST = 0.25
BACKGROUND = 0.45


def make_corpus(n: int, seed: int, shape: tuple[int, int, int] = (1, 8, 8),
                num_classes: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """n seeded samples: read-only (n, *shape) float64 images, int64 labels."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    c, h, w = shape
    if h < 3 or w < 3:  # the bars need an interior row and column
        raise ShapeMismatch(f"corpus shape {shape}: height and width must "
                            "be >= 3")
    rng = np.random.default_rng(seed)
    xs, ys = np.empty((n, *shape)), np.empty(n, dtype=np.int64)
    bar = np.zeros(n, dtype=np.int64)  # the bar's row (label 0) or column (1)
    for i in range(n):
        ys[i] = label = int(rng.integers(num_classes))
        rng.random(out=xs[i])  # the field, scaled to [0, BACKGROUND) below
        if label < 2:
            bar[i] = rng.integers(1, (h, w)[label] - 1)
    # each sample's pattern: a row bar, a column bar, the diagonal or (for
    # labels 3 and up) the anti-diagonal
    y, b = ys[:, None, None], bar[:, None, None]
    row, col = np.arange(h)[:, None], np.arange(w)
    bars = ((y == 0) & (row == b)) | ((y == 1) & (col == b)) | \
        ((y == 2) & (row == col)) | ((y >= 3) & (row + col == w - 1))
    # uniform(0, BACKGROUND) gives 0.0 + BACKGROUND * u for the same doubles
    # u >= 0, which is BACKGROUND * u exactly
    xs *= BACKGROUND
    np.add(xs, CONTRAST, out=xs, where=bars[:, None])
    np.clip(xs, 0.0, 1.0, out=xs)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


# ---------------------------------------------------------------------------
# Checkpoint format: magic "TCNN", u32le version, then parameter tensors in
# T3B framing. Block 0 is an integer meta tensor (in_c, in_h, in_w,
# num_classes); conv weights are framed as (out_channels, in_channels *
# kernel_h, kernel_w). load_model parses, then builds: it checks the framing
# and that every parameter is finite; FilterBank checks the conv bias and
# _flat_features the kernel's fit, all inside _naming, so every error is one
# FormatError naming the file.

def save_model(model: TinyCNN, path) -> None:
    c, h, w = model.input_shape
    cw = model.conv1.weights
    o, i, kh, kw = cw.shape
    blocks = (np.array([c, h, w, model.num_classes]).reshape(1, 1, 4),
              cw.reshape(o, i * kh, kw).astype(np.float64),
              model.conv1.bias.astype(np.float64).reshape(o, 1, 1),
              model.fc_w[None, :, :].astype(np.float64),
              model.fc_b.astype(np.float64).reshape(1, -1, 1))
    with open(path, "wb") as f:
        f.write(TCNN_MAGIC + struct.pack("<I", TCNN_VERSION))
        for block in blocks:
            write_t3b_stream(block, f)


def load_model(path) -> TinyCNN:
    with _naming(path), open(path, "rb") as f:
        head = f.read(8)
        if head != TCNN_MAGIC + struct.pack("<I", TCNN_VERSION):
            raise FormatError(f"bad checkpoint magic or version {head!r}")
        meta = np.asarray(read_t3b_stream(f)).ravel()
        if meta.dtype.kind not in "iu" or meta.shape != (4,) or (meta < 1).any():
            # on one line, however long the block: an error is one line
            values = np.array2string(meta, threshold=8, max_line_width=sys.maxsize)
            raise FormatError(f"meta block must be 4 positive integers, "
                              f"got {meta.dtype} {values}")
        c, h, w, num_classes = (int(v) for v in meta)
        conv_w, conv_b, fc_w, fc_b = (np.asarray(read_t3b_stream(f))
                                      for _ in range(4))
        if f.read(1):
            raise FormatError("trailing bytes after checkpoint")
        for i, block in enumerate((conv_w, conv_b, fc_w, fc_b), 1):
            if not np.isfinite(block).all():
                raise FormatError(f"block {i} holds a NaN or infinity")
        o, ikh, kw = conv_w.shape
        if ikh % c:
            raise FormatError(f"conv rows {ikh} do not divide by in_c {c}")
        conv1 = FilterBank(conv_w.reshape(o, c, ikh // c, kw), conv_b.ravel())
        flat = _flat_features((c, h, w), conv1)
        if fc_w.shape != (1, num_classes, flat) or fc_b.size != num_classes:
            raise FormatError(f"fc blocks {fc_w.shape} and {fc_b.shape} do not fit "
                              f"num_classes {num_classes}, flat features {flat}")
        return TinyCNN(conv1, fc_w[0], fc_b.ravel(), (c, h, w))
