"""Trainable tiny CNN with from-scratch backprop, FGSM, universal
perturbation crafting, random-noise baselines, fooling metrics, TCNN files.

Architecture: conv (stride 1, valid, CONV_CHANNELS filters) -> ReLU ->
2x2 maxpool -> flatten -> dense -> softmax, with cross-entropy loss, all
on conv's reference layers. Pixels live in [0, 1] and a perturbation
budget is at most 5% of the maximum pixel magnitude.

A corpus is one read-only (N, C, H, W) float64 array and an int64 label
vector, as make_corpus returns them. The model runs on batches only:
forward, backward, predict, train, craft_uap and fooling_report take those
arrays. One image or perturbation is a (C, H, W) array: fgsm (the only
one-image model call) takes and returns one, as random_noise and craft_uap
return and fooling_report applies one.

The first layer works window-major. _columns copies a batch's im2col
columns so that the four conv outputs of each 2x2 pooling window come from
adjacent columns: cols[j, c, k, n, py, px, dy, dx] = x[n, c, 2py+dy+j,
2px+dx+k]. Reshaped to (kh*C*kw, N*oh*ow), that is the operand conv._conv
would give the forward GEMM, with the columns permuted, so the GEMM's output
(O, N, ph, pw, 4) is window-major and conv._pool_windows pools it along the
last axis. Backprop routes each window's gradient to its first maximum with
one broadcast product, so the conv output's gradient dz1 keeps the columns'
order: dW is one GEMM of dz1 by the columns, db a sum, and only dx reorders
dz1 for _conv. train builds its corpus's columns once (about 1 MB at the CLI
defaults) and gathers each batch's with one fancy index (np.take along the
sample axis); forward and backward build a batch's per call.

The fooling-rate evaluation can route the first layer either through
ordinary convolution of the explicitly noise-added input ("direct") or
through the noise-interleaved attacked convolution ("interleaved"), whose
(N, O, oh, ow) output is reordered window-major once, before pooling; the
two paths must agree.
"""
from __future__ import annotations

import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .conv import ConvGeometry, FilterBank, _conv, _pool_windows, dense, relu
from .errors import EmptyDataset, FormatError, ShapeMismatch
from .tensor import _naming, read_t3b_stream, write_t3b_stream
from .weave import attacked_conv_nchw

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
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Reference loss, which the finite-difference gradient tests differentiate."""
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


@dataclass
class ForwardCache:
    pool_mask: np.ndarray  # (O, N, ph, pw, 4): each window's first maximum
    pooled: np.ndarray     # (O, N, ph, pw) pooled conv output, before ReLU
    flat: np.ndarray       # (N, features) ReLU output


def _check_input(model: TinyCNN, xs: np.ndarray) -> None:
    if xs.shape[1:] != model.input_shape:
        raise ShapeMismatch(f"input {xs.shape[1:]} != model {model.input_shape}")


def _columns(model: TinyCNN, xs: np.ndarray) -> np.ndarray:
    """The first layer's im2col columns of an (N, C, H, W) batch, window-major:
    cols[j, c, k, n, py, px, dy, dx] = xs[n, c, 2py+dy+j, 2px+dx+k], so the
    four conv outputs of pooling window (py, px) come from adjacent columns
    and cols.reshape(kh*C*kw, -1) is the forward GEMM's operand as it is.
    """
    _check_input(model, xs)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    n, c, h, w = x.shape
    _, _, kh, kw = model.conv1.weights.shape
    ph, pw = (h - kh + 1) // 2, (w - kw + 1) // 2
    sn, sc, sy, sx = x.strides
    # a window row's two values (dx = 0, 1) are adjacent in x, so they move
    # as one complex128: numpy copies one 16-byte item faster than two
    # 8-byte ones, and copying moves the bits untouched
    return np.ndarray((kh, c, kw, n, ph, pw, 2), dtype=np.complex128, buffer=x,
                      strides=(sy, sc, sx, sn, 2 * sy, 2 * sx, sy)) \
        .copy().view(np.float64).reshape(kh, c, kw, n, ph, pw, 2, 2)


def _forward(model: TinyCNN,
             cols: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """forward from a batch's _columns.

    The GEMM gets the operands _conv would give it, (O, kh*C*kw) weights by
    (kh*C*kw, N*oh*ow) columns, with the columns of each pooling window
    adjacent, so its output is window-major: (O, N, ph, pw, 4).
    """
    w = model.conv1.weights
    o, c, kh, kw = w.shape
    n, ph, pw = cols.shape[3:6]
    z = w.astype(np.float64, copy=False).transpose(0, 2, 1, 3).reshape(o, -1) \
        @ cols.reshape(kh * c * kw, -1)
    z = z.reshape(o, n, ph, pw, 4)
    z += model.conv1.bias[:, None, None, None, None]
    return _tail(model, z)


def _tail(model: TinyCNN, z: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Pooling, ReLU and dense on a window-major first-layer output z. ReLU
    runs after pooling, with which it commutes."""
    pooled, mask = _pool_windows(z)
    o, n, ph, pw = pooled.shape
    flat = relu(pooled).transpose(1, 0, 2, 3).reshape(n, o * ph * pw)
    logits = dense(flat, model.fc_w, model.fc_b)
    return logits, ForwardCache(pool_mask=mask, pooled=pooled, flat=flat)


def forward(model: TinyCNN, xs: np.ndarray,
            noise: np.ndarray | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Logits (N, num_classes) and backward cache of an (N, C, H, W) batch.

    With `noise` (a (C, H, W) pattern, or a batch of them that broadcasts
    over xs) the first layer runs the noise-interleaved attacked
    convolution, whose (N, O, oh, ow) output is reordered window-major
    before pooling.
    """
    if noise is None:
        return _forward(model, _columns(model, xs))
    _check_input(model, xs)
    z = np.asarray(attacked_conv_nchw(xs, noise, model.conv1), dtype=np.float64)
    n, o, oh, ow = z.shape
    # (O, N, ph, dy, pw) -> (O, N, ph, pw, dy), in complex128 pairs as in _columns
    z = np.ascontiguousarray(z.transpose(1, 0, 2, 3)).view(np.complex128) \
        .reshape(o, n, oh // 2, 2, ow // 2).transpose(0, 1, 2, 4, 3)
    z = np.ascontiguousarray(z).view(np.float64).reshape(o, n, oh // 2, ow // 2, 4)
    return _tail(model, z)


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


def _backprop_to_conv(model: TinyCNN, logits: np.ndarray, cache: ForwardCache,
                      labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Loss gradients at the logits and, window-major, at the first layer's
    output: each window's pooled gradient goes to its first maximum."""
    dlogits = softmax(logits)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    o, n, ph, pw = cache.pooled.shape
    dpooled = (dlogits @ model.fc_w).reshape(n, o, ph, pw) \
        .transpose(1, 0, 2, 3) * (cache.pooled > 0)
    return dlogits, cache.pool_mask * dpooled[..., None]


def _input_gradient(model: TinyCNN, dz1: np.ndarray) -> np.ndarray:
    """dx: the full (fully padded) convolution of a window-major dz1, as
    (N, O, oh, ow), by the flipped filters."""
    w = model.conv1.weights
    _, _, kh, kw = w.shape
    o, n, ph, pw, _ = dz1.shape
    # (O, N, ph, pw, dy) -> (N, O, ph, dy, pw), in complex128 pairs as in _columns
    dz1 = np.ascontiguousarray(dz1.view(np.complex128).reshape(o, n, ph, pw, 2)
                               .transpose(1, 0, 2, 4, 3)) \
        .reshape(n, o, 2 * ph, pw).view(np.float64)
    return _conv(dz1, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), None,
                 ConvGeometry(pad_h=kh - 1, pad_w=kw - 1))


def _parameter_gradients(model: TinyCNN, cols: np.ndarray,
                         labels: np.ndarray) -> tuple[Gradients, np.ndarray]:
    """Batch-summed parameter gradients (with `input` unset) and the loss
    gradient dz1 at the first layer's output, window-major, from a batch's
    _columns and labels already checked."""
    logits, cache = _forward(model, cols)
    dlogits, dz1 = _backprop_to_conv(model, logits, cache, labels)
    o = dz1.shape[0]
    kh, c, kw = cols.shape[:3]
    # dz1 and the columns share one column order, (n, py, px, dy, dx): dW is
    # one GEMM of the flattened dz1 by the columns, whose rows run in
    # (kh, C, kw) order, and db sums the flattened dz1's rows
    a = dz1.reshape(o, -1)
    dconv_w = (a @ cols.reshape(kh * c * kw, -1).T).reshape(o, kh, c, kw) \
        .transpose(0, 2, 1, 3)
    return Gradients(conv_w=dconv_w, conv_b=a.sum(axis=1),
                     fc_w=dlogits.T @ cache.flat,
                     fc_b=dlogits.sum(axis=0)), dz1


def backward(model: TinyCNN, xs: np.ndarray, labels) -> Gradients:
    """Gradients of the summed cross-entropy loss of an (N, C, H, W) batch.

    Parameter gradients are summed over the batch; `input` holds each
    sample's own input gradient, shape (N, C, H, W).
    """
    labels = _checked_labels(model, xs, labels)
    g, dz1 = _parameter_gradients(model, _columns(model, xs), labels)
    g.input = _input_gradient(model, dz1)
    return g


def _block_logits(model: TinyCNN, xs: np.ndarray, noise: np.ndarray | None = None,
                  path: str = "interleaved") -> np.ndarray:
    """forward's logits of an (N, C, H, W) batch from forwards of EVAL_BLOCK
    samples, which bound the memory used; "direct" adds `noise` to each."""
    # an empty batch still takes one forward, which checks its shape
    blocks = [xs[i:i + EVAL_BLOCK]
              for i in range(0, max(len(xs), 1), EVAL_BLOCK)]
    if path == "direct":
        return np.concatenate([forward(model, b + noise)[0] for b in blocks])
    return np.concatenate([forward(model, b, noise)[0] for b in blocks])


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
    ys = _checked_labels(model, xs, ys)
    rng = np.random.default_rng(cfg.seed)
    # one working copy whose arrays every step updates in place
    work = TinyCNN(FilterBank(model.conv1.weights.astype(np.float64),
                              model.conv1.bias.astype(np.float64)),
                   model.fc_w.copy(), model.fc_b.copy(), model.input_shape)
    params = (work.conv1.weights, work.conv1.bias, work.fc_w, work.fc_b)
    cols = _columns(work, xs)
    n = len(xs)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            g, _ = _parameter_gradients(work, np.take(cols, batch, axis=3),
                                        ys[batch])
            lr = cfg.learning_rate / len(batch)
            for p, dp in zip(params, (g.conv_w, g.conv_b, g.fc_w, g.fc_b)):
                p -= lr * dp
    return work


def _fgsm_step(model: TinyCNN, logits: np.ndarray, cache: ForwardCache,
               label: int, epsilon: float) -> np.ndarray:
    """epsilon * sign(input gradient of the loss of `label`), from the logits
    and cache of a one-sample forward; computes no parameter gradient."""
    _, dz1 = _backprop_to_conv(model, logits, cache, np.array([label]))
    return epsilon * np.sign(_input_gradient(model, dz1)[0])


def fgsm(model: TinyCNN, x: np.ndarray, label: int, budget: PerturbBudget) -> np.ndarray:
    """Perturbation = epsilon * sign(input gradient of the loss) of a (C, H, W) x."""
    xs = np.asarray(x)[None]
    _checked_labels(model, xs, [label])
    logits, cache = forward(model, xs)
    return _fgsm_step(model, logits, cache, label, budget.epsilon)


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

    Each pass takes an FGSM step on every still-unfooled sample (pushing the
    perturbed input away from its clean prediction) and projects the
    accumulated perturbation back onto the L-inf ball of radius epsilon.
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
    for _ in range(max_iters):
        fooled = 0
        for x, pred in zip(xs, clean_preds):
            # one forward gives the prediction and, if unfooled, the gradient
            logits, cache = forward(model, (x + v)[None])
            if np.argmax(logits[0]) != pred:
                fooled += 1
                continue
            eta = _fgsm_step(model, logits, cache, pred, eps / 4)
            # ascend the loss of the clean prediction to push the label away
            v = np.clip(v + eta, -eps, eps)
        if fooled == len(xs):
            break
    return v


def fooling_report(model: TinyCNN, xs: np.ndarray, ys: np.ndarray,
                   perturbation: np.ndarray,
                   path: str = "direct") -> FoolingReport:
    """Label-flip rate and top-k accuracy under one universal perturbation.

    `path` selects explicit noise addition ("direct") or the interleaved
    first-layer attack ("interleaved"). Samples are forwarded in blocks.
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
    for i in range(n):
        ys[i] = label = int(rng.integers(num_classes))
        img = rng.uniform(0.0, BACKGROUND, shape)
        if label == 0:
            r = int(rng.integers(1, h - 1))
            img[:, r, :] += CONTRAST
        elif label == 1:
            col = int(rng.integers(1, w - 1))
            img[:, :, col] += CONTRAST
        elif label == 2:
            img[:, np.arange(min(h, w)), np.arange(min(h, w))] += CONTRAST
        else:
            img[:, np.arange(min(h, w)), w - 1 - np.arange(min(h, w))] += CONTRAST
        xs[i] = np.clip(img, 0.0, 1.0)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


# ---------------------------------------------------------------------------
# Checkpoint format: magic "TCNN", u32le version, then parameter tensors in
# T3B framing. Block 0 is an integer meta tensor (in_c, in_h, in_w,
# num_classes); conv weights are framed as (out_channels, in_channels *
# kernel_h, kernel_w). load_model parses, then builds: it checks only the
# framing; FilterBank checks the conv bias and _flat_features the kernel's
# fit, all inside _naming, so every error is one FormatError naming the file.

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
        o, ikh, kw = conv_w.shape
        if ikh % c:
            raise FormatError(f"conv rows {ikh} do not divide by in_c {c}")
        conv1 = FilterBank(conv_w.reshape(o, c, ikh // c, kw), conv_b.ravel())
        flat = _flat_features((c, h, w), conv1)
        if fc_w.shape != (1, num_classes, flat) or fc_b.size != num_classes:
            raise FormatError(f"fc blocks {fc_w.shape} and {fc_b.shape} do not fit "
                              f"num_classes {num_classes}, flat features {flat}")
        return TinyCNN(conv1, fc_w[0], fc_b.ravel(), (c, h, w))
