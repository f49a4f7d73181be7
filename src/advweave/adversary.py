"""Trainable tiny CNN with from-scratch backprop, FGSM, universal
perturbation crafting, random-noise baselines, and fooling metrics.

Architecture: conv (stride 1, valid) -> ReLU -> 2x2 maxpool -> flatten
-> dense -> softmax, with cross-entropy loss. Pixels live in [0, 1] and
the default perturbation budget is 5% of the maximum pixel magnitude.

The fooling-rate evaluation can route the first layer either through
ordinary convolution of the explicitly noise-added input ("direct") or
through the noise-interleaved attacked convolution ("interleaved"); the
two paths must agree.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .conv import (ConvGeometry, FilterBank, conv2d_nchw, dense,
                   maxpool2_argmax, relu)
from .errors import EmptyDataset, ShapeMismatch
from .tensor import Tensor3, read_t3b_stream, write_t3b_stream
from .weave import attacked_conv_nchw

TCNN_MAGIC = b"TCNN"
TCNN_VERSION = 1

# Samples per batched forward in fooling_report: large enough to amortise
# per-call overhead, small enough that a 2000-sample eval adds no memory.
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

    def flat_features(self) -> int:
        c, h, w = self.input_shape
        oh = h - self.conv1.kernel_h + 1
        ow = w - self.conv1.kernel_w + 1
        return self.conv1.out_channels * (oh // 2) * (ow // 2)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class PerturbBudget:
    """L-inf perturbation budget; epsilon is capped at a fraction of the
    maximum image magnitude (paper budget: 5%)."""

    epsilon: float
    relative_cap: float = 0.05
    max_magnitude: float = 1.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.epsilon > self.relative_cap * self.max_magnitude + 1e-12:
            raise ValueError(
                f"epsilon {self.epsilon} exceeds cap "
                f"{self.relative_cap} * {self.max_magnitude}")


@dataclass(frozen=True)
class FoolingReport:
    fooling_rate: float
    top1_clean: float
    top1_perturbed: float
    top5_clean: float | None
    top5_perturbed: float | None
    n_samples: int

    def to_dict(self) -> dict:
        d = {
            "fooling_rate": self.fooling_rate,
            "top1_clean": self.top1_clean,
            "top1_perturbed": self.top1_perturbed,
            "n_samples": self.n_samples,
        }
        if self.top5_clean is not None:
            d["top5_clean"] = self.top5_clean
            d["top5_perturbed"] = self.top5_perturbed
        return d


def init_model(seed: int, input_shape: tuple[int, int, int] = (1, 8, 8),
               num_classes: int = 4, conv_channels: int = 6,
               kernel: int = 3) -> TinyCNN:
    c, h, w = input_shape
    oh, ow = h - kernel + 1, w - kernel + 1
    if oh < 2 or ow < 2 or oh % 2 or ow % 2:
        raise ShapeMismatch("conv output dims must be even and >= 2 for pooling")
    rng = np.random.default_rng(seed)
    fan_in = c * kernel * kernel
    conv_w = rng.normal(0.0, (2.0 / fan_in) ** 0.5, (conv_channels, c, kernel, kernel))
    conv_b = np.zeros(conv_channels)
    flat = conv_channels * (oh // 2) * (ow // 2)
    fc_w = rng.normal(0.0, (2.0 / flat) ** 0.5, (num_classes, flat))
    fc_b = np.zeros(num_classes)
    return TinyCNN(conv1=FilterBank(conv_w, conv_b), fc_w=fc_w, fc_b=fc_b,
                   input_shape=input_shape)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one vector of logits, or one per row."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, label: int) -> float:
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


@dataclass
class ForwardCache:
    x: np.ndarray          # (N, C, H, W) float64 input
    pool_mask: np.ndarray  # where each 2x2 window's conv maximum sits
    pooled: np.ndarray     # pooled conv output, before ReLU
    flat: np.ndarray       # (N, features) ReLU output


def _stack(model: TinyCNN, samples: list[Tensor3]) -> np.ndarray:
    """One (N, C, H, W) array of samples that each have the model's input shape."""
    for x in samples:
        if x.shape != model.input_shape:
            raise ShapeMismatch(f"input {x.shape} != model {model.input_shape}")
    return np.stack([x.data for x in samples])


def forward_batch(model: TinyCNN, xs: np.ndarray,
                  noise: np.ndarray | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Logits (N, num_classes) and backward cache of an (N, C, H, W) batch.

    With `noise` (a (C, H, W) pattern, or a batch of them that broadcasts
    over xs) the first layer runs the noise-interleaved attacked
    convolution; the cache then holds the clean inputs. ReLU runs after pooling, with which it commutes.
    """
    if xs.shape[1:] != model.input_shape:
        raise ShapeMismatch(f"input {xs.shape[1:]} != model {model.input_shape}")
    z1 = conv2d_nchw(xs, model.conv1) if noise is None \
        else attacked_conv_nchw(xs, noise, model.conv1)
    z1 = np.asarray(z1, dtype=np.float64)
    pooled, mask = maxpool2_argmax(z1)
    n, c, ph, pw = pooled.shape
    # conv.relu on the batch viewed as one (N * C)-channel tensor
    flat = relu(Tensor3(pooled.reshape(n * c, ph, pw))).data.reshape(n, -1)
    logits = dense(flat, model.fc_w, model.fc_b)
    return logits, ForwardCache(x=np.asarray(xs, dtype=np.float64),
                                pool_mask=mask, pooled=pooled, flat=flat)


def forward(model: TinyCNN, x: Tensor3,
            noise: Tensor3 | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Logits and backward cache of one sample: forward_batch with N=1."""
    logits, cache = forward_batch(model, x.data[None],
                                  None if noise is None else noise.data)
    return logits[0], cache


@dataclass
class Gradients:
    conv_w: np.ndarray
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    input: np.ndarray


def backward_batch(model: TinyCNN, xs: np.ndarray, labels) -> Gradients:
    """Gradients of the summed cross-entropy loss of an (N, C, H, W) batch.

    Parameter gradients are summed over the batch; `input` holds each
    sample's own input gradient, shape (N, C, H, W).
    """
    labels = np.asarray(labels)
    bad = (labels < 0) | (labels >= model.num_classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} out of range")
    logits, cache = forward_batch(model, xs)
    dlogits = softmax(logits)
    dlogits[np.arange(len(labels)), labels] -= 1.0

    dfc_w = dlogits.T @ cache.flat
    dfc_b = dlogits.sum(axis=0)
    dflat = dlogits @ model.fc_w
    dpooled = dflat.reshape(cache.pooled.shape) * (cache.pooled > 0)
    dz1 = cache.pool_mask * dpooled.repeat(2, axis=-2).repeat(2, axis=-1)

    w = model.conv1.weights
    c_out, c_in, kh, kw = w.shape
    dconv_b = dz1.sum(axis=(0, 2, 3))
    # dW[o, c, j, k] = sum over n, y, x of dz1[n, o, y, x] * x[n, c, y+j, x+k]:
    # the inputs convolved by dz1, with batch and channel axes swapped
    dconv_w = conv2d_nchw(cache.x.transpose(1, 0, 2, 3),
                          FilterBank(dz1.transpose(1, 0, 2, 3),
                                     np.zeros(c_out))).transpose(1, 0, 2, 3)
    # dx: the full (fully padded) convolution of dz1 by the flipped filters
    flipped = FilterBank(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                         np.zeros(c_in))
    dx = conv2d_nchw(dz1, flipped, ConvGeometry(pad_h=kh - 1, pad_w=kw - 1))
    return Gradients(conv_w=dconv_w, conv_b=dconv_b, fc_w=dfc_w, fc_b=dfc_b,
                     input=dx)


def backward(model: TinyCNN, x: Tensor3, label: int) -> Gradients:
    """Gradients of one sample's loss w.r.t. every parameter and its input."""
    g = backward_batch(model, x.data[None], [label])
    g.input = g.input[0]
    return g


def predict_batch(model: TinyCNN, samples: list[Tensor3]) -> np.ndarray:
    """Predicted labels of many samples, from one batched forward."""
    return forward_batch(model, _stack(model, samples))[0].argmax(axis=1)


def predict(model: TinyCNN, x: Tensor3) -> int:
    return int(np.argmax(forward(model, x)[0]))


def train(model: TinyCNN, dataset: list[tuple[Tensor3, int]],
          cfg: TrainConfig) -> TinyCNN:
    """Minibatch SGD: w <- w - lr * dLoss/dw, deterministic per seed."""
    if not dataset:
        raise EmptyDataset("training set is empty")
    xs = _stack(model, [x for x, _ in dataset])
    ys = np.array([y for _, y in dataset])
    rng = np.random.default_rng(cfg.seed)
    conv_w = model.conv1.weights.astype(np.float64).copy()
    conv_b = model.conv1.bias.astype(np.float64).copy()
    fc_w = model.fc_w.copy()
    fc_b = model.fc_b.copy()
    n = len(dataset)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            cur = TinyCNN(FilterBank(conv_w, conv_b), fc_w, fc_b, model.input_shape)
            g = backward_batch(cur, xs[batch], ys[batch])
            lr = cfg.learning_rate / len(batch)
            conv_w -= lr * g.conv_w
            conv_b -= lr * g.conv_b
            fc_w -= lr * g.fc_w
            fc_b -= lr * g.fc_b
    return TinyCNN(FilterBank(conv_w, conv_b), fc_w, fc_b, model.input_shape)


def fgsm(model: TinyCNN, x: Tensor3, label: int, budget: PerturbBudget) -> Tensor3:
    """Perturbation = epsilon * sign(input gradient of the loss)."""
    g = backward(model, x, label)
    return Tensor3(budget.epsilon * np.sign(g.input))


def clip_adversarial(x: Tensor3, eta: Tensor3, lo: float = 0.0,
                     hi: float = 1.0) -> Tensor3:
    """Materialize x + eta clamped to the valid pixel range."""
    return Tensor3(np.clip(x.data + eta.data, lo, hi))


def random_noise(shape: tuple[int, int, int], budget: PerturbBudget,
                 mode: str, seed: int) -> Tensor3:
    """Uniform noise bounded by epsilon (low) or the full image magnitude (high)."""
    rng = np.random.default_rng(seed)
    if mode == "low":
        bound = budget.epsilon
    elif mode == "high":
        bound = budget.max_magnitude
    else:
        raise ValueError(f"mode must be 'low' or 'high', got {mode!r}")
    return Tensor3(rng.uniform(-bound, bound, shape))


def craft_uap(model: TinyCNN, sample_set: list[Tensor3], budget: PerturbBudget,
              max_iters: int = 10, target_rate: float = 1.0) -> Tensor3:
    """Iteratively build one input-shaped perturbation that flips predictions
    across the sample set.

    Each pass takes an FGSM step on every still-unfooled sample (pushing the
    perturbed input away from its clean prediction) and projects the
    accumulated perturbation back onto the L-inf ball of radius epsilon.
    """
    if not sample_set:
        raise EmptyDataset("sample set is empty")
    eps = budget.epsilon
    shape = sample_set[0].shape
    v = np.zeros(shape)
    if eps == 0:
        return Tensor3(v)
    clean_preds = predict_batch(model, sample_set)
    step = PerturbBudget(epsilon=eps / 4, relative_cap=budget.relative_cap,
                         max_magnitude=budget.max_magnitude)
    for _ in range(max_iters):
        fooled = 0
        for x, pred in zip(sample_set, clean_preds):
            xv = Tensor3(x.data + v)
            if predict(model, xv) != pred:
                fooled += 1
                continue
            eta = fgsm(model, xv, pred, step)
            # ascend the loss of the clean prediction to push the label away
            v = np.clip(v + eta.data, -eps, eps)
        if fooled / len(sample_set) >= target_rate:
            break
    return Tensor3(v)


def fooling_report(model: TinyCNN, dataset: list[tuple[Tensor3, int]],
                   perturbation, path: str = "direct") -> FoolingReport:
    """Label-flip rate and top-k accuracy under a perturbation.

    `perturbation` is a Tensor3 applied to every sample, or a callable
    sample -> Tensor3. `path` selects explicit noise addition ("direct")
    or the interleaved first-layer attack ("interleaved"). Samples are
    evaluated in batches of EVAL_BLOCK, which bounds the memory used.
    """
    if not dataset:
        raise EmptyDataset("evaluation set is empty")
    if path not in ("direct", "interleaved"):
        raise ValueError(f"unknown path {path!r}")
    k5 = model.num_classes >= 5
    flips = top1c = top1p = top5c = top5p = 0
    for start in range(0, len(dataset), EVAL_BLOCK):
        block = dataset[start:start + EVAL_BLOCK]
        xs = _stack(model, [x for x, _ in block])
        ys = np.array([y for _, y in block])
        vs = [perturbation(x) for x, _ in block] if callable(perturbation) \
            else [perturbation]
        for v in vs:  # checked here: the direct sum would broadcast
            if v.shape != model.input_shape:
                raise ShapeMismatch(f"{model.input_shape} vs {v.shape}")
        noise = np.stack([v.data for v in vs])  # broadcasts over the block
        clean_logits, _ = forward_batch(model, xs)
        if path == "direct":
            pert_logits, _ = forward_batch(model, xs + noise)
        else:
            pert_logits, _ = forward_batch(model, xs, noise)
        pc, pp = clean_logits.argmax(axis=1), pert_logits.argmax(axis=1)
        flips += int((pc != pp).sum())
        top1c += int((pc == ys).sum())
        top1p += int((pp == ys).sum())
        if k5:
            top5c += _in_top5(clean_logits, ys)
            top5p += _in_top5(pert_logits, ys)
    n = len(dataset)
    return FoolingReport(
        fooling_rate=flips / n,
        top1_clean=top1c / n,
        top1_perturbed=top1p / n,
        top5_clean=top5c / n if k5 else None,
        top5_perturbed=top5p / n if k5 else None,
        n_samples=n,
    )


def _in_top5(logits: np.ndarray, labels: np.ndarray) -> int:
    """How many rows rank their label among their five largest logits."""
    return int((np.argsort(logits, axis=1)[:, -5:] == labels[:, None])
               .any(axis=1).sum())


# ---------------------------------------------------------------------------
# Synthetic corpus: class-conditional oriented bars plus background noise.
# Low contrast keeps decision margins small enough that a 5% perturbation
# has room to act, mirroring the fragility of large-scale models.

def make_corpus(n: int, seed: int, shape: tuple[int, int, int] = (1, 8, 8),
                num_classes: int = 4, contrast: float = 0.25,
                background: float = 0.45) -> list[tuple[Tensor3, int]]:
    c, h, w = shape
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        label = int(rng.integers(num_classes))
        img = rng.uniform(0.0, background, shape)
        if label == 0:
            r = int(rng.integers(1, h - 1))
            img[:, r, :] += contrast
        elif label == 1:
            col = int(rng.integers(1, w - 1))
            img[:, :, col] += contrast
        elif label == 2:
            img[:, np.arange(min(h, w)), np.arange(min(h, w))] += contrast
        else:
            img[:, np.arange(min(h, w)), w - 1 - np.arange(min(h, w))] += contrast
        samples.append((Tensor3(np.clip(img, 0.0, 1.0)), label))
    return samples


# ---------------------------------------------------------------------------
# Checkpoint format: magic "TCNN", u32le version, then parameter tensors in
# T3B framing. Block 0 is an integer meta tensor (in_c, in_h, in_w,
# num_classes); conv weights are framed as (out_channels, in_channels *
# kernel_h, kernel_w).

def save_model(model: TinyCNN, path) -> None:
    c, h, w = model.input_shape
    meta = Tensor3(np.array([c, h, w, model.num_classes],
                            dtype=np.int64).reshape(1, 1, 4))
    cw = model.conv1.weights
    o, i, kh, kw = cw.shape
    with open(path, "wb") as f:
        f.write(TCNN_MAGIC)
        f.write(struct.pack("<I", TCNN_VERSION))
        write_t3b_stream(meta, f)
        write_t3b_stream(Tensor3(cw.reshape(o, i * kh, kw).astype(np.float64)), f)
        write_t3b_stream(Tensor3(model.conv1.bias.astype(np.float64)
                                 .reshape(o, 1, 1)), f)
        write_t3b_stream(Tensor3(model.fc_w[None, :, :].astype(np.float64)), f)
        write_t3b_stream(Tensor3(model.fc_b.astype(np.float64)
                                 .reshape(1, -1, 1)), f)


def load_model(path) -> TinyCNN:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != TCNN_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        version = f.read(4)
        if version != struct.pack("<I", TCNN_VERSION):
            raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
        meta = read_t3b_stream(f).data.ravel()
        c, h, w, num_classes = (int(v) for v in meta)
        conv_w = read_t3b_stream(f).data
        conv_b = read_t3b_stream(f).data.ravel()
        fc_w = read_t3b_stream(f).data
        fc_b = read_t3b_stream(f).data.ravel()
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after checkpoint")
    o, ikh, kw = conv_w.shape
    if c < 1 or ikh % c:
        raise ValueError(f"{path}: conv rows {ikh} do not divide by in_c {c}")
    conv_w = conv_w.reshape(o, c, ikh // c, kw)
    model = TinyCNN(conv1=FilterBank(conv_w, conv_b), fc_w=fc_w[0], fc_b=fc_b,
                    input_shape=(c, h, w))
    if fc_w.shape != (1, num_classes, model.flat_features()):
        raise ValueError(f"{path}: fc_w block {fc_w.shape} != (1, num_classes, "
                         f"flat features) = (1, {num_classes}, "
                         f"{model.flat_features()})")
    return model
