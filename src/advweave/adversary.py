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

from .conv import FilterBank, conv2d, dense
from .errors import EmptyDataset, ShapeMismatch
from .tensor import Tensor3, read_t3b_stream, write_t3b_stream
from .weave import attacked_conv

TCNN_MAGIC = b"TCNN"
TCNN_VERSION = 1

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
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def cross_entropy(logits: np.ndarray, label: int) -> float:
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def _pool_forward(a: np.ndarray):
    c, h, w = a.shape
    win = a.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
    win = win.reshape(c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    pooled = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return pooled, idx


def _pool_backward(dpooled: np.ndarray, idx: np.ndarray, in_shape) -> np.ndarray:
    c, h, w = in_shape
    dwin = np.zeros((c, h // 2, w // 2, 4))
    np.put_along_axis(dwin, idx[..., None], dpooled[..., None], axis=-1)
    dwin = dwin.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4)
    return dwin.reshape(c, h, w)


@dataclass
class ForwardCache:
    x: np.ndarray
    z1: np.ndarray        # conv pre-activation
    a1: np.ndarray        # relu output
    pool_idx: np.ndarray
    flat: np.ndarray
    logits: np.ndarray


def forward(model: TinyCNN, x: Tensor3,
            noise: Tensor3 | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Logits and backward cache. With `noise`, the first layer runs the
    noise-interleaved attacked convolution; the cache then holds the clean x."""
    if x.shape != model.input_shape:
        raise ShapeMismatch(f"input {x.shape} != model {model.input_shape}")
    z1 = conv2d(x, model.conv1) if noise is None \
        else attacked_conv(x, noise, model.conv1)
    z1 = z1.data.astype(np.float64)
    a1 = np.maximum(z1, 0)
    pooled, idx = _pool_forward(a1)
    flat = pooled.ravel()
    logits = dense(flat, model.fc_w, model.fc_b)
    return logits, ForwardCache(x=x.data.astype(np.float64), z1=z1, a1=a1,
                                pool_idx=idx, flat=flat, logits=logits)


@dataclass
class Gradients:
    conv_w: np.ndarray
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    input: np.ndarray


def backward(model: TinyCNN, x: Tensor3, label: int) -> Gradients:
    """Gradients of the cross-entropy loss w.r.t. every parameter and the input."""
    if not 0 <= label < model.num_classes:
        raise ValueError(f"label {label} out of range")
    logits, cache = forward(model, x)
    p = softmax(logits)
    dlogits = p.copy()
    dlogits[label] -= 1.0

    dfc_w = np.outer(dlogits, cache.flat)
    dfc_b = dlogits
    dflat = model.fc_w.T @ dlogits

    c_out = model.conv1.out_channels
    oh, ow = cache.a1.shape[1], cache.a1.shape[2]
    dpooled = dflat.reshape(c_out, oh // 2, ow // 2)
    da1 = _pool_backward(dpooled, cache.pool_idx, cache.a1.shape)
    dz1 = da1 * (cache.z1 > 0)

    w = model.conv1.weights
    kh, kw = model.conv1.kernel_h, model.conv1.kernel_w
    dconv_b = dz1.sum(axis=(1, 2))
    dconv_w = np.zeros_like(w, dtype=np.float64)
    dx = np.zeros_like(cache.x)
    for j in range(kh):
        for k in range(kw):
            patch = cache.x[:, j:j + oh, k:k + ow]
            dconv_w[:, :, j, k] = np.einsum("ohw,chw->oc", dz1, patch)
            dx[:, j:j + oh, k:k + ow] += np.einsum("ohw,oc->chw", dz1, w[:, :, j, k])
    return Gradients(conv_w=dconv_w, conv_b=dconv_b, fc_w=dfc_w, fc_b=dfc_b,
                     input=dx)


def predict(model: TinyCNN, x: Tensor3) -> int:
    return int(np.argmax(forward(model, x)[0]))


def train(model: TinyCNN, dataset: list[tuple[Tensor3, int]],
          cfg: TrainConfig) -> TinyCNN:
    """Minibatch SGD: w <- w - lr * dLoss/dw, deterministic per seed."""
    if not dataset:
        raise EmptyDataset("training set is empty")
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
            g_cw = np.zeros_like(conv_w)
            g_cb = np.zeros_like(conv_b)
            g_fw = np.zeros_like(fc_w)
            g_fb = np.zeros_like(fc_b)
            cur = TinyCNN(FilterBank(conv_w, conv_b), fc_w, fc_b, model.input_shape)
            for i in batch:
                x, y = dataset[i]
                g = backward(cur, x, y)
                g_cw += g.conv_w
                g_cb += g.conv_b
                g_fw += g.fc_w
                g_fb += g.fc_b
            lr = cfg.learning_rate / len(batch)
            conv_w -= lr * g_cw
            conv_b -= lr * g_cb
            fc_w -= lr * g_fw
            fc_b -= lr * g_fb
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
    clean_preds = [predict(model, x) for x in sample_set]
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
    or the interleaved first-layer attack ("interleaved").
    """
    if not dataset:
        raise EmptyDataset("evaluation set is empty")
    if path not in ("direct", "interleaved"):
        raise ValueError(f"unknown path {path!r}")
    k5 = model.num_classes >= 5
    flips = top1c = top1p = top5c = top5p = 0
    for x, y in dataset:
        v = perturbation(x) if callable(perturbation) else perturbation
        clean_logits, _ = forward(model, x)
        if path == "direct":
            pert_logits, _ = forward(model, x + v)
        else:
            pert_logits, _ = forward(model, x, v)
        pc, pp = int(np.argmax(clean_logits)), int(np.argmax(pert_logits))
        flips += pc != pp
        top1c += pc == y
        top1p += pp == y
        if k5:
            top5c += y in np.argsort(clean_logits)[-5:]
            top5p += y in np.argsort(pert_logits)[-5:]
    n = len(dataset)
    return FoolingReport(
        fooling_rate=flips / n,
        top1_clean=top1c / n,
        top1_perturbed=top1p / n,
        top5_clean=top5c / n if k5 else None,
        top5_perturbed=top5p / n if k5 else None,
        n_samples=n,
    )


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
