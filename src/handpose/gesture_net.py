"""The 10-class gesture classifier: network construction, dataset loading,
training, evaluation and bit-exact weight serialization.

The architecture, for 48x48 binary inputs, is written down once: the five
PARAM_LAYERS inside the 12-layer chain of _chain.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rand
from .errors import HandposeError
from .imaging import BinaryMask, load_pnm
from .tensor_nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2x2,
    ParamLayer,
    ReLU,
    initial_params,
    sgd_step,
    softmax,
    softmax_xent_batch,
)

INPUT_SIDE = 48
NUM_CLASSES = 10
# training: the learning rate is multiplied by LR_DECAY every DECAY_EVERY
# epochs; evaluation predicts PREDICT_BATCH samples per forward pass
LR_DECAY = 0.1
DECAY_EVERY = 15
PREDICT_BATCH = 256
# the parameter layers in weight-file order: class and weight shape
PARAM_LAYERS = (
    (Conv2D, (6, 1, 5, 5)),
    (Conv2D, (16, 6, 3, 3)),
    (Dense, (120, 1600)),
    (Dense, (84, 120)),
    (Dense, (NUM_CLASSES, 84)),
)


class Network:
    """Ordered layer list with convenience forward/backward over it."""

    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        return [layer for layer in self.layers if isinstance(layer, ParamLayer)]

    @property
    def param_count(self) -> int:
        return sum(p.w.size + p.b.size for p in self.params())

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax labels for a batch [N,1,48,48]; ties go to the lower class."""
        return self.forward(x).argmax(axis=-1)

    def state(self):
        return [(p.w.copy(), p.b.copy()) for p in self.params()]

    def load_state(self, state):
        for p, (w, b) in zip(self.params(), state):
            p.w[...] = w
            p.b[...] = b


def _chain(conv1, conv2, dense1, dense2, dense3) -> Network:
    """The 12-layer network around the five PARAM_LAYERS."""
    return Network([
        conv1, ReLU(), MaxPool2x2(),
        conv2, ReLU(), MaxPool2x2(), Flatten(),
        dense1, ReLU(), dense2, ReLU(), dense3,
    ])


def build_network(seed: int) -> Network:
    """Deterministic float32 construction from a 64-bit seed."""
    layers = []
    for i, (cls, shape) in enumerate(PARAM_LAYERS, 1):
        layers.append(cls.from_arrays(*initial_params(shape, rand.derive_seed(seed, i), np.float32)))
    return _chain(*layers)


# ---------------------------------------------------------------- dataset


@dataclass
class Dataset:
    samples: list  # (BinaryMask 48x48, label)

    def __len__(self):
        return len(self.samples)

    def as_arrays(self):
        x = np.stack([m.bits for m, _ in self.samples]).astype(np.float32)[:, None]
        y = np.array([lbl for _, lbl in self.samples], dtype=np.int64)
        return x, y


def otsu_threshold(gray: np.ndarray) -> int:
    """Threshold t in [0,255] maximizing between-class variance of
    {<=t} vs {>t}; lowest t wins ties. Pixels > t form the bright class."""
    hist = np.bincount(gray.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    omega = hist.cumsum() / total
    mu = (hist * np.arange(256)).cumsum() / total
    mu_t = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_t * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b = np.nan_to_num(sigma_b, nan=-1.0, posinf=-1.0, neginf=-1.0)
    return int(sigma_b.argmax())


def binarize(gray: np.ndarray, mode: str = "otsu", threshold: int = 128) -> BinaryMask:
    """'otsu': bright side of the Otsu split; 'fixed': pixel >= threshold."""
    if mode == "otsu":
        t = otsu_threshold(gray)
        return BinaryMask(gray > t)
    if mode == "fixed":
        return BinaryMask(gray >= threshold)
    raise HandposeError(f"unknown binarize mode {mode!r}")


def load_dataset(root, mode: str = "otsu", threshold: int = 128) -> Dataset:
    """Load root/<label>/*.pgm into 48x48 binary masks, lexicographic order."""
    root = Path(root)
    label_dirs = sorted(d for d in root.iterdir() if d.is_dir() and d.name.isdigit())
    labels = sorted(int(d.name) for d in label_dirs)
    if labels != list(range(len(labels))):
        raise HandposeError(f"class directories {labels} are not 0..{len(labels) - 1}")
    if not labels:
        raise HandposeError(f"no class directories under {root}")
    if len(labels) > NUM_CLASSES:
        raise HandposeError(f"{len(labels)} class directories, the network has {NUM_CLASSES} classes")
    samples = []
    for d in sorted(label_dirs, key=lambda p: int(p.name)):
        files = sorted(d.glob("*.pgm"))
        if not files:
            raise HandposeError(f"class directory {d} has no .pgm files")
        for f in files:
            img = load_pnm(f.read_bytes())
            if img.width != INPUT_SIDE or img.height != INPUT_SIDE or img.channels != 1:
                raise HandposeError(f"{f}: expected {INPUT_SIDE}x{INPUT_SIDE} grayscale")
            samples.append((binarize(img.pixels[:, :, 0], mode, threshold), int(d.name)))
    return Dataset(samples)


# ---------------------------------------------------------------- training


@dataclass
class Hyper:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 30
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise HandposeError("learning_rate must be positive and finite")
        if not 0 <= self.momentum < 1:
            raise HandposeError("momentum must be in [0, 1)")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise HandposeError("batch_size and epochs must be positive")


@dataclass
class TrainReport:
    epochs: list  # (train_loss, train_acc, val_acc) per epoch
    best_val_acc: float


def stratified_split(y: np.ndarray, split: float, seed: int):
    """Per-class deterministic shuffle; first `split` fraction trains."""
    rng = rand.generator(seed, 101)
    train_idx, val_idx = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = int(round(split * len(idx)))
        cut = min(max(cut, 1), len(idx) - 1) if len(idx) > 1 else len(idx)
        train_idx.append(idx[:cut])
        val_idx.append(idx[cut:])
    return np.concatenate(train_idx), np.concatenate(val_idx)


def _predict_all(net: Network, x: np.ndarray) -> np.ndarray:
    """Labels for every sample of x, PREDICT_BATCH samples per forward pass."""
    pred = np.empty(len(x), dtype=np.int64)
    for i in range(0, len(x), PREDICT_BATCH):
        pred[i : i + PREDICT_BATCH] = net.predict(x[i : i + PREDICT_BATCH])
    return pred


def train(net: Network, data: Dataset, hyper: Hyper, split: float = 0.8) -> TrainReport:
    """Minibatch momentum SGD with a stratified split and seeded shuffles.

    Keeps the best-validation weights; deterministic for a fixed seed.
    """
    if not 0 < split < 1:
        raise HandposeError("split must lie in (0, 1)")
    x, y = data.as_arrays()
    tr, va = stratified_split(y, split, hyper.seed)
    if len(va) == 0:
        raise HandposeError("validation split is empty: at least one class needs 2 or more images")
    xt, yt, xv, yv = x[tr], y[tr], x[va], y[va]
    epochs_log = []
    # every accuracy beats -1, so epoch 0 (epochs >= 1) sets best_state
    best_acc = -1.0
    lr = hyper.learning_rate
    for epoch in range(hyper.epochs):
        if epoch > 0 and epoch % DECAY_EVERY == 0:
            lr *= LR_DECAY
        order = rand.generator(hyper.seed, 1000 + epoch).permutation(len(xt))
        losses = []
        hits = 0
        for i in range(0, len(order), hyper.batch_size):
            sel = order[i : i + hyper.batch_size]
            xb, yb = xt[sel], yt[sel]
            logits = net.forward(xb)
            loss, grad = softmax_xent_batch(logits, yb)
            net.backward(grad)
            sgd_step(net.params(), lr, hyper.momentum)
            losses.append(loss)
            hits += int((logits.argmax(axis=-1) == yb).sum())
        val_acc = int((_predict_all(net, xv) == yv).sum()) / len(xv)
        epochs_log.append((float(np.mean(losses)), hits / len(xt), val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_state = net.state()
    net.load_state(best_state)
    return TrainReport(epochs_log, best_acc)


# -------------------------------------------------------------- evaluation


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [true, predicted], NUM_CLASSES x NUM_CLASSES

    @property
    def accuracy(self) -> float:
        total = int(self.counts.sum())
        return float(np.trace(self.counts)) / total if total else 0.0

    def to_csv(self) -> str:
        lines = [",".join(f"class{i}" for i in range(NUM_CLASSES))]
        for row in self.counts:
            lines.append(",".join(str(int(v)) for v in row))
        lines.append(f"accuracy,{self.accuracy:.4f}")
        return "\n".join(lines) + "\n"


def evaluate(net: Network, data: Dataset):
    x, y = data.as_arrays()
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(counts, (y, _predict_all(net, x)), 1)
    return ConfusionMatrix(counts)


# ------------------------------------------------------------ weight file

WEIGHTS_MAGIC = b"HGNW"
WEIGHTS_VERSION = 1
_KIND_CODES = {"conv": 1, "dense": 2}


def _require_finite(p):
    if not (np.isfinite(p.w).all() and np.isfinite(p.b).all()):
        raise HandposeError(f"non-finite {p.kind} layer parameters")


def save_weights(net: Network) -> bytes:
    """Little-endian container with a trailing CRC32 of all prior bytes."""
    params = net.params()
    out = bytearray()
    out += WEIGHTS_MAGIC
    out += struct.pack("<II", WEIGHTS_VERSION, len(params))
    for p in params:
        _require_finite(p)
        dims = p.w.shape
        out += struct.pack("<BI", _KIND_CODES[p.kind], len(dims))
        out += struct.pack(f"<{len(dims)}I", *dims)
        out += p.w.astype("<f4").tobytes()
        out += p.b.astype("<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


def load_weights(data: bytes) -> Network:
    """Parse a weight container into a network built around its arrays."""
    if len(data) < 12 + 4:
        raise HandposeError("weight file shorter than its fixed header")
    if data[:4] != WEIGHTS_MAGIC:
        raise HandposeError(f"bad magic {data[:4]!r}")
    (crc_stored,) = struct.unpack("<I", data[-4:])
    body = memoryview(data)[:-4]  # no copy of the file's bytes
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise HandposeError("CRC32 mismatch")
    version, count = struct.unpack("<II", data[4:12])
    if version != WEIGHTS_VERSION:
        raise HandposeError(f"unsupported version {version}")
    if count != len(PARAM_LAYERS):
        raise HandposeError(f"expected {len(PARAM_LAYERS)} layer records, found {count}")
    pos = 12
    layers = []
    for cls, shape in PARAM_LAYERS:
        try:
            kind, rank = struct.unpack_from("<BI", body, pos)
            pos += 5
            dims = struct.unpack_from(f"<{rank}I", body, pos)
            pos += 4 * rank
        except struct.error as exc:
            raise HandposeError("layer record header truncated") from exc
        if kind != _KIND_CODES[cls.kind] or dims != shape:
            raise HandposeError(f"layer record {dims} does not match network {shape}")
        n_w, n_b = int(np.prod(dims)), shape[0]
        if pos + 4 * (n_w + n_b) > len(body):
            raise HandposeError("weight payload truncated")
        # astype copies: owned, writable, native float32 arrays
        w = np.frombuffer(body, "<f4", n_w, pos).reshape(dims).astype(np.float32)
        pos += 4 * n_w
        layers.append(cls.from_arrays(w, np.frombuffer(body, "<f4", n_b, pos).astype(np.float32)))
        pos += 4 * n_b
        _require_finite(layers[-1])
    if pos != len(body):
        raise HandposeError("trailing bytes after last layer record")
    return _chain(*layers)


def classify_mask(net: Network, mask: BinaryMask):
    """Predicted label and softmax confidence for one 48x48 mask."""
    if mask.width != INPUT_SIDE or mask.height != INPUT_SIDE:
        raise HandposeError(f"classifier input must be {INPUT_SIDE}x{INPUT_SIDE}")
    logits = net.forward(mask.bits.astype(np.float32)[None, None])[0]
    probs = softmax(logits.astype(np.float64))
    label = int(logits.argmax())
    return label, float(probs[label])
