"""Dense tensors and the layer math for a small CNN: conv, pool, ReLU,
dense, softmax cross-entropy and momentum SGD.

Layers operate on float32 by default (float64 available for verification).
Forward accepts a single sample [C,H,W] / [features] or a batch with a
leading N axis; gradients accumulate into the layer's grad buffers and are
expected to hold batch means by the time sgd_step runs. Only training
writes those buffers.
"""

from __future__ import annotations

import numpy as np

from . import rand
from .errors import LabelOutOfRange, OddDimension, ShapeMismatch


def initial_params(shape, seed, dtype):
    """Glorot-uniform weights of shape [out, in, *kernel], whose fans count
    kernel cells, and a zero bias."""
    receptive = int(np.prod(shape[2:]))
    s = np.sqrt(6.0 / ((shape[0] + shape[1]) * receptive))
    w = rand.uniform(seed, int(np.prod(shape)), -s, s).reshape(shape).astype(dtype)
    return w, np.zeros(shape[0], dtype)


class Layer:
    """Base layer; parameter-free unless it is a ParamLayer."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ParamLayer(Layer):
    """Layer around weights w and bias b; its geometry is w.shape. The grad
    (gw, gb) and momentum (vw, vb) buffers come from np.zeros, which writes
    no fresh pages; backward and sgd_step are the first to write them."""

    kind: str

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w
        self.b = b
        self.gw = np.zeros(w.shape, w.dtype)
        self.gb = np.zeros(b.shape, b.dtype)
        self.vw = np.zeros(w.shape, w.dtype)
        self.vb = np.zeros(b.shape, b.dtype)

    @classmethod
    def from_arrays(cls, w: np.ndarray, b: np.ndarray):
        """A layer around existing arrays, with no weight draw."""
        layer = cls.__new__(cls)
        ParamLayer.__init__(layer, w, b)
        return layer

    def zero_grad(self):
        self.gw[...] = 0
        self.gb[...] = 0


def _as_batch(x: np.ndarray, rank: int):
    """Promote a single sample to a batch of one; report whether it was."""
    if x.ndim == rank:
        return x[None], True
    if x.ndim == rank + 1:
        return x, False
    raise ShapeMismatch(f"expected rank {rank} or {rank + 1}, got {x.ndim}")


def _unbatch(y: np.ndarray, single: bool) -> np.ndarray:
    return y[0] if single else y


class Conv2D(ParamLayer):
    """Valid cross-correlation, stride 1. Weights [outC, inC, kH, kW]."""

    kind = "conv"
    _cols = _in_shape = None

    def __init__(self, in_c, out_c, k, seed=0, dtype=np.float32):
        super().__init__(*initial_params((out_c, in_c, k, k), seed, dtype))

    def _im2col(self, x):
        n, c, h, w = x.shape
        k = self.w.shape[-1]
        win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        # (N, C, oH, oW, k, k) -> (N, C*k*k, oH*oW)
        oh, ow = h - k + 1, w - k + 1
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
        return np.ascontiguousarray(cols), oh, ow

    def forward(self, x):
        x, single = _as_batch(x, 3)
        n, c, h, w = x.shape
        out_c, in_c, k, _ = self.w.shape
        if c != in_c:
            raise ShapeMismatch(f"conv expects {in_c} channels, got {c}")
        if h < k or w < k:
            raise ShapeMismatch(f"input {h}x{w} smaller than kernel {k}")
        cols, oh, ow = self._im2col(x)
        self._cols = cols
        self._in_shape = x.shape
        wf = self.w.reshape(out_c, -1)
        out = np.einsum("of,nfp->nop", wf, cols) + self.b[None, :, None]
        return _unbatch(out.reshape(n, out_c, oh, ow), single)

    def backward(self, grad_out):
        grad_out, single = _as_batch(grad_out, 3)
        n, oc, oh, ow = grad_out.shape
        if oc != self.w.shape[0] or self._cols is None:
            raise ShapeMismatch("backward shape inconsistent with last forward")
        g = grad_out.reshape(n, oc, oh * ow)
        self.gw += np.einsum("nop,nfp->of", g, self._cols).reshape(self.w.shape)
        self.gb += g.sum(axis=(0, 2))
        wf = self.w.reshape(oc, -1)
        gcols = np.einsum("of,nop->nfp", wf, g)
        # scatter-add columns back to the input raster
        _, c, h, w = self._in_shape
        k = self.w.shape[-1]
        gx = np.zeros(self._in_shape, dtype=grad_out.dtype)
        gcols = gcols.reshape(n, c, k, k, oh, ow)
        for dy in range(k):
            for dx in range(k):
                gx[:, :, dy : dy + oh, dx : dx + ow] += gcols[:, :, dy, dx]
        return _unbatch(gx, single)


class MaxPool2x2(Layer):
    """Disjoint 2x2 max pooling; ties go to the first cell in row-major order."""

    _argmax = _in_shape = None

    def forward(self, x):
        x, single = _as_batch(x, 3)
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise OddDimension(f"pooling needs even dims, got {h}x{w}")
        blocks = x.reshape(n, c, h // 2, 2, w // 2, 2)
        flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
        self._argmax = flat.argmax(axis=-1)
        self._in_shape = x.shape
        out = np.take_along_axis(flat, self._argmax[..., None], axis=-1)[..., 0]
        return _unbatch(out, single)

    def backward(self, grad_out):
        grad_out, single = _as_batch(grad_out, 3)
        n, c, oh, ow = grad_out.shape
        if self._argmax is None or self._argmax.shape != grad_out.shape:
            raise ShapeMismatch("backward shape inconsistent with last forward")
        gflat = np.zeros((n, c, oh, ow, 4), dtype=grad_out.dtype)
        np.put_along_axis(gflat, self._argmax[..., None], grad_out[..., None], axis=-1)
        gx = (
            gflat.reshape(n, c, oh, ow, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(self._in_shape)
        )
        return _unbatch(gx, single)


class ReLU(Layer):
    _mask = None

    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0)

    def backward(self, grad_out):
        if self._mask is None or self._mask.shape != grad_out.shape:
            raise ShapeMismatch("backward shape inconsistent with last forward")
        return np.where(self._mask, grad_out, 0)


class Flatten(Layer):
    _in_shape = None

    def forward(self, x):
        x, single = _as_batch(x, 3)
        self._in_shape = x.shape
        return _unbatch(x.reshape(x.shape[0], -1), single)

    def backward(self, grad_out):
        grad_out, single = _as_batch(grad_out, 1)
        return _unbatch(grad_out.reshape(self._in_shape), single)


class Dense(ParamLayer):
    """Affine map out = W x + b. Weights [out, in]."""

    kind = "dense"
    _x = None

    def __init__(self, in_n, out_n, seed=0, dtype=np.float32):
        super().__init__(*initial_params((out_n, in_n), seed, dtype))

    def forward(self, x):
        x, single = _as_batch(x, 1)
        if x.shape[1] != self.w.shape[1]:
            raise ShapeMismatch(f"dense expects {self.w.shape[1]} inputs, got {x.shape[1]}")
        self._x = x
        return _unbatch(x @ self.w.T + self.b, single)

    def backward(self, grad_out):
        grad_out, single = _as_batch(grad_out, 1)
        if grad_out.shape[1] != self.w.shape[0] or self._x is None:
            raise ShapeMismatch("backward shape inconsistent with last forward")
        self.gw += grad_out.T @ self._x
        self.gb += grad_out.sum(axis=0)
        return _unbatch(grad_out @ self.w, single)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy loss of one sample and its gradient w.r.t. the logits:
    softmax_xent_batch on a batch of one."""
    loss, grad = softmax_xent_batch(logits[None], [label])
    return loss, grad[0]


def softmax_xent_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean loss over a batch; gradient already divided by the batch size."""
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise LabelOutOfRange("label outside logit range")
    p = softmax(logits.astype(np.float64))
    picked = p[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, np.finfo(np.float64).tiny)).mean())
    grad = p
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(logits.dtype)


def sgd_step(params, lr: float, momentum: float):
    """Momentum update v <- m*v - lr*g; w <- w + v; grads zeroed afterwards."""
    for p in params:
        p.vw = momentum * p.vw - lr * p.gw
        p.vb = momentum * p.vb - lr * p.gb
        p.w += p.vw
        p.b += p.vb
        p.zero_grad()
