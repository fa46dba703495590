"""Skin-pixel box model over RGB+YCbCr, binary morphology, connected
components and extraction of the classifier's square binary input."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HandposeError
from .gesture_net import INPUT_SIDE
from .imaging import BinaryMask, Image, hook_min_roots, resize_nearest, rgb_to_ycbcr, square_in_frame

CHANNEL_NAMES = ("R", "G", "B", "Y", "Cb", "Cr")
# extraction: 3x3-box opening then closing, each this many iterations, and
# the crop padded by this fraction of the blob's longer side on each side
OPEN_ITERS = 2
CLOSE_ITERS = 2
PAD_FRACTION = 0.15


@dataclass
class SkinModel:
    """Inclusive [lo, hi] byte intervals per channel (R,G,B,Y,Cb,Cr)."""

    intervals: np.ndarray  # shape (6, 2), uint8-ranged ints
    alpha: float

    def __post_init__(self):
        self.intervals = np.asarray(self.intervals, dtype=np.int64)
        if self.intervals.shape != (6, 2):
            raise HandposeError("intervals must be 6x2")
        if np.any(self.intervals[:, 0] > self.intervals[:, 1]):
            raise HandposeError("interval lo > hi")
        if not 0 <= self.alpha < 0.5:
            raise HandposeError("alpha must be in [0, 0.5)")

    def to_text(self) -> str:
        lines = [
            f"{name} {int(lo)} {int(hi)}"
            for name, (lo, hi) in zip(CHANNEL_NAMES, self.intervals)
        ]
        lines.append(f"alpha {self.alpha}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "SkinModel":
        tokens = text.split()
        if len(tokens) != 6 * 3 + 2:
            raise HandposeError("skin model document has wrong token count")
        intervals = np.zeros((6, 2), dtype=np.int64)
        for i, name in enumerate(CHANNEL_NAMES):
            if tokens[3 * i] != name:
                raise HandposeError(f"expected channel {name}, got {tokens[3 * i]}")
            for j, tok in enumerate(tokens[3 * i + 1 : 3 * i + 3]):
                try:
                    bound = int(tok)
                except ValueError:
                    bound = -1
                if not 0 <= bound <= 255:
                    raise HandposeError(f"channel {name} bound {tok!r} is not an integer in 0..255")
                intervals[i, j] = bound
        if tokens[18] != "alpha":
            raise HandposeError("missing alpha line")
        try:
            alpha = float(tokens[19])
        except ValueError:
            raise HandposeError(f"alpha {tokens[19]!r} is not a number") from None
        return SkinModel(intervals, alpha)


@dataclass
class ComponentInfo:
    area: int
    bbox: tuple  # (x, y, w, h)


def _six_planes(img: Image) -> list:
    """The (R, G, B, Y, Cb, Cr) uint8 planes of an RGB image."""
    ycc = rgb_to_ycbcr(img).pixels
    return [img.pixels[:, :, c] for c in range(3)] + [ycc[:, :, c] for c in range(3)]


def nearest_rank(sorted_values: np.ndarray, q: float):
    """Nearest-rank percentile: value at rank max(1, ceil(q*n)), 1-based."""
    return sorted_values[max(1, int(np.ceil(q * len(sorted_values)))) - 1]


def fit_skin_model(pixels, alpha: float = 0.025) -> SkinModel:
    """Per-channel [percentile(alpha), percentile(1-alpha)] intervals from
    labeled skin pixels given as (R,G,B) rows."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.size == 0:
        raise HandposeError("need at least one training pixel")
    if not 0 <= alpha < 0.5:
        raise HandposeError("alpha must be in [0, 0.5)")
    intervals = np.zeros((6, 2), dtype=np.int64)
    for c, plane in enumerate(_six_planes(Image(pixels.reshape(1, -1, 3)))):
        vals = np.sort(plane[0])
        intervals[c] = (nearest_rank(vals, alpha), nearest_rank(vals, 1.0 - alpha))
    return SkinModel(intervals, alpha)


def classify_pixels(img: Image, model: SkinModel) -> BinaryMask:
    """A pixel is skin iff all six channel values fall inside their intervals."""
    if img.channels != 3:
        raise HandposeError("skin classification needs RGB input")
    skin = np.ones((img.height, img.width), dtype=bool)
    for plane, (lo, hi) in zip(_six_planes(img), model.intervals.tolist()):
        skin &= plane >= lo
        skin &= plane <= hi
    return BinaryMask(skin)


# -------------------------------------------------------------- morphology


def _box_combine(mask: BinaryMask, iters: int, combine) -> BinaryMask:
    """`iters` times, combine each pixel's 3x3 box as a 1x3 pass then a 3x1
    pass, each padded with background."""
    if iters < 0:
        raise HandposeError("iters must be >= 0")
    bits = mask.bits
    h, w = bits.shape
    for _ in range(iters):
        p = np.zeros((h, w + 2), dtype=bool)
        p[:, 1:-1] = bits
        q = np.zeros((h + 2, w), dtype=bool)
        combine(combine(p[:, :-2], p[:, 1:-1]), p[:, 2:], out=q[1:-1])
        bits = combine(combine(q[:-2], q[1:-1]), q[2:])
    return BinaryMask(bits)


def erode(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Minkowski erosion by the 3x3 box; outside the frame counts as background."""
    return _box_combine(mask, iters, np.logical_and)


def dilate(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Minkowski dilation by the 3x3 box; outside the frame counts as background."""
    return _box_combine(mask, iters, np.logical_or)


def open_mask(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Erosion then dilation, `iters` times each; removes small specks."""
    return dilate(erode(mask, iters), iters)


def close_mask(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Dilation then erosion, `iters` times each; fills small holes."""
    return erode(dilate(mask, iters), iters)


# ---------------------------------------------------------- components


def label_components(mask: BinaryMask):
    """8-connected components, labeled 1.. in first-seen (row-major) order;
    returns the (H, W) int32 label array and one ComponentInfo per label.

    Run-based labeling (He, Chao & Suzuki, IEEE TIP 2008): the foreground
    runs of each row, the links between 8-touching runs of adjacent rows,
    and the smallest run index of each linked set as its representative."""
    bits = mask.bits
    h, w = bits.shape
    # each run's start and exclusive end are consecutive edges of its row
    edge_y, edge_x = np.nonzero(np.diff(bits, axis=1, prepend=False, append=False))
    row, sx, ex = edge_y[0::2], edge_x[0::2], edge_x[1::2]
    n = len(row)
    # run a in row y - 1 touches run b in row y iff sx_b <= ex_a and
    # ex_b >= sx_a; keyed by row * (w + 1) + column, those a form the slice
    # [first end >= sx_b, last start <= ex_b] of row y - 1
    above = (row - 1) * (w + 1)
    first = np.searchsorted(row * (w + 1) + ex, above + sx, side="left")
    stop = np.searchsorted(row * (w + 1) + sx, above + ex, side="right")
    count = np.maximum(stop - first, 0)
    # one link (a, b) for each a in [first_b, stop_b)
    b = np.repeat(np.arange(n), count)
    a = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(b))
    root = hook_min_roots(np.arange(n), a, b)
    # roots ascend in first-seen order, and every run sits at or after its root
    is_root = root == np.arange(n)
    run_label = np.cumsum(is_root)[root]
    length = ex - sx
    labels = np.zeros((h, w), dtype=np.int32)
    labels[bits] = np.repeat(run_label, length)
    k = int(is_root.sum())
    idx = run_label - 1
    area = np.bincount(idx, weights=length, minlength=k)
    x0 = np.full(k, w)
    np.minimum.at(x0, idx, sx)
    x1 = np.zeros(k, dtype=np.intp)
    np.maximum.at(x1, idx, ex)
    y0 = row[is_root]
    y1 = np.zeros(k, dtype=np.intp)
    np.maximum.at(y1, idx, row)
    infos = [
        ComponentInfo(int(ar), (x, y, xe - x, ye - y + 1))
        for ar, x, y, xe, ye in zip(area.tolist(), x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist())
    ]
    return labels, infos


def largest_component(mask: BinaryMask) -> ComponentInfo | None:
    """Maximum-area component; ties go to the earlier label in scan order."""
    _, infos = label_components(mask)
    return max(infos, key=lambda info: info.area, default=None)


# ------------------------------------------------------------- extraction


def square_crop_box(bbox, frame_w, frame_h):
    """Expand a bbox by PAD_FRACTION, square it to 1:1, clamp to the frame."""
    x, y, w, h = bbox
    side = max(int(round(min(max(w, h) * (1.0 + 2.0 * PAD_FRACTION), frame_w, frame_h))), 1)
    return square_in_frame(x + w / 2.0, y + h / 2.0, side, frame_w, frame_h)


def extract_hand_patch(img: Image, model: SkinModel):
    """Segment, clean up with open/close, pick the largest blob and return
    its padded square crop resized to the classifier's input side, with
    the blob's component."""
    mask = classify_pixels(img, model)
    mask = open_mask(mask, OPEN_ITERS)
    mask = close_mask(mask, CLOSE_ITERS)
    comp = largest_component(mask)
    if comp is None:
        return None
    x0, y0, side, _ = square_crop_box(comp.bbox, img.width, img.height)
    crop = BinaryMask(mask.bits[y0 : y0 + side, x0 : x0 + side])
    return resize_nearest(crop, INPUT_SIDE, INPUT_SIDE), comp
