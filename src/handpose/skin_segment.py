"""Skin-pixel box model over RGB+YCbCr, binary morphology, connected
components and extraction of the 48x48 binary classifier input."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, WrongChannelCount
from .imaging import BinaryMask, Image, resize_nearest, rgb_to_ycbcr

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
            raise ValueError("intervals must be 6x2")
        if np.any(self.intervals[:, 0] > self.intervals[:, 1]):
            raise ValueError("interval lo > hi")
        if not 0 <= self.alpha < 0.5:
            raise ValueError("alpha must be in [0, 0.5)")

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
            raise ValueError("skin model document has wrong token count")
        intervals = np.zeros((6, 2), dtype=np.int64)
        for i, name in enumerate(CHANNEL_NAMES):
            if tokens[3 * i] != name:
                raise ValueError(f"expected channel {name}, got {tokens[3 * i]}")
            for j, tok in enumerate(tokens[3 * i + 1 : 3 * i + 3]):
                try:
                    bound = int(tok)
                except ValueError:
                    bound = -1
                if not 0 <= bound <= 255:
                    raise ValueError(f"channel {name} bound {tok!r} is not an integer in 0..255")
                intervals[i, j] = bound
        if tokens[18] != "alpha":
            raise ValueError("missing alpha line")
        return SkinModel(intervals, float(tokens[19]))


@dataclass
class ComponentInfo:
    area: int
    bbox: tuple  # (x, y, w, h)
    centroid: tuple  # (cx, cy) floats


def _six_channels(rgb_pixels: np.ndarray) -> np.ndarray:
    """Stack (R,G,B,Y,Cb,Cr) planes for an HxWx3 uint8 array."""
    img = Image(rgb_pixels)
    ycc = rgb_to_ycbcr(img).pixels
    return np.concatenate([img.pixels, ycc], axis=2).astype(np.int64)


def nearest_rank(sorted_values: np.ndarray, q: float):
    """Nearest-rank percentile: value at rank max(1, ceil(q*n)), 1-based."""
    return sorted_values[max(1, int(np.ceil(q * len(sorted_values)))) - 1]


def fit_skin_model(pixels, alpha: float = 0.025) -> SkinModel:
    """Per-channel [percentile(alpha), percentile(1-alpha)] intervals from
    labeled skin pixels given as (R,G,B) rows."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.size == 0:
        raise EmptyInput("need at least one training pixel")
    if not 0 <= alpha < 0.5:
        raise ValueError("alpha must be in [0, 0.5)")
    chans = _six_channels(pixels.reshape(1, -1, 3))[0]  # (N, 6)
    intervals = np.zeros((6, 2), dtype=np.int64)
    for c in range(6):
        vals = np.sort(chans[:, c])
        intervals[c] = (nearest_rank(vals, alpha), nearest_rank(vals, 1.0 - alpha))
    return SkinModel(intervals, alpha)


def classify_pixels(img: Image, model: SkinModel) -> BinaryMask:
    """A pixel is skin iff all six channel values fall inside their intervals."""
    if img.channels != 3:
        raise WrongChannelCount("skin classification needs RGB input")
    chans = _six_channels(img.pixels)
    lo = model.intervals[:, 0].reshape(1, 1, 6)
    hi = model.intervals[:, 1].reshape(1, 1, 6)
    return BinaryMask(np.all((chans >= lo) & (chans <= hi), axis=2))


# -------------------------------------------------------------- morphology


def _pad_apply(bits: np.ndarray, combine) -> np.ndarray:
    """Combine the nine 3x3-box shifts of `bits`; outside counts as background."""
    padded = np.pad(bits, 1, constant_values=False)
    h, w = bits.shape
    out = padded[0:h, 0:w].copy()
    for dy in range(3):
        for dx in range(3):
            if dy or dx:
                out = combine(out, padded[dy : dy + h, dx : dx + w])
    return out


def erode(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Minkowski erosion by the 3x3 box; outside the frame counts as background."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    bits = mask.bits
    for _ in range(iters):
        bits = _pad_apply(bits, np.logical_and)
    return BinaryMask(bits)


def dilate(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Minkowski dilation by the 3x3 box; outside the frame counts as background."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    bits = mask.bits
    for _ in range(iters):
        bits = _pad_apply(bits, np.logical_or)
    return BinaryMask(bits)


def open_mask(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Erosion then dilation, `iters` times each; removes small specks."""
    return dilate(erode(mask, iters), iters)


def close_mask(mask: BinaryMask, iters: int = 1) -> BinaryMask:
    """Dilation then erosion, `iters` times each; fills small holes."""
    return erode(dilate(mask, iters), iters)


# ---------------------------------------------------------- components


_NEIGHBORS_8 = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0))


def label_components(mask: BinaryMask):
    """8-connected row-major scan flood fill; labels assigned in first-seen order."""
    bits = mask.bits
    h, w = bits.shape
    labels = np.zeros((h, w), dtype=np.int32)
    infos = []
    next_label = 0
    for y in range(h):
        for x in range(w):
            if not bits[y, x] or labels[y, x]:
                continue
            next_label += 1
            stack = [(y, x)]
            labels[y, x] = next_label
            pts = []
            while stack:
                cy, cx = stack.pop()
                pts.append((cy, cx))
                for dy, dx in _NEIGHBORS_8:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = next_label
                        stack.append((ny, nx))
            ys = np.array([p[0] for p in pts])
            xs = np.array([p[1] for p in pts])
            bbox = (int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1))
            infos.append(ComponentInfo(len(pts), bbox, (float(xs.mean()), float(ys.mean()))))
    return labels, infos


def largest_component(mask: BinaryMask) -> ComponentInfo | None:
    """Maximum-area component; ties go to the earlier label in scan order."""
    _, infos = label_components(mask)
    return max(infos, key=lambda info: info.area, default=None)


# ------------------------------------------------------------- extraction


def square_crop_box(bbox, frame_w, frame_h):
    """Expand a bbox by PAD_FRACTION, square it to 1:1, clamp to the frame."""
    x, y, w, h = bbox
    cx = x + w / 2.0
    cy = y + h / 2.0
    side = max(w, h) * (1.0 + 2.0 * PAD_FRACTION)
    side = min(side, frame_w, frame_h)
    side = max(int(round(side)), 1)
    x0 = int(round(cx - side / 2.0))
    y0 = int(round(cy - side / 2.0))
    x0 = min(max(x0, 0), frame_w - side)
    y0 = min(max(y0, 0), frame_h - side)
    return x0, y0, side, side


def extract_hand_patch(img: Image, model: SkinModel, roi=None):
    """Segment, clean up with open/close, pick the largest blob and return
    its padded square crop resized to a 48x48 mask.

    `roi` (x, y, w, h) optionally restricts segmentation to a sub-window;
    the returned component is reported in full-frame coordinates.
    """
    ox = oy = 0
    if roi is not None:
        x, y, w, h = roi
        x = max(0, min(x, img.width - 1))
        y = max(0, min(y, img.height - 1))
        w = max(1, min(w, img.width - x))
        h = max(1, min(h, img.height - y))
        sub = Image(img.pixels[y : y + h, x : x + w])
        ox, oy = x, y
        img = sub
    mask = classify_pixels(img, model)
    mask = open_mask(mask, OPEN_ITERS)
    mask = close_mask(mask, CLOSE_ITERS)
    comp = largest_component(mask)
    if comp is None:
        return None
    x0, y0, side, _ = square_crop_box(comp.bbox, img.width, img.height)
    crop = BinaryMask(mask.bits[y0 : y0 + side, x0 : x0 + side])
    patch = resize_nearest(crop, 48, 48)
    bx, by, bw, bh = comp.bbox
    comp = ComponentInfo(
        comp.area,
        (bx + ox, by + oy, bw, bh),
        (comp.centroid[0] + ox, comp.centroid[1] + oy),
    )
    return patch, comp
