"""Seeded synthetic sessions and the canonical pipeline configuration.

Everything the pipeline sees is built here from the workload seed: the
skin model, the cascade and the network are written to disk through the
library's public savers and read back with ``PipelineConfig.load``; the
frames are RGB images generated in memory before any timing starts. The
generator records the true hand box of every frame.

Randomness comes from ``numpy.random.default_rng`` only, so the inputs do
not depend on the library's own random streams. The network weights do:
``gesture_net.build_network(seed)`` is the library's seeded constructor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from handpose import gesture_net, haar_cascade, skin_segment
from handpose.haar_cascade import CascadeModel, Stage, Tree, TreeNode, WeightedRect
from handpose.imaging import Image

# Each seed selects one of VARIANTS recorded input sets; the output check
# needs a reference recorded from the same inputs.
VARIANTS = 10

SKIN_BASE = np.array([200, 120, 100])
BG_COLOR = np.array([40, 60, 200])
CASCADE_WINDOW = 24
BRIGHTNESS_THRESHOLD = 110.0

# The configuration of the golden session, with a seeded non-zero network.
CONFIG_KWARGS = dict(wrist_vertical_anchor=0.5, wrist_size_ratio=1.0, seed=7)

@dataclass
class Session:
    """One scripted sequence; ``frames[i]`` and ``truth[i]`` (x, y, w, h)
    or None when no hand is in view. Frames may be shared objects."""

    workload: str
    variant: int
    frames: list
    truth: list

    def fingerprint(self, config_paths) -> str:
        """SHA-256 over the frames, the true boxes and the bytes of the
        config files the session is loaded with."""
        h = hashlib.sha256()
        for path in config_paths:
            h.update(Path(path).read_bytes())
        seen = {}
        for frame, box in zip(self.frames, self.truth):
            key = id(frame)
            if key not in seen:
                seen[key] = len(seen)
                h.update(frame.pixels.tobytes())
            h.update(repr((seen[key], box)).encode())
        return h.hexdigest()


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ------------------------------------------------------------ configuration


def brightness_cascade() -> CascadeModel:
    """One stage, one stump, full-window rects: a window passes when its
    variance-normalized mean luma exceeds the threshold, so only windows
    inside a flat bright region (the skin square) fire."""
    win = CASCADE_WINDOW
    node = TreeNode(
        [WeightedRect(0, 0, win, win, -1.0), WeightedRect(0, 0, win, win, 2.0)],
        threshold=BRIGHTNESS_THRESHOLD,
        left_val=-1.0,
        right_val=1.0,
    )
    return CascadeModel((win, win), [Stage(0.5, [Tree([node])])])


def flat_skin_model() -> skin_segment.SkinModel:
    base = SKIN_BASE.astype(np.int64)
    jitter = np.array([[dr, dg, db] for dr in (-5, 0, 5) for dg in (-5, 0, 5) for db in (-5, 0, 5)])
    return skin_segment.fit_skin_model((base + jitter).astype(np.uint8), alpha=0.0)


def write_config_files(out_dir: Path, variant: int):
    """Write skin model, weights and cascade; return the three paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    skin = out_dir / "skin.txt"
    weights = out_dir / "weights.hgw"
    cascade = out_dir / "cascade.xml"
    skin.write_text(flat_skin_model().to_text())
    weights.write_bytes(gesture_net.save_weights(gesture_net.build_network(seed=1000 + variant)))
    cascade.write_text(haar_cascade.serialize_cascade(brightness_cascade()))
    return skin, weights, cascade


# ------------------------------------------------------------------ frames


def _background(rng, width, height) -> np.ndarray:
    """Non-skin texture: 8x8 blocks plus fine noise around BG_COLOR.

    Red stays below 80 (skin needs 195+) and luma below 110, so no pixel is
    skin and no cascade window over the background passes.
    """
    by, bx = -(-height // 8), -(-width // 8)
    coarse = rng.integers(-20, 21, size=(by, bx, 3)).repeat(8, axis=0).repeat(8, axis=1)
    fine = rng.integers(-10, 11, size=(height, width, 3))
    bg = BG_COLOR[None, None] + coarse[:height, :width] + fine
    return np.clip(bg, 0, 255).astype(np.uint8)


def _with_hand(bg: np.ndarray, box) -> Image:
    px = bg.copy()
    if box is not None:
        x, y, w, h = box
        px[y : y + h, x : x + w] = SKIN_BASE
    return Image(px)


def search_session(variant: int, n_frames: int = 4) -> Session:
    """160x120 textured backgrounds, never a hand: every frame DETECTING,
    every window scanned, zero raw hits."""
    rng = np.random.default_rng([variant, 1])
    frames = [Image(_background(rng, 160, 120)) for _ in range(n_frames)]
    return Session("search-160x120", variant, frames, [None] * n_frames)


def track_session(variant: int, period: int = 120, side: int = 36) -> Session:
    """320x240, one flat hand on a static texture going once round a
    smooth closed path of `period` frames; steps stay at or under 7 px, far
    inside the tracker's 25 px search radius."""
    width, height = 320, 240
    rng = np.random.default_rng([variant, 2])
    bg = _background(rng, width, height)
    t = 2.0 * np.pi * np.arange(period) / period
    pos = []
    for span in (width - side, height - side):
        amp1 = rng.uniform(0.15, 0.3) * span
        amp2 = rng.uniform(0.02, 0.05) * span
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        path = span / 2 + amp1 * np.sin(t + ph1) + amp2 * np.sin(2 * t + ph2)
        pos.append(np.clip(np.rint(path), 0, span).astype(int))
    boxes = [(int(x), int(y), side, side) for x, y in zip(*pos)]
    steps = [max(abs(a[0] - b[0]), abs(a[1] - b[1])) for a, b in zip(boxes, boxes[1:] + boxes[:1])]
    if max(steps) > 7:
        raise RuntimeError(f"track path step {max(steps)} px exceeds 7")
    return Session("track-320x240", variant, [_with_hand(bg, box) for box in boxes], boxes)


# Reacquire bursts follow a fixed schedule of hand size, gap length and
# place in the frame, so every run of a given length meets the same mix of
# costs: detection grows with the square of the hand's raw hits (its
# size), and a tracking step scores fewer candidates near the frame edge.
# The seed jitters size and place and moves the hand while it is visible.
# (side, empty frames after the burst, place): place is where the hand
# starts: "c" centre, or the frame edges it touches (l, r, t, b).
BURSTS = (
    (28, 1, "c"),
    (44, 2, "l"),
    (32, 1, "tr"),
    (40, 2, "b"),
)
BURST_VISIBLE = 4


def _burst_start(rng, place, span_x, span_y):
    x = span_x // 2 + int(rng.integers(-10, 11))
    y = span_y // 2 + int(rng.integers(-10, 11))
    if place != "c":
        x = int(rng.integers(0, span_x + 1))
        y = int(rng.integers(0, span_y + 1))
    if "l" in place:
        x = 0
    if "r" in place:
        x = span_x
    if "t" in place:
        y = 0
    if "b" in place:
        y = span_y
    return x, y


def reacquire_session(variant: int) -> Session:
    """160x120 bursts: a hand shows for BURST_VISIBLE frames, leaves for
    1-2 frames (the tracker drops on the first empty frame), then
    reappears elsewhere, as scheduled in BURSTS."""
    width, height = 160, 120
    rng = np.random.default_rng([variant, 3])
    bg = _background(rng, width, height)
    frames, truth = [], []
    empty = Image(bg)
    for side, gap, place in BURSTS:
        side += int(rng.integers(-1, 2))
        span_x, span_y = width - side, height - side
        x, y = _burst_start(rng, place, span_x, span_y)
        for _ in range(BURST_VISIBLE):
            box = (x, y, side, side)
            frames.append(_with_hand(bg, box))
            truth.append(box)
            x = int(np.clip(x + rng.integers(-2, 3), 0, span_x))
            y = int(np.clip(y + rng.integers(-2, 3), 0, span_y))
        for _ in range(gap):
            frames.append(empty)
            truth.append(None)
    return Session("reacquire-160x120", variant, frames, truth)


BUILDERS = {
    "search-160x120": search_session,
    "track-320x240": track_session,
    "reacquire-160x120": reacquire_session,
}
WORKLOADS = tuple(BUILDERS)


def build_session(workload: str, seed: int) -> Session:
    return BUILDERS[workload](variant_of(seed))
