"""Per-frame orchestration: detect with the cascade, track with MIL,
segment the tracked region, classify the 48x48 mask, smooth labels.

The state machine has exactly two modes, behind one guard: a frame that
cannot hold a hand (gray, since skin segmentation needs RGB, or under
MIN_SIDE px on a side) ends any track and is not scanned. DETECTING runs
the cascade on the luma frame and, on a hit, derives the tracked wrist box
and starts the tracker. TRACKING advances the tracker on the frame as it
is (the tracker takes the luma of the pixels it reads), drops back to
DETECTING when the frame's size changed or confidence falls below its
threshold, and else cuts the region around the tracked box, segments it
and classifies.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import gesture_net, haar_cascade, mil_tracker, skin_segment
from .errors import HandposeError, PatchOutOfFrame
from .imaging import Image, load_pnm, luma, square_in_frame

DETECTING = "DETECTING"
TRACKING = "TRACKING"
MIN_SIDE = 4  # the floor wrist_box puts on the tracked side: init_tracker needs 16 px


@dataclass
class PipelineConfig:
    skin_model: skin_segment.SkinModel
    network: gesture_net.Network
    cascade: haar_cascade.CascadeModel
    confidence_threshold: ClassVar[float] = 0.0
    smoothing_window: ClassVar[int] = 5
    # tracked box = square of side size_ratio*min(det_w, det_h), centered
    # horizontally, its center at det_y + vertical_anchor*det_h
    wrist_vertical_anchor: float = 0.8
    wrist_size_ratio: float = 0.6
    seed: int = 42

    @staticmethod
    def load(skin_path, weights_path, cascade_path, **kwargs) -> "PipelineConfig":
        skin = skin_segment.SkinModel.from_text(Path(skin_path).read_text())
        net = gesture_net.load_weights(Path(weights_path).read_bytes())
        cascade = haar_cascade.parse_cascade(Path(cascade_path).read_text())
        return PipelineConfig(skin, net, cascade, **kwargs)


@dataclass
class PipelineState:
    mode: str = DETECTING
    tracker: mil_tracker.TrackerState | None = None
    label_history: deque = field(default_factory=deque)
    frame_index: int = 0


@dataclass
class FrameOutput:
    frame_index: int
    mode: str
    hand_bbox: tuple | None = None
    raw_label: int | None = None
    smoothed_label: int | None = None
    confidence: float | None = None
    timings: dict = field(default_factory=dict)


def smooth_label(history) -> int:
    """Majority vote; ties resolve to the most recent among tied labels."""
    if not history:
        raise HandposeError("label history is empty")
    # max keeps the first of equal counts, so the most recent tied label
    return max(reversed(history), key=Counter(history).__getitem__)


def wrist_box(det_bbox, cfg: PipelineConfig, frame_w: int, frame_h: int):
    """Square tracked box derived from a detection per the config rule."""
    x, y, w, h = det_bbox
    side = min(max(MIN_SIDE, int(round(cfg.wrist_size_ratio * min(w, h)))), frame_w, frame_h)
    return square_in_frame(x + w / 2.0, y + cfg.wrist_vertical_anchor * h, side, frame_w, frame_h)


def advance(state: PipelineState, frame: Image, cfg: PipelineConfig):
    """Process one frame; returns (state, FrameOutput)."""
    out = FrameOutput(frame_index=state.frame_index, mode=state.mode)
    t0 = time.perf_counter()

    if frame.channels != 3 or min(frame.width, frame.height) < MIN_SIDE:
        state.tracker = None  # no hand can be on this frame
        state.mode = DETECTING
    elif state.mode == DETECTING:
        gray = luma(frame)
        td = time.perf_counter()
        try:
            detections = haar_cascade.detect_multiscale(cfg.cascade, gray)
        except haar_cascade.ImageTooSmall:
            detections = []
        out.timings["detect_ms"] = (time.perf_counter() - td) * 1000.0
        if detections:
            box = wrist_box(detections[0].bbox, cfg, frame.width, frame.height)
            state.tracker = mil_tracker.init_tracker(gray, box, seed=cfg.seed)
            state.mode = TRACKING
            state.label_history = deque(maxlen=cfg.smoothing_window)
    else:
        tt = time.perf_counter()
        try:
            result = mil_tracker.track_step(state.tracker, frame)
        except PatchOutOfFrame:  # the frame size changed mid-track
            result = None
        out.timings["track_ms"] = (time.perf_counter() - tt) * 1000.0
        if result is None or not mil_tracker.confidence_ok(result, cfg.confidence_threshold):
            state.tracker = None
            state.mode = DETECTING
        else:
            out.confidence = result.confidence
            bx, by, bw, bh = result.bbox
            # segment inside the tracked box inflated by 2x; the slice clips
            # the far edges, as the tracker keeps its box in frame
            x, y = max(0, bx - bw // 2), max(0, by - bh // 2)
            ts = time.perf_counter()
            region = Image(frame.pixels[y : y + 2 * bh, x : x + 2 * bw])
            extracted = skin_segment.extract_hand_patch(region, cfg.skin_model)
            out.timings["segment_ms"] = (time.perf_counter() - ts) * 1000.0
            if extracted is not None:
                patch, comp = extracted
                tc = time.perf_counter()
                label, _ = gesture_net.classify_mask(cfg.network, patch)
                out.timings["classify_ms"] = (time.perf_counter() - tc) * 1000.0
                state.label_history.append(label)
                cx, cy, cw, ch = comp.bbox
                out.hand_bbox = (cx + x, cy + y, cw, ch)
                out.raw_label = label
                out.smoothed_label = smooth_label(state.label_history)

    out.timings["total_ms"] = (time.perf_counter() - t0) * 1000.0
    state.frame_index += 1
    return state, out


@dataclass
class SessionReport:
    frames: list  # FrameOutput
    aggregates: dict

    def to_dict(self):
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def latency_stats(samples) -> dict:
    """Mean, nearest-rank p50/p95, min and max of a non-empty sample list."""
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    return {
        "mean": float(arr.mean()),
        "p50": float(skin_segment.nearest_rank(arr, 0.5)),
        "p95": float(skin_segment.nearest_rank(arr, 0.95)),
        "min": float(arr[0]),
        "max": float(arr[-1]),
    }


def run_session(frames, cfg: PipelineConfig) -> SessionReport:
    """Stream `frames` (iterable of Image) through the state machine."""
    state = PipelineState()
    outputs = []
    for frame in frames:
        state, out = advance(state, frame, cfg)
        outputs.append(out)
    if not outputs:
        raise HandposeError("session needs at least one frame")
    aggregates = {}
    for key in ("total_ms", "detect_ms", "track_ms", "segment_ms", "classify_ms"):
        samples = [o.timings[key] for o in outputs if key in o.timings]
        if samples:
            aggregates[key] = {"count": len(samples), **latency_stats(samples)}
    return SessionReport(outputs, aggregates)


def load_frame_dir(path):
    """Directory of numbered .ppm/.pgm frames, lexicographic order, as an
    iterator that decodes each frame when it is reached."""
    files = sorted(p for p in Path(path).iterdir() if p.suffix in (".ppm", ".pgm"))
    if not files:
        raise HandposeError(f"no frames under {path}")
    return (load_pnm(p.read_bytes()) for p in files)
