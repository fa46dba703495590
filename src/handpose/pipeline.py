"""Per-frame orchestration: detect with the cascade, track with MIL,
segment the tracked region, classify the 48x48 mask, smooth labels.

The state machine has exactly two modes. DETECTING runs the cascade on
the luma frame and, on a hit, derives the tracked wrist box and starts
the tracker. TRACKING advances the tracker, drops back to DETECTING when
confidence falls below its threshold or the frame cannot be
tracked or segmented (its size changed, or it is gray), and otherwise
segments around the tracked box and classifies.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import gesture_net, haar_cascade, mil_tracker, skin_segment
from .errors import ConfigLoadError, EmptyHistory, HandposeError, PatchOutOfFrame
from .imaging import Image, load_pnm, luma

DETECTING = "DETECTING"
TRACKING = "TRACKING"


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
        try:
            skin = skin_segment.SkinModel.from_text(Path(skin_path).read_text())
            net = gesture_net.load_weights(Path(weights_path).read_bytes())
            cascade = haar_cascade.parse_cascade(Path(cascade_path).read_text())
        except (OSError, ValueError, HandposeError) as exc:
            raise ConfigLoadError(str(exc)) from exc
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
        raise EmptyHistory("label history is empty")
    counts = {}
    for lbl in history:
        counts[lbl] = counts.get(lbl, 0) + 1
    top = max(counts.values())
    tied = {lbl for lbl, c in counts.items() if c == top}
    for lbl in reversed(history):
        if lbl in tied:
            return lbl
    raise AssertionError("unreachable")


def wrist_box(det_bbox, cfg: PipelineConfig, frame_w: int, frame_h: int):
    """Square tracked box derived from a detection per the config rule."""
    x, y, w, h = det_bbox
    side = max(4, int(round(cfg.wrist_size_ratio * min(w, h))))
    side = min(side, frame_w, frame_h)
    cx = x + w / 2.0
    cy = y + cfg.wrist_vertical_anchor * h
    bx = int(round(cx - side / 2.0))
    by = int(round(cy - side / 2.0))
    bx = min(max(bx, 0), frame_w - side)
    by = min(max(by, 0), frame_h - side)
    return bx, by, side, side


def advance(state: PipelineState, frame: Image, cfg: PipelineConfig):
    """Process one frame; returns (state, FrameOutput)."""
    out = FrameOutput(frame_index=state.frame_index, mode=state.mode)
    t0 = time.perf_counter()
    gray = luma(frame)

    if state.mode == DETECTING:
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
            result = mil_tracker.track_step(state.tracker, gray)
        except PatchOutOfFrame:  # the frame size changed mid-track
            result = None
        out.timings["track_ms"] = (time.perf_counter() - tt) * 1000.0
        # a resized frame, a gray frame (skin segmentation needs RGB) and a
        # low-confidence step all end the track: no hand on this frame
        if (
            result is None
            or frame.channels != 3
            or not mil_tracker.confidence_ok(result, cfg.confidence_threshold)
        ):
            state.tracker = None
            state.mode = DETECTING
        else:
            out.confidence = result.confidence
            bx, by, bw, bh = result.bbox
            # segment inside the tracked box inflated by 2x
            roi = (
                bx - bw // 2,
                by - bh // 2,
                bw * 2,
                bh * 2,
            )
            ts = time.perf_counter()
            extracted = skin_segment.extract_hand_patch(frame, cfg.skin_model, roi=roi)
            out.timings["segment_ms"] = (time.perf_counter() - ts) * 1000.0
            if extracted is not None:
                patch, comp = extracted
                tc = time.perf_counter()
                label, _ = gesture_net.classify_mask(cfg.network, patch)
                out.timings["classify_ms"] = (time.perf_counter() - tc) * 1000.0
                state.label_history.append(label)
                out.hand_bbox = comp.bbox
                out.raw_label = label
                out.smoothed_label = smooth_label(state.label_history)
            out.mode = TRACKING

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
        raise ValueError("session needs at least one frame")
    aggregates = {}
    for key in ("total_ms", "detect_ms", "track_ms", "segment_ms", "classify_ms"):
        samples = [o.timings[key] for o in outputs if key in o.timings]
        if samples:
            aggregates[key] = {"count": len(samples), **latency_stats(samples)}
    return SessionReport(outputs, aggregates)


def load_frame_dir(path) -> list:
    """Directory of numbered .ppm/.pgm frames, lexicographic order."""
    files = sorted(p for p in Path(path).iterdir() if p.suffix in (".ppm", ".pgm"))
    if not files:
        raise ConfigLoadError(f"no frames under {path}")
    return [load_pnm(p.read_bytes()) for p in files]
