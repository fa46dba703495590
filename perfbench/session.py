"""Closed-loop session runner, per-frame output check and reference files.

The loop feeds the next frame to ``pipeline.advance`` as soon as the
previous call returns, like ``handpose run`` over a frame directory, and
times each call from outside. A session is a fixed scripted sequence; the
loop replays it from a fresh state for as long as the run lasts, so the
output of frame ``i`` of the script is always the same and can be checked
against a reference recorded once from a known-good commit. Each call is
also probed for the machine's speed (see ``speed.py``).
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from handpose import pipeline

import speed

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tracker confidences are compared to this relative tolerance; every other
# field of a frame's output must match exactly.
CONFIDENCE_RTOL = 1e-9


def fresh_state(cfg) -> pipeline.PipelineState:
    return pipeline.PipelineState(label_history=deque(maxlen=cfg.smoothing_window))


def masked_output(out) -> list:
    """The checked part of a FrameOutput: everything but the timings."""
    bbox = list(out.hand_bbox) if out.hand_bbox is not None else None
    return [out.mode, bbox, out.raw_label, out.smoothed_label, out.confidence]


def outputs_match(got: list, want: list) -> bool:
    if got[:4] != want[:4]:
        return False
    if got[4] is None or want[4] is None:
        return got[4] is want[4]
    return math.isclose(got[4], want[4], rel_tol=CONFIDENCE_RTOL, abs_tol=0.0)


def box_iou(a, b) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


@dataclass
class FrameRecord:
    entry_mode: str
    exit_mode: str
    seconds: float
    norm_seconds: float  # `seconds` at the reference speed (speed.py)
    raised: bool
    mismatch: bool
    iou: float | None  # None when no hand is in view


@dataclass
class LoopResult:
    records: list = field(default_factory=list)
    script_len: int = 1

    def whole_passes(self) -> list:
        """The records of the whole passes of the script (all records if
        none is whole), so that every run weighs each kind of frame alike."""
        whole = len(self.records) - len(self.records) % self.script_len
        return self.records[: whole or None]

    def fps_norm(self) -> float:
        """Frames completed per normalized second spent in `advance`, over
        the whole passes."""
        recs = self.whole_passes()
        return sum(not r.raised for r in recs) / sum(r.norm_seconds for r in recs)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(r.raised or r.mismatch for r in self.records)


def run_loop(session, cfg, seconds, reference=None, advance=None, after_pass=None) -> LoopResult:
    """Replay `session` in a closed loop until `seconds` have elapsed.

    A frame whose `advance` raises counts as failed and the state drops
    back to DETECTING; the run goes on. With a `reference` (one masked
    output per script frame) a frame whose output differs also fails.
    `advance` defaults to ``pipeline.advance``; `after_pass()` runs after
    each full pass, outside the timed passes.
    """
    advance = advance or pipeline.advance
    n = len(session.frames)
    result = LoopResult(script_len=n)
    state = None
    i = 0
    start = time.perf_counter()
    probed = speed.probe()
    while True:
        k = i % n
        t0 = time.perf_counter()
        if k == 0:
            state = fresh_state(cfg)
        entry = state.mode
        out = None
        try:
            state, out = advance(state, session.frames[k], cfg)
        except Exception:
            t1 = time.perf_counter()
            if not any(r.raised for r in result.records):
                traceback.print_exc(file=sys.stderr)
            state.mode, state.tracker = pipeline.DETECTING, None
            state.frame_index += 1
        else:
            t1 = time.perf_counter()
        probe_before, probed = probed, speed.probe()
        truth = session.truth[k]
        iou = None
        if truth is not None:
            iou = box_iou(out.hand_bbox, truth) if out is not None and out.hand_bbox else 0.0
        mismatch = (
            out is not None
            and reference is not None
            and not outputs_match(masked_output(out), reference[k])
        )
        kind = "scan" if entry == pipeline.DETECTING else "step"
        norm = speed.normalized(t1 - t0, probe_before, probed, kind)
        record = FrameRecord(entry, state.mode, t1 - t0, norm, out is None, mismatch, iou)
        result.records.append(record)
        if k == n - 1 and after_pass is not None:
            after_pass()
        i += 1
        if time.perf_counter() - start >= seconds:
            return result


def record_outputs(session, cfg) -> list:
    """Masked outputs of one pass over the script, from a fresh state."""
    state = fresh_state(cfg)
    rows = []
    for frame in session.frames:
        state, out = pipeline.advance(state, frame, cfg)
        rows.append(masked_output(out))
    return rows


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(session, config_paths) -> list:
    """Recorded outputs for the session's variant; raises if the recorded
    inputs (frames, true boxes and the config files at `config_paths`)
    differ from the ones generated now."""
    doc = json.loads(reference_path(session.workload).read_text())
    entry = doc["variants"][str(session.variant)]
    if entry["fingerprint"] != session.fingerprint(config_paths):
        raise RuntimeError(
            f"{session.workload} variant {session.variant}: generated inputs differ from "
            "the ones the reference was recorded on"
        )
    if len(entry["outputs"]) != len(session.frames):
        raise RuntimeError(f"{session.workload}: reference length differs from the script")
    return entry["outputs"]
