import json
from collections import deque

import numpy as np
import pytest

from handpose import gesture_net, mil_tracker, pipeline, skin_segment
from handpose.errors import ConfigLoadError, EmptyHistory
from handpose.haar_cascade import CascadeModel, Stage, Tree, TreeNode, WeightedRect
from handpose.imaging import Image, luma
from handpose.pipeline import (
    DETECTING,
    TRACKING,
    FrameOutput,
    PipelineConfig,
    PipelineState,
    advance,
    run_session,
    smooth_label,
    wrist_box,
)

from helpers import BG_COLOR, SKIN_BASE

WIN = 24


def brightness_cascade(threshold=110.0, win=WIN):
    """Accepts windows whose variance-normalized mean exceeds `threshold`.

    Flat bright regions pass (sigma clamps to 1), flat dark regions fail,
    and windows straddling an edge fail because sigma blows up.
    """
    node = TreeNode(
        [WeightedRect(0, 0, win, win, -1.0), WeightedRect(0, 0, win, win, 2.0)],
        threshold=threshold,
        left_val=-1.0,
        right_val=1.0,
    )
    return CascadeModel((win, win), [Stage(0.5, [Tree([node])])])


def reject_all_cascade(win=WIN):
    node = TreeNode(
        [WeightedRect(0, 0, win, win, -1.0), WeightedRect(0, 0, win, win, 2.0)],
        threshold=0.0,
        left_val=-1.0,
        right_val=-1.0,
    )
    return CascadeModel((win, win), [Stage(0.5, [Tree([node])])])


def zero_network():
    net = gesture_net.build_network(seed=0)
    for layer in net.params():
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    return net


def flat_skin_model():
    base = np.asarray(SKIN_BASE, dtype=np.int64)
    jitter = np.array([[dr, dg, db] for dr in (-5, 0, 5) for dg in (-5, 0, 5) for db in (-5, 0, 5)])
    return skin_segment.fit_skin_model((base + jitter).astype(np.uint8), alpha=0.0)


def scene(square_xy, side=30, size=(160, 120)):
    frame = np.empty((size[1], size[0], 3), dtype=np.uint8)
    frame[:, :] = BG_COLOR
    x, y = square_xy
    frame[y : y + side, x : x + side] = SKIN_BASE
    return Image(frame)


def synthetic_config(**overrides):
    kwargs = dict(
        skin_model=flat_skin_model(),
        network=zero_network(),
        cascade=brightness_cascade(),
        wrist_vertical_anchor=0.5,
        wrist_size_ratio=1.0,
        seed=7,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


class TestSmoothLabel:
    def test_single(self):
        assert smooth_label([3]) == 3

    def test_majority(self):
        assert smooth_label([1, 1, 2]) == 1

    def test_tie_most_recent(self):
        assert smooth_label([1, 2, 1, 2]) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyHistory):
            smooth_label([])

    def test_single_outlier_does_not_flip(self):
        history = deque([4, 4, 4, 4], maxlen=5)
        history.append(7)
        assert smooth_label(history) == 4

    def test_sustained_switch_flips_once(self):
        history = deque(maxlen=5)
        smoothed = []
        for lbl in [4] * 5 + [7] * 5:
            history.append(lbl)
            smoothed.append(smooth_label(history))
        changes = sum(a != b for a, b in zip(smoothed, smoothed[1:]))
        assert changes == 1
        assert smoothed[-1] == 7


class TestWristBox:
    def test_centered_anchor(self):
        cfg = synthetic_config(wrist_vertical_anchor=0.5, wrist_size_ratio=0.5)
        bx, by, bw, bh = wrist_box((40, 20, 40, 40), cfg, 160, 120)
        assert (bw, bh) == (20, 20)
        assert (bx + bw / 2, by + bh / 2) == (60, 40)

    def test_bottom_anchor(self):
        cfg = synthetic_config(wrist_vertical_anchor=1.0, wrist_size_ratio=0.5)
        bx, by, bw, bh = wrist_box((40, 20, 40, 40), cfg, 160, 120)
        assert by + bh / 2 == 60

    def test_clamped_to_frame(self):
        cfg = synthetic_config(wrist_vertical_anchor=1.0, wrist_size_ratio=1.0)
        bx, by, bw, bh = wrist_box((120, 80, 40, 40), cfg, 160, 120)
        assert bx >= 0 and by >= 0
        assert bx + bw <= 160 and by + bh <= 120


class TestAdvance:
    def test_no_detection_stays_detecting(self):
        cfg = synthetic_config(cascade=reject_all_cascade())
        state, out = advance(PipelineState(), scene((40, 40)), cfg)
        assert state.mode == DETECTING
        assert state.tracker is None
        assert out.raw_label is None and out.smoothed_label is None
        assert "detect_ms" in out.timings and "total_ms" in out.timings

    def test_detection_starts_tracking(self):
        cfg = synthetic_config()
        state, out = advance(PipelineState(), scene((40, 40)), cfg)
        assert state.mode == TRACKING
        assert state.tracker is not None
        assert out.mode == DETECTING  # mode the frame was processed in

    def test_low_confidence_drops_to_detecting(self, monkeypatch):
        monkeypatch.setattr(PipelineConfig, "confidence_threshold", 1e9)
        cfg = synthetic_config()
        frame = scene((40, 40))
        state, _ = advance(PipelineState(), frame, cfg)
        assert state.mode == TRACKING
        state, out = advance(state, frame, cfg)
        assert state.mode == DETECTING
        assert state.tracker is None
        assert out.raw_label is None

    @pytest.mark.parametrize(
        "bad_frame",
        [
            luma,  # tracks as well as the RGB frame, but segmentation needs RGB
            lambda f: Image(f.pixels[:, :-8]),  # resized: the tracker's box is off frame
        ],
        ids=["gray", "resized"],
    )
    def test_untrackable_frame_drops_to_detecting(self, bad_frame):
        cfg = synthetic_config()
        frame = scene((40, 40))
        state, _ = advance(PipelineState(), frame, cfg)
        assert state.mode == TRACKING
        state, out = advance(state, bad_frame(frame), cfg)
        assert state.mode == DETECTING
        assert state.tracker is None
        assert out.mode == TRACKING
        assert out.hand_bbox is None and out.raw_label is None and out.confidence is None
        state, out = advance(state, frame, cfg)
        assert out.mode == DETECTING and state.mode == TRACKING

    def test_tracking_emits_labels_and_timings(self):
        cfg = synthetic_config()
        frame = scene((40, 40))
        state, _ = advance(PipelineState(), frame, cfg)
        state, out = advance(state, frame, cfg)
        assert state.mode == TRACKING
        assert out.raw_label == 0
        assert out.smoothed_label == 0
        assert out.hand_bbox is not None
        for key in ("track_ms", "segment_ms", "classify_ms", "total_ms"):
            assert key in out.timings
        slack = 1.0
        stages = out.timings["track_ms"] + out.timings["segment_ms"] + out.timings["classify_ms"]
        assert out.timings["total_ms"] >= stages - slack


class TestSyntheticSession:
    def frames(self, n=20, start=(30, 40), step=(2, 0)):
        seq, centers = [], []
        x, y = start
        for _ in range(n):
            seq.append(scene((x, y)))
            centers.append((x + 15, y + 15))
            x += step[0]
            y += step[1]
        return seq, centers

    def test_square_followed_and_labeled(self):
        cfg = synthetic_config()
        frames, centers = self.frames()
        report = run_session(frames, cfg)
        assert len(report.frames) == len(frames)
        assert report.frames[0].mode == DETECTING
        tracked = [f for f in report.frames if f.raw_label is not None]
        assert len(tracked) >= len(frames) - 2
        for out in tracked:
            assert out.raw_label == 0
            assert out.smoothed_label == 0
            x0, y0, bw, bh = out.hand_bbox
            cx, cy = x0 + bw / 2, y0 + bh / 2
            tx, ty = centers[out.frame_index]
            assert np.hypot(cx - tx, cy - ty) <= 5.0

    def test_mode_transitions_legal(self):
        cfg = synthetic_config()
        frames, _ = self.frames()
        report = run_session(frames, cfg)
        modes = [f.mode for f in report.frames]
        for prev, cur in zip(modes, modes[1:]):
            assert (prev, cur) in {
                (DETECTING, DETECTING),
                (DETECTING, TRACKING),
                (TRACKING, TRACKING),
                (TRACKING, DETECTING),
            }
        labelled_modes = {f.mode for f in report.frames if f.raw_label is not None}
        assert labelled_modes <= {TRACKING}

    def test_deterministic_modulo_timings(self):
        cfg = synthetic_config()
        frames, _ = self.frames(n=10)

        def stripped():
            report = run_session(frames, cfg)
            payload = report.to_dict()
            for f in payload["frames"]:
                f.pop("timings")
            payload.pop("aggregates")
            return payload

        assert stripped() == stripped()

    def test_single_frame_session(self):
        cfg = synthetic_config()
        report = run_session([scene((40, 40))], cfg)
        assert len(report.frames) == 1
        assert "total_ms" in report.aggregates

    def test_aggregate_stats_ordered(self):
        cfg = synthetic_config()
        frames, _ = self.frames(n=12)
        report = run_session(frames, cfg)
        for block in report.aggregates.values():
            assert block["min"] <= block["p50"] <= block["p95"] <= block["max"]
            assert block["min"] <= block["mean"] <= block["max"]

    def test_report_json_round_trip(self):
        cfg = synthetic_config()
        report = run_session([scene((40, 40))], cfg)
        payload = json.loads(report.to_json())
        assert payload["frames"][0]["frame_index"] == 0
        assert set(payload) == {"frames", "aggregates"}


class TestConfigLoad:
    def test_missing_files_raise_config_error(self, tmp_path):
        with pytest.raises(ConfigLoadError):
            PipelineConfig.load(
                tmp_path / "skin.txt", tmp_path / "w.hgw", tmp_path / "c.xml"
            )

    def test_garbage_weights_raise_config_error(self, tmp_path):
        skin = tmp_path / "skin.txt"
        skin.write_text(flat_skin_model().to_text())
        weights = tmp_path / "w.hgw"
        weights.write_bytes(b"not a weight file")
        cascade = tmp_path / "c.xml"
        cascade.write_text("<cascade><size>20 20</size><stages></stages></cascade>")
        with pytest.raises(ConfigLoadError):
            PipelineConfig.load(skin, weights, cascade)
