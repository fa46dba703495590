import itertools
import json
import re
from collections import deque

import numpy as np
import pytest

from handpose import gesture_net, mil_tracker, pipeline, skin_segment
from handpose.errors import HandposeError
from handpose.haar_cascade import CascadeModel, Stage, Tree, TreeNode, WeightedRect
from handpose.imaging import Image, luma, save_pnm
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

from helpers import BG_COLOR, SKIN_BASE, hand_roi_oracle, smooth_label_oracle

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


def accept_all_cascade(win):
    rects = [WeightedRect(0, 0, win, win, -1.0), WeightedRect(0, 0, win, win, 2.0)]
    node = TreeNode(rects, threshold=0.0, left_val=0.0, right_val=0.0)
    return CascadeModel((win, win), [Stage(-1.0, [Tree([node])])])


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
        with pytest.raises(HandposeError, match="label history is empty"):
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


    def test_matches_counting_oracle_on_every_short_history(self):
        for n in range(1, 6):
            for history in itertools.product(range(3), repeat=n):
                want = smooth_label_oracle(history)
                assert smooth_label(list(history)) == want, history
                assert smooth_label(deque(history, maxlen=5)) == want, history


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

    def test_clamped_flush_with_the_far_edges(self):
        cfg = synthetic_config(wrist_vertical_anchor=1.0, wrist_size_ratio=1.0)
        assert wrist_box((150, 100, 40, 40), cfg, 160, 120) == (120, 80, 40, 40)


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
            luma,  # segmentation needs RGB, so the track ends untracked
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

    def test_gray_frame_skips_the_tracker(self, monkeypatch):
        cfg = synthetic_config()
        frame = scene((40, 40))
        state, _ = advance(PipelineState(), frame, cfg)
        steps = []
        track_step = mil_tracker.track_step
        monkeypatch.setattr(mil_tracker, "track_step", lambda *a: steps.append(a) or track_step(*a))
        state, out = advance(state, luma(frame), cfg)
        assert steps == []
        assert state.mode == DETECTING and state.tracker is None
        assert set(out.timings) == {"total_ms"}

    def test_gray_session_never_starts_the_tracker(self, monkeypatch):
        # the cascade would hit the gray square, but a gray frame cannot be
        # segmented, so it is never scanned and no track starts
        cfg = synthetic_config()
        calls = []
        monkeypatch.setattr(mil_tracker, "init_tracker", lambda *a, **k: calls.append("init_tracker"))
        monkeypatch.setattr(pipeline.haar_cascade, "detect_multiscale", lambda *a: calls.append("detect"))
        report = run_session([luma(scene((30 + 4 * i, 40))) for i in range(10)], cfg)
        assert calls == []
        assert [f.mode for f in report.frames] == [DETECTING] * 10
        assert all(set(f.timings) == {"total_ms"} for f in report.frames)

    @pytest.mark.parametrize("size", [(3, 3), (3, 40), (40, 3)], ids=["3x3", "3x40", "40x3"])
    def test_frame_under_min_side_never_crashes_the_session(self, size):
        # a 2x2-window cascade hits every window of these frames, and a
        # tracked box cannot be MIN_SIDE px in them, so they are not scanned
        w, h = size
        cfg = synthetic_config(cascade=accept_all_cascade(2))
        frames = [Image(np.full((h, w, 3), SKIN_BASE, dtype=np.uint8)) for _ in range(4)]
        report = run_session(frames, cfg)
        assert [f.mode for f in report.frames] == [DETECTING] * 4

    @pytest.mark.parametrize("mode", [DETECTING, TRACKING])
    @pytest.mark.parametrize(
        "frame",
        [luma(scene((40, 40))), scene((0, 0), side=3, size=(3, 40))],
        ids=["gray", "rgb-3x40"],
    )
    def test_frame_that_cannot_hold_a_hand_does_no_work(self, monkeypatch, frame, mode):
        cfg = synthetic_config(cascade=accept_all_cascade(2))
        calls = []
        for module, name in [
            (pipeline, "luma"),
            (pipeline.haar_cascade, "detect_multiscale"),
            (mil_tracker, "init_tracker"),
            (mil_tracker, "track_step"),
        ]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        state = PipelineState(mode, object() if mode == TRACKING else None, deque(maxlen=5))
        state, out = advance(state, frame, cfg)
        assert calls == []
        assert state.mode == DETECTING and state.tracker is None
        assert out.mode == mode and set(out.timings) == {"total_ms"}
        assert out.hand_bbox is None and out.raw_label is None and out.confidence is None

    def test_hand_region_matches_clamp_oracle_on_every_box(self, monkeypatch):
        # the tracker stub returns the box it was given as its state
        frame = Image(np.random.default_rng(5).integers(0, 256, size=(12, 16, 3), dtype=np.uint8))
        blob = (1, 2, 3, 4)
        regions = []
        monkeypatch.setattr(mil_tracker, "track_step", lambda box, gray: mil_tracker.TrackResult(box, 1.0))
        monkeypatch.setattr(
            skin_segment,
            "extract_hand_patch",
            lambda img, model: regions.append(img) or (None, skin_segment.ComponentInfo(1, blob)),
        )
        monkeypatch.setattr(gesture_net, "classify_mask", lambda net, patch: (0, 1.0))
        cfg = synthetic_config()
        boxes = [
            (x, y, w, h)
            for x in range(16)
            for y in range(12)
            for w in range(1, 17 - x)
            for h in range(1, 13 - y)
        ]
        assert len(boxes) == 10_608
        for x, y, w, h in boxes:
            state = PipelineState(TRACKING, (x, y, w, h), deque(maxlen=cfg.smoothing_window))
            _, out = advance(state, frame, cfg)
            want, (ox, oy) = hand_roi_oracle(frame, (x - w // 2, y - h // 2, 2 * w, 2 * h))
            got = regions.pop()
            assert got.pixels.shape == want.pixels.shape, (x, y, w, h)
            assert got.pixels.tobytes() == want.pixels.tobytes(), (x, y, w, h)
            assert out.hand_bbox == (blob[0] + ox, blob[1] + oy, blob[2], blob[3]), (x, y, w, h)

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
        skin = tmp_path / "skin.txt"
        with pytest.raises(FileNotFoundError, match=re.escape(str(skin))):
            PipelineConfig.load(skin, tmp_path / "w.hgw", tmp_path / "c.xml")

    def test_garbage_weights_raise_config_error(self, tmp_path):
        skin = tmp_path / "skin.txt"
        skin.write_text(flat_skin_model().to_text())
        weights = tmp_path / "w.hgw"
        weights.write_bytes(b"not a weight file")
        cascade = tmp_path / "c.xml"
        cascade.write_text("<cascade><size>20 20</size><stages></stages></cascade>")
        with pytest.raises(HandposeError, match="bad magic"):
            PipelineConfig.load(skin, weights, cascade)


class TestLoadFrameDir:
    def test_decodes_each_frame_when_reached(self, monkeypatch, tmp_path):
        for i in range(3):
            tmp_path.joinpath(f"frame_{i}.ppm").write_bytes(save_pnm(scene((40 + i, 40))))
        decoded = []
        load_pnm = pipeline.load_pnm
        monkeypatch.setattr(pipeline, "load_pnm", lambda data: decoded.append(data) or load_pnm(data))
        frames = pipeline.load_frame_dir(tmp_path)
        assert decoded == []
        assert next(frames).pixels.tobytes() == scene((40, 40)).pixels.tobytes()
        assert len(decoded) == 1
        assert [f.pixels.tobytes() for f in frames] == [scene((x, 40)).pixels.tobytes() for x in (41, 42)]
        assert len(decoded) == 3

    def test_empty_directory_raises_at_once(self, tmp_path):
        tmp_path.joinpath("notes.txt").write_text("no frames here")
        with pytest.raises(HandposeError, match="no frames under"):
            pipeline.load_frame_dir(tmp_path)
