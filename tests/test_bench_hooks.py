"""The benchmark under `perfbench/` reaches into the library by name: its
tracer swaps timing wrappers onto module attributes and network layers,
and `check_geometry.py` counts the calls of `haar_cascade.evaluate_window`
and `mil_tracker._feature_values`. A rename there must fail here, not only
in a traced benchmark run."""

import inspect
import json
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from handpose import gesture_net, haar_cascade, mil_tracker, pipeline, rand
from handpose.haar_cascade import CascadeModel, Stage, Tree, TreeNode, WeightedRect
from handpose.imaging import Image

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

with mock.patch.dict(os.environ):  # check_geometry pins BLAS threads on import
    import check_geometry  # noqa: E402
import scenes  # noqa: E402
import session as sess  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_install_uninstall_restores_every_hook():
    net = gesture_net.build_network(seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.install_network(net)
    saved = list(tracer._saved)
    try:
        assert len(saved) > len(net.layers)
        for owner, attr, original, _ in saved:
            assert getattr(owner, attr) != original, attr
    finally:
        tracer.uninstall()
    # a layer's `forward` is a new bound method on each lookup: `==` compares
    # the function and the instance, `is` would compare the method objects
    for owner, attr, original, had in saved:
        assert (attr in vars(owner)) == had, attr
        assert getattr(owner, attr) == original, attr


def test_traced_session_fills_every_span_and_metric(tmp_path):
    """A short traced session runs every wrapper's `pre` and `post`
    counts on real return values, as the traced benchmark run does: the
    first 10 frames of reacquire variant 0 hold 2 cascade hits and
    TRACKING frames with hand patches."""
    tracer = tracing.Tracer()
    names = {"pipeline.advance"}
    wrap = tracer.wrap
    tracer.wrap = lambda name, *a: names.add(name) or wrap(name, *a)
    tracer.install()
    try:
        cfg = pipeline.PipelineConfig.load(*scenes.write_config_files(tmp_path, 0), **scenes.CONFIG_KWARGS)
        tracer.install_network(cfg.network)
        state = sess.fresh_state(cfg)
        modes = []
        for frame in scenes.reacquire_session(0).frames[:10]:
            state, out = tracer.advance(state, frame, cfg)
            modes.append(out.mode)
    finally:
        tracer.uninstall()
    assert "TRACKING" in modes
    assert {sp.name for sp in tracer.spans} == names
    metrics = tracing.per_layer_metrics(tracer, len(modes), 0, 0)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(metrics) == {"trace_overhead_frac"}  # run.py adds it from two runs
    assert all(n > 0 for name, (_, _, n) in metrics.items() if name.startswith("skin_segment."))


def test_geometry_counts_match_wrapped_calls():
    # check_geometry reads the locations as _feature_values' third argument
    assert list(inspect.signature(mil_tracker._feature_values).parameters)[2] == "locs"
    got, want = check_geometry.check_windows(40, 30)
    assert got == want > 0
    got, want = check_geometry.check_candidates((130, 5, 30, 30), (160, 120))
    assert got == want > 0


def _stump_cascade(win_w, win_h):
    rects = [WeightedRect(0, 0, win_w, win_h, -1.0), WeightedRect(0, 0, 1, 1, 1.0)]
    node = TreeNode(rects, 0.0, left_val=0.0, right_val=1.0)
    return CascadeModel((win_w, win_h), [Stage(0.5, [Tree([node])])])


def _scan_cases():
    yield scenes.brightness_cascade(), 160, 120, 1.1, 1.0
    yield scenes.brightness_cascade(), 320, 240, 1.1, 1.0
    rng = rand.generator(13, 0)
    for _ in range(12):
        win_w, win_h = int(rng.integers(4, 16)), int(rng.integers(4, 16))
        width, height = int(rng.integers(win_w, 90)), int(rng.integers(win_h, 70))
        yield _stump_cascade(win_w, win_h), width, height, float(rng.uniform(1.05, 1.25)), float(rng.uniform(1.0, 2.0))


@pytest.mark.parametrize("case", list(_scan_cases()), ids=lambda c: f"{c[1]}x{c[2]}-win{c[0].window}")
def test_scan_scale_grids_sum_to_windows_scanned(monkeypatch, case):
    """The per-scale seam a benchmark can count instead of evaluate_window:
    the stride grids of the _scan_scale calls add up to the geometry
    formula and to the evaluate_window calls."""
    model, width, height, scale_factor, step_fraction = case
    grid, calls = [0], [0]
    scan_scale, evaluate = haar_cascade._scan_scale, haar_cascade.evaluate_window

    def counted_scan(model, integral, scale, ww, wh, stride):
        H, W = (n - 1 for n in integral.sum.shape)
        grid[0] += len(range(0, H - wh + 1, stride)) * len(range(0, W - ww + 1, stride))
        return scan_scale(model, integral, scale, ww, wh, stride)

    def counted_evaluate(scan, base):
        calls[0] += 1
        return evaluate(scan, base)

    monkeypatch.setattr(haar_cascade, "_scan_scale", counted_scan)
    monkeypatch.setattr(haar_cascade, "evaluate_window", counted_evaluate)
    gray = Image(np.random.default_rng(0).integers(0, 256, size=(height, width), dtype=np.uint8))
    haar_cascade.detect_multiscale(model, gray, scale_factor=scale_factor, step_fraction=step_fraction)
    want = tracing.windows_scanned(width, height, model.window, scale_factor, step_fraction)
    assert grid[0] == calls[0] == want > 0


def test_evaluate_window_reads_one_band_at_a_time(monkeypatch):
    """At scale 1 of a 1280x960 frame the bench cascade's grid is 1,257 x
    937 = 1,177,809 windows; every evaluate_window call reads the verdict
    of one band, at most max(SCAN_BLOCK, nx) entries, and the calls still
    add up to the geometry formula."""
    model, width, height = scenes.brightness_cascade(), 1280, 960
    scan_scale, evaluate = haar_cascade._scan_scale, haar_cascade.evaluate_window
    bound, calls, sizes, last = [0], [0], [], [None]

    def counted_scan(model, integral, scale, ww, wh, stride):
        bound[0] = max(haar_cascade.SCAN_BLOCK, len(range(0, width - ww + 1, stride)))
        return scan_scale(model, integral, scale, ww, wh, stride)

    def counted_evaluate(scan, k):
        calls[0] += 1
        if scan is not last[0]:  # the first call that reads this verdict
            last[0] = scan
            sizes.append((len(scan), bound[0]))
        return evaluate(scan, k)

    monkeypatch.setattr(haar_cascade, "_scan_scale", counted_scan)
    monkeypatch.setattr(haar_cascade, "evaluate_window", counted_evaluate)
    gray = Image(np.random.default_rng(0).integers(0, 256, size=(height, width), dtype=np.uint8))
    haar_cascade.detect_multiscale(model, gray)
    assert all(n <= most for n, most in sizes)
    assert calls[0] == tracing.windows_scanned(width, height, model.window, 1.1, 1.0)
