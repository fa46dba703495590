"""Spans around the public functions of each layer, and the per-layer
metrics computed from them.

Timing wrappers are swapped onto module attributes in the namespace each
consumer looks the function up in (``pipeline.luma``,
``haar_cascade.integral_image``, ``skin_segment.classify_pixels`` ...) and
onto the ``forward`` of each layer instance of the classifier network. They
exist only while a ``Tracer`` is installed; the untraced run has none.
Spans (name, start, end, parent, frame index, counts) stay in memory and
are written out when the run ends.

Work counts that an optimisation must not be able to redefine come from
geometry, not from the library's internals: windows scanned from frame
size, cascade window, scale factor and step fraction; tracker candidates
from the search disc clipped to the frame.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

from handpose import gesture_net, haar_cascade, imaging, mil_tracker, pipeline, skin_segment


# ---------------------------------------------------------------- geometry


def windows_scanned(frame_w, frame_h, window, scale_factor, step_fraction) -> int:
    """Windows `detect_multiscale` evaluates on a frame_w x frame_h frame:
    every scale window * scale_factor**k that fits, at stride
    max(1, round(step_fraction * scale)) in x and y."""
    w0, h0 = window
    total = 0
    scale = 1.0
    while True:
        ww, wh = int(round(w0 * scale)), int(round(h0 * scale))
        if ww > frame_w or wh > frame_h:
            return total
        stride = max(1, int(round(step_fraction * scale)))
        total += len(range(0, frame_h - wh + 1, stride)) * len(range(0, frame_w - ww + 1, stride))
        scale *= scale_factor


def candidates_scored(bbox, frame_size, radius) -> int:
    """Integer offsets within `radius` of the box's corner whose shifted
    box stays inside the frame."""
    x, y, w, h = bbox
    fw, fh = frame_size
    r = int(np.floor(radius))
    dy, dx = np.mgrid[-r : r + 1, -r : r + 1]
    inside = (
        (dy**2 + dx**2 <= radius**2)
        & (x + dx >= 0)
        & (y + dy >= 0)
        & (x + dx + w <= fw)
        & (y + dy + h <= fh)
    )
    return int(inside.sum())


# ------------------------------------------------------------------ spans


class Span:
    __slots__ = ("name", "start", "end", "parent", "frame", "counts")

    def __init__(self, name, start, parent, frame):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.frame = frame
        self.counts = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


# Layer instance index in gesture_net.build_network -> span name.
NETWORK_LAYER_NAMES = {
    0: "tensor_nn.conv1",
    1: "tensor_nn.relu",
    2: "tensor_nn.pool1",
    3: "tensor_nn.conv2",
    4: "tensor_nn.relu",
    5: "tensor_nn.pool2",
    6: "tensor_nn.flatten",
    7: "tensor_nn.dense1",
    8: "tensor_nn.relu",
    9: "tensor_nn.dense2",
    10: "tensor_nn.relu",
    11: "tensor_nn.dense3",
}


def _detect_counts(args, kwargs, result):
    model, gray = args[0], args[1]
    return {
        "windows": windows_scanned(
            gray.width,
            gray.height,
            model.window,
            kwargs.get("scale_factor", 1.1),
            kwargs.get("step_fraction", 1.0),
        ),
        "raw_hits": sum(d.neighbors for d in result),
    }


class Tracer:
    """Collects spans; `install()` swaps the wrappers in, `uninstall()`
    puts the original functions back."""

    def __init__(self):
        self.spans = []
        self.frame = -1
        self._stack = []
        self._saved = []

    # -- span bookkeeping
    def _open(self, name) -> Span:
        span = Span(name, 0.0, self._stack[-1] if self._stack else None, self.frame)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, pre=None, post=None):
        """Time `fn` as span `name`; `pre(args, kwargs)` and
        `post(args, kwargs, result)` return counts to attach."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = pre(args, kwargs) if pre else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if post:
                counts = {**(counts or {}), **post(args, kwargs, result)}
            span.counts = counts
            return result

        return traced

    def advance(self, state, frame, cfg):
        """`pipeline.advance` inside a span; each call is one frame."""
        self.frame += 1
        span = self._open("pipeline.advance")
        try:
            return pipeline.advance(state, frame, cfg)
        finally:
            self._close(span)

    # -- installation
    def _swap(self, owner, attr, name, pre=None, post=None):
        had = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, had))
        setattr(owner, attr, self.wrap(name, original, pre, post))

    def install(self):
        s = self._swap
        s(pipeline, "luma", "imaging.luma")
        s(imaging, "rgb_to_ycbcr", "imaging.rgb_to_ycbcr")
        s(skin_segment, "rgb_to_ycbcr", "imaging.rgb_to_ycbcr")
        s(haar_cascade, "integral_image", "imaging.integral_image")
        s(mil_tracker, "integral_image", "imaging.integral_image")
        s(haar_cascade, "parse_cascade", "haar_cascade.parse_cascade")
        s(haar_cascade, "detect_multiscale", "haar_cascade.detect_multiscale", post=_detect_counts)
        s(mil_tracker, "init_tracker", "mil_tracker.init_tracker")
        s(
            mil_tracker,
            "track_step",
            "mil_tracker.track_step",
            pre=lambda a, k: {
                "candidates": candidates_scored(
                    a[0].bbox, a[0].frame_size, a[0].params.search_radius
                )
            },
        )
        s(
            skin_segment,
            "extract_hand_patch",
            "skin_segment.extract_hand_patch",
            post=lambda a, k, r: {"found": r is not None},
        )
        s(
            skin_segment,
            "classify_pixels",
            "skin_segment.classify_pixels",
            post=lambda a, k, r: {"px": r.bits.size, "skin": int(r.bits.sum())},
        )
        s(skin_segment, "open_mask", "skin_segment.morphology")
        s(skin_segment, "close_mask", "skin_segment.morphology")
        s(
            skin_segment,
            "label_components",
            "skin_segment.label_components",
            post=lambda a, k, r: {"components": len(r[1])},
        )
        s(gesture_net, "classify_mask", "gesture_net.classify_mask")
        s(gesture_net, "load_weights", "gesture_net.load_weights")

    def install_network(self, net):
        for i, layer in enumerate(net.layers):
            self._swap(layer, "forward", NETWORK_LAYER_NAMES[i])

    def uninstall(self):
        while self._saved:
            owner, attr, original, had = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path):
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": sp.name,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": sp.parent,
                    "frame": sp.frame,
                }
                if sp.counts:
                    row["counts"] = sp.counts
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------- metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, frames: int, steps_dropped: int, mode_switches: int):
    """{name: (value, unit, samples)} from the spans of one traced run.

    Times are medians per call in ms; counts are means per call unless the
    name says otherwise. A layer that never ran reports 0 with 0 samples.
    """
    spans = tracer.spans
    by_name = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)

    def ms(name):
        return [spans[i].ms for i in by_name.get(name, [])]

    def counts(name, key):
        return [spans[i].counts[key] for i in by_name.get(name, [])]

    def child_ms_by_parent(child, parent):
        """Per `parent` span, total ms of its direct `child` spans."""
        totals = {i: 0.0 for i in by_name.get(parent, [])}
        for i in by_name.get(child, []):
            if spans[i].parent in totals:
                totals[spans[i].parent] += spans[i].ms
        return list(totals.values())

    child_ms = {}
    for sp in spans:
        if sp.parent is not None:
            child_ms[sp.parent] = child_ms.get(sp.parent, 0.0) + sp.ms
    advance_self = [spans[i].ms - child_ms.get(i, 0.0) for i in by_name.get("pipeline.advance", [])]

    detects = [spans[i] for i in by_name.get("haar_cascade.detect_multiscale", [])]
    windows = [sp.counts["windows"] for sp in detects]
    hits = [sp.counts["raw_hits"] for sp in detects]
    miss_us = [sp.ms * 1000.0 / sp.counts["windows"] for sp in detects if sp.counts["raw_hits"] == 0]
    steps = len(by_name.get("mil_tracker.track_step", []))
    inits = len(by_name.get("mil_tracker.init_tracker", []))
    px = counts("skin_segment.classify_pixels", "px")
    skin = counts("skin_segment.classify_pixels", "skin")
    found = counts("skin_segment.extract_hand_patch", "found")
    morphology = child_ms_by_parent("skin_segment.morphology", "skin_segment.extract_hand_patch")
    relu = child_ms_by_parent("tensor_nn.relu", "gesture_net.classify_mask")

    m = {}

    def put(name, unit, value, n):
        m[name] = (value, unit, n)

    def put_ms(name, samples):
        put(name, "ms", _median(samples), len(samples))

    put_ms("imaging.luma_ms", ms("imaging.luma"))
    put_ms("imaging.integral_image_ms", ms("imaging.integral_image"))
    put(
        "imaging.integral_image_calls_per_frame",
        "count/frame",
        _ratio(len(by_name.get("imaging.integral_image", [])), frames),
        frames,
    )
    put(
        "imaging.rgb_to_ycbcr_calls_per_frame",
        "count/frame",
        _ratio(len(by_name.get("imaging.rgb_to_ycbcr", [])), frames),
        frames,
    )
    put_ms("haar_cascade.detect_ms", [sp.ms for sp in detects])
    put("haar_cascade.windows_scanned", "count", _mean(windows), len(windows))
    put("haar_cascade.us_per_window", "us", _median(miss_us), len(miss_us))
    put("haar_cascade.raw_hits", "count", _mean(hits), len(hits))
    put("haar_cascade.hit_ratio", "ratio", _ratio(sum(hits), sum(windows)), len(detects))
    put_ms("haar_cascade.parse_cascade_ms", ms("haar_cascade.parse_cascade"))
    put_ms("mil_tracker.track_step_ms", ms("mil_tracker.track_step"))
    put_ms("mil_tracker.init_tracker_ms", ms("mil_tracker.init_tracker"))
    candidates = counts("mil_tracker.track_step", "candidates")
    put("mil_tracker.candidates_per_step", "count", _mean(candidates), len(candidates))
    put("mil_tracker.steps", "count", steps, steps)
    put("mil_tracker.inits", "count", inits, inits)
    put("mil_tracker.drops", "count", steps_dropped, steps)
    put("mil_tracker.kept_ratio", "ratio", _ratio(steps - steps_dropped, steps), steps)
    put_ms("skin_segment.extract_ms", ms("skin_segment.extract_hand_patch"))
    put_ms("skin_segment.classify_pixels_ms", ms("skin_segment.classify_pixels"))
    put_ms("skin_segment.morphology_ms", morphology)
    put_ms("skin_segment.label_components_ms", ms("skin_segment.label_components"))
    put("skin_segment.roi_px", "px", _mean(px), len(px))
    put("skin_segment.skin_frac", "ratio", _ratio(sum(skin), sum(px)), len(px))
    components = counts("skin_segment.label_components", "components")
    put("skin_segment.components", "count", _mean(components), len(components))
    put("skin_segment.patch_found_ratio", "ratio", _ratio(sum(found), len(found)), len(found))
    put_ms("gesture_net.classify_mask_ms", ms("gesture_net.classify_mask"))
    put_ms("gesture_net.load_weights_ms", ms("gesture_net.load_weights"))
    for layer in ("conv1", "pool1", "conv2", "pool2", "dense1", "dense2", "dense3"):
        put_ms(f"tensor_nn.{layer}_ms", ms(f"tensor_nn.{layer}"))
    put_ms("tensor_nn.relu_ms", relu)
    put_ms("pipeline.advance_self_ms", advance_self)
    put("pipeline.mode_switches", "count", mode_switches, frames)
    return m
