import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from handpose import haar_cascade, rand
from handpose.errors import HandposeError, ImageTooSmall, RectOutOfWindow, SchemaViolation
from handpose.haar_cascade import (
    CascadeModel,
    Stage,
    Tree,
    TreeNode,
    WeightedRect,
    _scaled_rect,
    detect_multiscale,
    parse_cascade,
    serialize_cascade,
)
from handpose.imaging import Image, IntegralTable, integral_image, luma

from helpers import (
    detect_multiscale_oracle,
    evaluate_at,
    evaluate_window_oracle,
    feature_value_oracle,
    group_detections_oracle,
    inv_norm_oracle,
    raw_hits_oracle,
    rect_sqsum,
    stage_total_oracle,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import scenes  # noqa: E402

MINIMAL_XML = """
<cascade>
  <size>20 20</size>
  <stages>
    <stage>
      <stage_threshold>0.5</stage_threshold>
      <trees>
        <tree>
          <node>
            <feature><rects>
              <rect>0 0 10 20 -1.0</rect>
              <rect>10 0 10 20 2.0</rect>
            </rects></feature>
            <node_threshold>0.25</node_threshold>
            <left_val>-1.0</left_val>
            <right_val>1.0</right_val>
          </node>
        </tree>
      </trees>
    </stage>
  </stages>
</cascade>
"""


def pass_all_cascade(win=24):
    """Single stump whose stage threshold is far below any tree output."""
    node = TreeNode(
        [WeightedRect(0, 0, win, win, -1.0), WeightedRect(0, 0, win // 2, win, 2.0)],
        threshold=0.0,
        left_val=1.0,
        right_val=1.0,
    )
    return CascadeModel((win, win), [Stage(0.5, [Tree([node])])])


def reject_all_cascade(win=24):
    node = TreeNode(
        [WeightedRect(0, 0, win, win, -1.0), WeightedRect(0, 0, win // 2, win, 2.0)],
        threshold=0.0,
        left_val=-1.0,
        right_val=-1.0,
    )
    return CascadeModel((win, win), [Stage(0.5, [Tree([node])])])


class TestParse:
    def test_minimal_document(self):
        model = parse_cascade(MINIMAL_XML)
        assert model.window == (20, 20)
        assert len(model.stages) == 1
        stage = model.stages[0]
        assert stage.threshold == 0.5
        assert len(stage.trees) == 1
        node = stage.trees[0].nodes[0]
        assert node.threshold == 0.25
        assert node.left_val == -1.0 and node.right_val == 1.0
        assert [(r.x, r.y, r.w, r.h, r.weight) for r in node.rects] == [
            (0, 0, 10, 20, -1.0),
            (10, 0, 10, 20, 2.0),
        ]

    def test_rect_out_of_window_names_location(self):
        doc = MINIMAL_XML.replace("<rect>10 0 10 20 2.0</rect>", "<rect>15 0 10 20 2.0</rect>")
        with pytest.raises(RectOutOfWindow, match="stage 0 tree 0"):
            parse_cascade(doc)

    def test_round_trip_fixpoint(self):
        first = parse_cascade(MINIMAL_XML)
        second = parse_cascade(serialize_cascade(first))
        assert serialize_cascade(first) == serialize_cascade(second)
        assert second.window == first.window
        assert second.stages == first.stages

    def test_unknown_element_rejected(self):
        doc = MINIMAL_XML.replace("<size>20 20</size>", "<size>20 20</size><extra>1</extra>")
        with pytest.raises(SchemaViolation):
            parse_cascade(doc)

    def test_xml_syntax_error(self):
        with pytest.raises(HandposeError, match="no element found"):
            parse_cascade("<cascade><size>20 20")

    @pytest.mark.parametrize(
        "mutation",
        [
            # missing threshold
            ("<stage_threshold>0.5</stage_threshold>", "", "exactly one <stage_threshold>"),
            # missing node threshold
            ("<node_threshold>0.25</node_threshold>", "", "exactly one <node_threshold>"),
            # missing left branch
            ("<left_val>-1.0</left_val>", "", "exactly one left_val or left_node"),
            # child out of range
            ("<left_val>-1.0</left_val>", "<left_node>5</left_node>", "child index 5 not in"),
            # single rect
            ("<rect>0 0 10 20 -1.0</rect>", "", "at least 2 rects"),
            # no positive weight
            ("<rect>10 0 10 20 2.0</rect>", "<rect>10 0 10 20 -2.0</rect>", "positive and negative"),
            # malformed size
            ("<size>20 20</size>", "<size>20</size>", "<size> needs 'W H'"),
            # renamed required node (also breaks </trees>)
            ("<trees>", "<branches>", "mismatched tag"),
        ],
    )
    def test_schema_mutations_rejected(self, mutation):
        old, new, match = mutation
        doc = MINIMAL_XML.replace(old, new)
        with pytest.raises(HandposeError, match=re.escape(match)):
            parse_cascade(doc)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize(
        "field",
        [
            "<stage_threshold>{}</stage_threshold>",
            "<node_threshold>{}</node_threshold>",
            "<left_val>{}</left_val>",
            "<right_val>{}</right_val>",
            "<rect>10 0 10 20 {}</rect>",
        ],
        ids=["stage-threshold", "node-threshold", "left-val", "right-val", "rect-weight"],
    )
    def test_non_finite_number_rejected(self, field, value):
        # a stage threshold of nan or -inf would pass every window
        old = field.format(re.search(field.format("(.*?)"), MINIMAL_XML).group(1))
        doc = MINIMAL_XML.replace(old, field.format(value))
        assert doc != MINIMAL_XML
        with pytest.raises(SchemaViolation, match="not finite"):
            parse_cascade(doc)


def _depth_two_tree(rng, win):
    """Root splits to two stumps; leaves -2, -1 (left) and 1, 2 (right)
    tell the four routes apart. Integer weights and zero thresholds make
    each split the exact sign of an integer pixel-sum difference."""

    def node(**branches):
        # two equal-size rects, so the split is a coin flip on random pixels
        w, h = int(rng.integers(1, win + 1)), int(rng.integers(1, win + 1))
        rects = [
            WeightedRect(int(rng.integers(0, win - w + 1)), int(rng.integers(0, win - h + 1)), w, h, wt)
            for wt in (-1.0, 1.0)
        ]
        return TreeNode(rects, threshold=0.0, **branches)

    return Tree(
        [
            node(left_child=1, right_child=2),
            node(left_val=-2.0, right_val=-1.0),
            node(left_val=1.0, right_val=2.0),
        ]
    )


def _brute_tree_value(tree, px, x, y, scale):
    """Walk the tree on raw pixel sums; `scale` is an integer here, so
    every rect scales exactly."""
    idx = 0
    while True:
        node = tree.nodes[idx]
        f = 0
        for r in node.rects:
            x0, y0 = x + r.x * scale, y + r.y * scale
            f += int(r.weight) * int(px[y0 : y0 + r.h * scale, x0 : x0 + r.w * scale].sum())
        side = "left" if f < 0 else "right"
        val = getattr(node, f"{side}_val")
        if val is not None:
            return val
        idx = getattr(node, f"{side}_child")


class TestDepthTwoTrees:
    def test_round_trip(self):
        tree = _depth_two_tree(rand.generator(57, 0), 8)
        model = CascadeModel((8, 8), [Stage(0.5, [tree, tree])])
        doc = serialize_cascade(model)
        assert "<left_node>1</left_node>" in doc and "<right_node>2</right_node>" in doc
        parsed = parse_cascade(doc)
        assert parsed == model
        assert serialize_cascade(parsed) == doc

    def test_routing_matches_brute_force(self):
        rng = rand.generator(58, 0)
        win = 8
        reached = set()
        for _ in range(6):
            tree = _depth_two_tree(rng, win)
            px = rng.integers(0, 256, size=(20, 22)).astype(np.uint8)
            table = integral_image(Image(px))
            for scale in (1, 2):
                side = win * scale
                for y in range(0, px.shape[0] - side + 1, 3):
                    for x in range(0, px.shape[1] - side + 1, 3):
                        want = _brute_tree_value(tree, px, x, y, scale)
                        reached.add(want)
                        # the stage passes iff the leaf value reaches its
                        # threshold; these three thresholds pin the leaf
                        for thr in (-1.5, -0.5, 1.5):
                            model = CascadeModel((win, win), [Stage(thr, [tree])])
                            got = evaluate_at(model, table, (x, y, float(scale)))
                            assert got == (want >= thr), (x, y, scale, thr)
        assert reached == {-2.0, -1.0, 1.0, 2.0}

    @pytest.mark.parametrize(
        "node, child",
        [(0, "0"), (1, "1"), (2, "1"), (1, "3"), (1, "1.5"), (1, "-0.5"), (1, "inf"), (1, "2.0"), (1, "")],
        ids=["root-self", "self", "backward", "past-end", "1.5", "-0.5", "inf", "2.0", "empty"],
    )
    def test_child_index_must_point_forward(self, node, child):
        tree = _depth_two_tree(rand.generator(59, 0), 8)
        tree.nodes[node].left_val, tree.nodes[node].left_child = None, "CHILD"
        doc = serialize_cascade(CascadeModel((8, 8), [Stage(0.5, [tree])]))
        doc = doc.replace("<left_node>CHILD</left_node>", f"<left_node>{child}</left_node>")
        with pytest.raises(SchemaViolation, match=f"node {node}: child index"):
            parse_cascade(doc)


class TestEvaluateWindow:
    def test_pass_everything_threshold(self):
        node = TreeNode(
            [WeightedRect(0, 0, 4, 4, -1.0), WeightedRect(0, 0, 2, 4, 2.0)],
            threshold=0.0,
            left_val=0.0,
            right_val=0.0,
        )
        model = CascadeModel((4, 4), [Stage(-1e9, [Tree([node])])])
        rng = rand.generator(50, 0)
        img = Image(rng.integers(0, 256, size=(10, 10)).astype(np.uint8))
        table = integral_image(img)
        for y in range(7):
            for x in range(7):
                assert evaluate_at(model, table, (x, y, 1.0))

    def test_constant_image_sigma_clamped_zero_feature(self):
        # zero-sum weights on a constant image -> feature value exactly 0
        node = TreeNode(
            [WeightedRect(0, 0, 4, 4, -1.0), WeightedRect(0, 0, 2, 4, 2.0)],
            threshold=0.5,
            left_val=-1.0,
            right_val=1.0,
        )
        model = CascadeModel((4, 4), [Stage(0.0, [Tree([node])])])
        img = Image(np.full((8, 8), 99, dtype=np.uint8))
        table = integral_image(img)
        # whole-window sum*-1 + half-window sum*2 = 99*(-16+16) = 0 < 0.5 -> left -1 -> fail
        assert not evaluate_at(model, table, (0, 0, 1.0))

    def test_feature_value_matches_brute_force(self):
        rng = rand.generator(51, 0)
        win = 12
        px = np.zeros((win, win), dtype=np.uint8)
        px[:, : win // 2] = 20
        px[:, win // 2 :] = 220
        img = Image(px)
        table = integral_image(img)
        rects = [
            WeightedRect(0, 0, win // 2, win, -1.0),
            WeightedRect(win // 2, 0, win // 2, win, 1.0),
        ]
        # brute-force value with explicit loops
        area = win * win
        total = sum(int(v) for v in px.ravel())
        sq = sum(int(v) ** 2 for v in px.ravel())
        mean = total / area
        sigma = max(np.sqrt(sq / area - mean * mean), 1.0)
        brute = 0.0
        for r in rects:
            s = sum(int(px[y, x]) for y in range(r.y, r.y + r.h) for x in range(r.x, r.x + r.w))
            brute += r.weight * s
        brute /= area * sigma

        # calibrated stump: passes iff value above midpoint of the two cases
        node = TreeNode(rects, threshold=brute - 1e-9, left_val=-1.0, right_val=1.0)
        model = CascadeModel((win, win), [Stage(0.5, [Tree([node])])])
        assert evaluate_at(model, table, (0, 0, 1.0))
        node.threshold = brute + 1e-6
        assert not evaluate_at(model, table, (0, 0, 1.0))

    def test_random_features_match_brute_force(self):
        rng = rand.generator(52, 0)
        win = 10
        px = rng.integers(0, 256, size=(win, win)).astype(np.uint8)
        table = integral_image(Image(px))
        area = win * win
        mean = px.astype(np.float64).mean()
        var = (px.astype(np.float64) ** 2).mean() - mean * mean
        sigma = max(np.sqrt(var), 1.0)
        for _ in range(20):
            x1, y1 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            w1, h1 = int(rng.integers(1, win - x1 + 1)), int(rng.integers(1, win - y1 + 1))
            rects = [WeightedRect(0, 0, win, win, -1.0), WeightedRect(x1, y1, w1, h1, 2.0)]
            brute = (
                -1.0 * px.astype(np.float64).sum()
                + 2.0 * px[y1 : y1 + h1, x1 : x1 + w1].astype(np.float64).sum()
            ) / (area * sigma)
            node = TreeNode(rects, threshold=brute, left_val=0.0, right_val=1.0)
            model = CascadeModel((win, win), [Stage(0.5, [Tree([node])])])
            # value >= own threshold exactly -> right branch -> pass
            assert evaluate_at(model, table, (0, 0, 1.0))
            node.threshold = brute + 1e-6
            assert not evaluate_at(model, table, (0, 0, 1.0))


class TestScaledRects:
    @pytest.mark.parametrize("size", [(160, 120), (320, 240)])
    def test_bottom_right_window_at_every_scale(self, size):
        # every scaled rect ends inside its rounded window, so the
        # bottom-right window never reads past the integral table
        fw, fh = size
        rng = rand.generator(56, 0)
        table = integral_image(Image(rng.integers(0, 256, size=(fh, fw)).astype(np.uint8)))
        model = parse_cascade(MINIMAL_XML)
        rects = model.stages[0].trees[0].nodes[0].rects
        scale = 1.0
        while round(20 * scale) <= fh:
            win = int(round(20 * scale))
            for r in rects:
                x, y, w, h = _scaled_rect(r, scale)
                assert x + w <= win and y + h <= win, (scale, r)
            evaluate_at(model, table, (fw - win, fh - win, scale))
            scale *= 1.1


def _response_maps(px, rects, win_w, win_h, scale_factor=1.1):
    """Feature response at every window of every scale, independently of
    the library evaluator (numpy shifts over hand-built prefix sums)."""
    h, w = px.shape
    p = px.astype(np.float64)
    s = np.zeros((h + 1, w + 1))
    q = np.zeros((h + 1, w + 1))
    s[1:, 1:] = p.cumsum(0).cumsum(1)
    q[1:, 1:] = (p * p).cumsum(0).cumsum(1)

    def rsum(table, x, y, rw, rh, oh, ow):
        return (
            table[y + rh : y + rh + oh, x + rw : x + rw + ow]
            - table[y : y + oh, x + rw : x + rw + ow]
            - table[y + rh : y + rh + oh, x : x + ow]
            + table[y : y + oh, x : x + ow]
        )

    maps = []
    scale = 1.0
    while True:
        ww = int(round(win_w * scale))
        wh = int(round(win_h * scale))
        if ww > w or wh > h:
            break
        oh, ow = h - wh + 1, w - ww + 1
        area = ww * wh
        mean = rsum(s, 0, 0, ww, wh, oh, ow) / area
        var = rsum(q, 0, 0, ww, wh, oh, ow) / area - mean * mean
        sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), 1.0)
        val = np.zeros((oh, ow))
        for r in rects:
            rx, ry = int(round(r.x * scale)), int(round(r.y * scale))
            rw = max(1, int(round((r.x + r.w) * scale)) - rx)
            rh = max(1, int(round((r.y + r.h) * scale)) - ry)
            val += r.weight * rsum(s, rx, ry, rw, rh, oh, ow)
        maps.append((scale, ww, wh, val / (area * sigma)))
        scale *= scale_factor
    return maps


def _planted_scene(win=24, pos=(40, 30), size=(160, 120)):
    """Black background with a bright-core target square and a stump whose
    threshold is calibrated to fire only at the planted location."""
    px = np.zeros((size[1], size[0]), dtype=np.uint8)
    target = np.full((win, win), 20, dtype=np.uint8)
    quarter = win // 4
    target[quarter : win - quarter, quarter : win - quarter] = 220
    px[pos[1] : pos[1] + win, pos[0] : pos[0] + win] = target
    img = Image(px)

    inner = win - 2 * quarter
    rects = [
        WeightedRect(0, 0, win, win, -1.0),
        WeightedRect(quarter, quarter, inner, inner, win * win / (inner * inner)),
    ]

    # calibrate: on-target response must dominate every other window/scale
    maps = _response_maps(px, rects, win, win)
    on_target = maps[0][3][pos[1], pos[0]]
    off_max = -np.inf
    for scale, _, _, val in maps:
        masked = val.copy()
        if scale == 1.0:
            masked[pos[1] - 2 : pos[1] + 3, pos[0] - 2 : pos[0] + 3] = -np.inf
        off_max = max(off_max, masked.max())
    assert on_target > off_max + 0.1
    thr = (on_target + off_max) / 2.0
    node = TreeNode(rects, threshold=thr, left_val=-1.0, right_val=1.0)
    model = CascadeModel((win, win), [Stage(0.5, [Tree([node])])])
    return img, model


class TestDetectMultiscale:
    def test_pass_everything_yields_detection(self):
        rng = rand.generator(54, 0)
        img = Image(rng.integers(0, 256, size=(30, 34)).astype(np.uint8))
        dets = detect_multiscale(pass_all_cascade(), img, min_neighbors=1)
        assert len(dets) >= 1
        assert all(d.neighbors >= 1 for d in dets)

    def test_reject_everything_empty(self):
        rng = rand.generator(55, 0)
        img = Image(rng.integers(0, 256, size=(40, 50)).astype(np.uint8))
        assert detect_multiscale(reject_all_cascade(), img) == []

    def test_planted_target_localized(self):
        img, model = _planted_scene()
        dets = detect_multiscale(model, img, min_neighbors=1)
        assert len(dets) == 1
        x, y, w, h = dets[0].bbox
        assert abs(x - 40) <= 2 and abs(y - 30) <= 2

    def test_image_too_small(self):
        with pytest.raises(ImageTooSmall):
            detect_multiscale(pass_all_cascade(24), Image(np.zeros((10, 10), dtype=np.uint8)))

    def test_removing_stage_is_monotone(self):
        # windows passing a 2-stage cascade still pass with stage 2 removed
        img, model = _planted_scene()
        extra = pass_all_cascade(24).stages[0]
        two_stage = CascadeModel(model.window, [model.stages[0], extra])
        table = integral_image(img)
        one_stage = CascadeModel(model.window, [model.stages[0]])
        for y in range(0, img.height - 24, 7):
            for x in range(0, img.width - 24, 7):
                if evaluate_at(two_stage, table, (x, y, 1.0)):
                    assert evaluate_at(one_stage, table, (x, y, 1.0))

    def test_deterministic(self):
        img, model = _planted_scene()
        a = detect_multiscale(model, img)
        b = detect_multiscale(model, img)
        assert a == b


# ------------------------------------------------- exactness against oracles


def _random_node(rng, win_w, win_h, **branches):
    """2-3 rects inside the window; the first weighs -1 and the others
    balance its area, so the feature straddles small thresholds."""
    rects = []
    for _ in range(int(rng.integers(2, 4))):
        w, h = int(rng.integers(1, win_w + 1)), int(rng.integers(1, win_h + 1))
        x, y = int(rng.integers(0, win_w - w + 1)), int(rng.integers(0, win_h - h + 1))
        rects.append(WeightedRect(x, y, w, h, 0.0))
    first = rects[0].w * rects[0].h
    rects[0].weight = -1.0
    for r in rects[1:]:
        r.weight = first / (r.w * r.h * (len(rects) - 1)) * float(rng.uniform(0.8, 1.2))
    return TreeNode(rects, threshold=float(rng.normal(0.0, 0.2)), **branches)


def _random_cascade(rng, win_w, win_h, deep_first=0):
    """1-3 stages of 1-3 trees, each a stump or a depth-2 tree, with
    arbitrary float leaves and thresholds; with `deep_first`, the first
    stage holds that many depth-2 trees instead."""

    def leaves():
        # magnitudes apart by up to 1e4, so a sum's rounding depends on its order
        return {side: float(rng.normal() * 10 ** rng.uniform(-2, 2)) for side in ("left_val", "right_val")}

    def tree(stump):
        if stump:
            return Tree([_random_node(rng, win_w, win_h, **leaves())])
        return Tree(
            [
                _random_node(rng, win_w, win_h, left_child=1, right_child=2),
                _random_node(rng, win_w, win_h, **leaves()),
                _random_node(rng, win_w, win_h, **leaves()),
            ]
        )

    stages = []
    for i in range(int(rng.integers(1, 4))):
        if i == 0 and deep_first:
            trees = [tree(False) for _ in range(deep_first)]
        else:
            trees = [tree(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 4)))]
        stages.append(Stage(float(rng.uniform(-0.6, 0.6)) * len(trees), trees))
    return CascadeModel((win_w, win_h), stages)


def _random_frame(rng, kind, width, height):
    """Textured, nearly flat (variance below 1) or constant pixels."""
    if kind == "flat":
        return Image(np.full((height, width), int(rng.integers(0, 256)), dtype=np.uint8))
    if kind == "near-flat":
        base = int(rng.integers(0, 255))
        return Image((base + rng.integers(0, 2, size=(height, width))).astype(np.uint8))
    return Image(rng.integers(0, 256, size=(height, width)).astype(np.uint8))


def _scales(model, gray, scale_factor):
    scale, out = 1.0, []
    while round(model.window[0] * scale) <= gray.width and round(model.window[1] * scale) <= gray.height:
        out.append(scale)
        scale *= scale_factor
    return out


def _calibrate(rng, model, gray, scale_factor):
    """Set about half the node thresholds and every stage threshold to the
    exact oracle value at a random window, so that a value one ulp off the
    oracle's flips that window's outcome."""
    table = integral_image(gray)
    scales = _scales(model, gray, scale_factor)

    def random_window():
        scale = scales[int(rng.integers(0, len(scales)))]
        ww = int(round(model.window[0] * scale))
        wh = int(round(model.window[1] * scale))
        win = (int(rng.integers(0, gray.width - ww + 1)), int(rng.integers(0, gray.height - wh + 1)), scale)
        return win, inv_norm_oracle(model, table, win)

    for stage in model.stages:
        for tree in stage.trees:
            for node in tree.nodes:
                if rng.integers(0, 2):
                    (x, y, scale), inv_norm = random_window()
                    node.threshold = feature_value_oracle(node, table, x, y, scale, inv_norm)
        win, inv_norm = random_window()
        stage.threshold = stage_total_oracle(stage, table, win, inv_norm)


def _cases(seed, count, deep_first=0):
    rng = rand.generator(seed, 0)
    for i in range(count):
        win_w, win_h = int(rng.integers(5, 11)), int(rng.integers(5, 11))
        model = _random_cascade(rng, win_w, win_h, deep_first)
        kind = ("textured", "textured", "near-flat", "flat")[i % 4]
        gray = _random_frame(rng, kind, int(rng.integers(win_w, 40)), int(rng.integers(win_h, 32)))
        scale_factor = float(rng.uniform(1.05, 1.25))
        _calibrate(rng, model, gray, scale_factor)
        yield rng, model, gray, scale_factor


def _huge_weight_cases(seed, count):
    """Random cascades whose rect weights and half their leaves are
    +-1e308, on sparse 0/1 frames: a feature value is finite where each
    rect holds at most one lit pixel, else inf or nan, and stage totals
    overflow to inf."""
    rng = rand.generator(seed, 0)
    for _ in range(count):
        win_w, win_h = int(rng.integers(5, 11)), int(rng.integers(5, 11))
        model = _random_cascade(rng, win_w, win_h)
        for stage in model.stages:
            for tree in stage.trees:
                for node in tree.nodes:
                    for r in node.rects:
                        r.weight = math.copysign(1e308, r.weight)
                    if node.left_val is not None and rng.integers(0, 2):
                        node.left_val = math.copysign(1e308, node.left_val)
                        node.right_val = math.copysign(1e308, node.right_val)
        px = rng.random((int(rng.integers(win_h, 32)), int(rng.integers(win_w, 40)))) < 0.1
        yield model, Image(px.astype(np.uint8)), float(rng.uniform(1.05, 1.25))


def _scan_against_oracle(cases, stride):
    """Compare _scan_scale with the oracle's passing positions of each
    scale's stride grid, in row-major order; returns (passed, windows).
    The library runs with every warning raised as an error."""
    passed = total = 0
    for model, gray, scale_factor in cases:
        table = integral_image(gray)
        for scale in _scales(model, gray, scale_factor):
            ww = int(round(model.window[0] * scale))
            wh = int(round(model.window[1] * scale))
            grid = [
                (x, y)
                for y in range(0, gray.height - wh + 1, stride)
                for x in range(0, gray.width - ww + 1, stride)
            ]
            want = [(x, y, ww, wh) for x, y in grid if evaluate_window_oracle(model, table, (x, y, scale))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = haar_cascade._scan_scale(model, table, scale, ww, wh, stride)
            assert got == want, (scale, stride)
            passed += len(want)
            total += len(grid)
    return passed, total


class TestScanExactness:
    def test_every_window_at_every_scale_matches_oracle(self):
        passed, total = _scan_against_oracle((case[1:] for case in _cases(60, 24)), 1)
        # both outcomes occur, so the comparison is not vacuous
        assert 0.05 * total < passed < 0.95 * total

    @pytest.mark.parametrize("stride", [2, 3])
    def test_strided_grid_matches_oracle(self, stride):
        # _scan_scale maps the grid positions of its own stride grid to
        # flat bases
        passed, total = _scan_against_oracle((case[1:] for case in _cases(60, 24)), stride)
        assert 0.05 * total < passed < 0.95 * total

    @pytest.mark.parametrize("block", [None, 30])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_deep_first_stage_matches_oracle(self, monkeypatch, stride, block):
        # every first-stage tree has depth 2: its root reads the band's
        # lattice, its children gather at the bases of the windows routed
        # to them; bands of 30 windows start mid-grid, so those bases are
        # offset by the band's first row
        if block:
            monkeypatch.setattr(haar_cascade, "SCAN_BLOCK", block)
        passed, total = _scan_against_oracle((case[1:] for case in _cases(65, 16, deep_first=3)), stride)
        assert 0.05 * total < passed < 0.95 * total

    def test_huge_weights_match_oracle_without_warnings(self):
        # +-1e308 weights overflow to inf and add inf to -inf; the array
        # pass agrees with the scalar oracle there and, like it, warns
        # about neither
        passed, total = _scan_against_oracle(_huge_weight_cases(64, 40), 1)
        assert 0.05 * total < passed < 0.95 * total

    @pytest.mark.parametrize("size", [(640, 480), (1280, 960)])
    def test_detect_peak_memory_blocks_the_grid(self, size):
        # the frame's tables and the uint16 squares they are built from
        # peak at 1.76x / 1.75x one int64 table, the whole detect_multiscale
        # at 1.91x / 1.75x; the grid's norms and first stage are built per
        # band of SCAN_BLOCK windows, not for the whole grid (about 1.2
        # million windows at scale 1 of 1280x960), so they add nothing near
        # a table, and no table-sized float64 array fits
        width, height = size
        gray = Image(np.random.default_rng(0).integers(0, 256, size=(height, width), dtype=np.uint8))
        tracemalloc.start()
        try:
            detect_multiscale(scenes.brightness_cascade(), gray)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * (height + 1) * (width + 1) * 8

    def test_scan_peak_memory_is_sized_by_the_grid(self):
        # scale 8 of 1280x960 is a 137 x 97 grid of 192 px windows at
        # stride 8, 13,289 windows against 1,231,041 table entries: the
        # verdict and every array of the band's passes are sized by the
        # grid, so one scan traces under a byte per table entry (a verdict
        # keyed by flat table index alone would be 1,231,041 bytes)
        gray = Image(np.random.default_rng(0).integers(0, 256, size=(960, 1280), dtype=np.uint8))
        table, model = integral_image(gray), scenes.brightness_cascade()
        ww, wh = (8 * n for n in model.window)
        assert (ww, wh) == (192, 192)
        tracemalloc.start()
        try:
            haar_cascade._scan_scale(model, table, 8.0, ww, wh, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.sum.size

    def test_detections_match_oracle_detector_on_random_frames(self):
        hits = 0
        for rng, model, gray, scale_factor in _cases(61, 24):
            kwargs = dict(
                scale_factor=scale_factor,
                step_fraction=float(rng.uniform(1.0, 2.0)),
                min_neighbors=int(rng.integers(1, 4)),
            )
            got = detect_multiscale(model, gray, **kwargs)
            assert got == detect_multiscale_oracle(model, gray, **kwargs)
            hits += sum(d.neighbors for d in got)
        assert hits > 0

    @pytest.mark.parametrize("side, dtype", [(2048, np.int32), (2112, np.int64)])
    def test_sum_table_either_side_of_the_int32_bound(self, monkeypatch, side, dtype):
        # 2048**2 px is under integral_image's int32 bound of 2**31 / 510 px,
        # 2112**2 over it; a bright centred square on a bright frame takes
        # the table's entries near that bound, and a 2000 px stump passes
        # the 313 windows whose mean reaches 254.97 (the oracle reads int64)
        win = 2000
        rects = [WeightedRect(0, 0, win, win, -1.0), WeightedRect(0, 0, win, win, 2.0)]
        node = TreeNode(rects, 254.97, left_val=-1.0, right_val=1.0)
        model = CascadeModel((win, win), [Stage(0.5, [Tree([node])])])
        px = np.full((side, side), 250, dtype=np.uint8)
        at = (side - win) // 2
        px[at : at + win, at : at + win] = 255
        dtypes = []

        def spy(gray, real=integral_image):
            table = real(gray)
            dtypes.append((table.sum.dtype, table.sqsum.dtype))
            return table

        monkeypatch.setattr(haar_cascade, "integral_image", spy)
        got = detect_multiscale(model, Image(px))
        assert dtypes == [(dtype, np.int64)]
        assert [(d.bbox, d.neighbors) for d in got] == [((at, at, win, win), 313)]
        assert got == detect_multiscale_oracle(model, Image(px))


def _two_level_frame(width, height, low, high):
    """A checkerboard of two levels: every window of even area holds as
    many of each, so levels 2 apart give a variance of exactly 1."""
    y, x = np.indices((height, width))
    return Image(np.where((x + y) % 2, high, low).astype(np.uint8))


WINDOW_NORM_FRAMES = {
    "constant-0": Image(np.zeros((21, 26), dtype=np.uint8)),
    "constant-99": Image(np.full((21, 26), 99, dtype=np.uint8)),
    "all-255": Image(np.full((21, 26), 255, dtype=np.uint8)),
    "two-level-var-1": _two_level_frame(26, 21, 100, 102),
    "two-level-var-9": _two_level_frame(26, 21, 0, 6),
    "near-flat": _random_frame(rand.generator(63, 0), "near-flat", 26, 21),
    "textured": _random_frame(rand.generator(63, 1), "textured", 26, 21),
}


class TestWindowNorms:
    """`_inv_norms` is == the scalar normalization of every window."""

    @pytest.mark.parametrize("name", list(WINDOW_NORM_FRAMES))
    @pytest.mark.parametrize("window", [(4, 4), (5, 3)])
    def test_every_window_at_every_scale_matches_oracle(self, name, window):
        # each scale's whole grid at strides 1-3, and at stride 1 a band of
        # rows that starts mid-grid
        gray = WINDOW_NORM_FRAMES[name]
        model = CascadeModel(window, [])
        table = integral_image(gray)
        for scale in _scales(model, gray, 1.1):
            ww = int(round(window[0] * scale))
            wh = int(round(window[1] * scale))
            for stride in (1, 2, 3):
                nx = len(range(0, gray.width - ww + 1, stride))
                ny = len(range(0, gray.height - wh + 1, stride))
                bands = [(0, ny)] + [(ny // 2, ny - ny // 2)] * (stride == 1)
                for top, nb in bands:
                    norms = haar_cascade._inv_norms(table, top * stride, nb, nx, stride, ww, wh)
                    assert norms.shape == (nb * nx,) and norms.dtype == np.float64
                    for i in range(nb):
                        for j in range(nx):
                            win = (j * stride, (top + i) * stride, scale)
                            assert norms[i * nx + j] == inv_norm_oracle(model, table, win), (win, stride)

    def test_variance_of_exactly_one_keeps_sigma_one(self):
        # the sigma clamp's edge: var == 1 exactly at every 4x4 window
        table = integral_image(WINDOW_NORM_FRAMES["two-level-var-1"])
        assert rect_sqsum(table, 3, 2, 4, 4) / 16 - (table.rect_sum(3, 2, 4, 4) / 16) ** 2 == 1.0
        assert (haar_cascade._inv_norms(table, 0, 18, 23, 1, 4, 4) == 1 / 16).all()

    def test_cut_tables_of_one_position(self):
        # helpers.evaluate_at scans tables cut to one window, which are
        # strided views of the frame's tables
        gray = WINDOW_NORM_FRAMES["textured"]
        model = CascadeModel((5, 3), [])
        table = integral_image(gray)
        for scale in _scales(model, gray, 1.25):
            ww = int(round(5 * scale))
            wh = int(round(3 * scale))
            for y in range(0, gray.height - wh + 1, 2):
                for x in range(0, gray.width - ww + 1, 3):
                    cut = (slice(y, y + wh + 1), slice(x, x + ww + 1))
                    one = IntegralTable(table.sum[cut], table.sqsum[cut])
                    norms = haar_cascade._inv_norms(one, 0, 1, 1, 1, ww, wh)
                    assert norms.tolist() == [inv_norm_oracle(model, table, (x, y, scale))]

    def test_detect_peak_memory_is_in_place(self):
        # one detect_multiscale at 320x240 peaks at 1.93x one int64 table
        # of the frame: integral_image's int32 sum table, squared table and
        # uint16 squares (1.78x), then the scan's bool verdict and its
        # band arrays; each band normalizes only its own windows, so a
        # table-sized float64 array of norms does not fit under the bound.
        # A coarse stride keeps the traced run short.
        gray = Image(np.random.default_rng(0).integers(0, 90, size=(240, 320), dtype=np.uint8))
        model = scenes.brightness_cascade()
        tracemalloc.start()
        try:
            detect_multiscale(model, gray, step_fraction=4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * 241 * 321 * 8


@pytest.fixture(scope="module")
def bench_frames():
    """Luma frames of the benchmark with their oracle raw hits and oracle
    detections: a search frame (no hits) and the first frame of the
    44 px burst of reacquire variants 0 and 3 (about 1,200-1,300 hits)."""
    frames = [
        scenes.search_session(0).frames[0],
        scenes.reacquire_session(0).frames[5],
        scenes.reacquire_session(3).frames[5],
    ]
    model = scenes.brightness_cascade()
    out = []
    for frame in frames:
        gray = luma(frame)
        raw = raw_hits_oracle(model, gray)
        out.append((gray, raw, group_detections_oracle(raw, 1)))
    return model, out


def _chain(n, step):
    return [(i * step, i % 3, 10, 10) for i in range(n)]


class TestGroupingExactness:
    def test_bench_frames_match_oracle_detector(self, bench_frames):
        model, frames = bench_frames
        assert [len(raw) for _, raw, _ in frames][1:] > [1000, 1000]
        for gray, _, want in frames:
            assert detect_multiscale(model, gray) == want

    def test_scan_bands_of_whole_rows(self, bench_frames, monkeypatch):
        # 7 windows make a band of one grid row at every scale, 1,000 make
        # bands of 7 rows at scale 1 and a short last band of 6; raw hits
        # lie inside bands and on their edges
        group, seen = haar_cascade._group_detections, []
        monkeypatch.setattr(haar_cascade, "_group_detections", lambda raw, n: seen.append(raw) or group(raw, n))
        model, frames = bench_frames
        nx, ny = (n - model.window[0] + 1 for n in (frames[0][0].width, frames[0][0].height))
        assert (nx, ny, 1000 // nx, ny % (1000 // nx)) == (137, 97, 7, 6)
        for block in (7, 1000):
            monkeypatch.setattr(haar_cascade, "SCAN_BLOCK", block)
            for gray, raw, want in frames:
                assert detect_multiscale(model, gray) == want
                assert seen.pop() == raw

    def test_bench_raw_lists_match_oracle(self, bench_frames):
        for _, raw, want in bench_frames[1][1:]:
            got = haar_cascade._group_detections(raw, 1)
            assert got == want
            for d in got:
                assert type(d.neighbors) is int
                assert all(type(v) is int for v in d.bbox)

    def test_grouping_peak_memory_is_blocked(self, bench_frames):
        raw = max((raw for _, raw, _ in bench_frames[1]), key=len)
        tracemalloc.start()
        try:
            haar_cascade._group_detections(raw, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "raw",
        [
            [],
            [(3, 4, 10, 12)],
            [(5, 5, 9, 9)] * 40,
            _chain(100, 2),  # each box overlaps only its neighbours
            _chain(100, 2)[::-1],
            _chain(70, 2)[::2] + _chain(70, 2)[1::2],  # joined only by the last links
            _chain(50, 6),  # no two boxes overlap enough
        ],
        ids=["empty", "one", "identical", "chain", "reversed-chain", "interleaved-chain", "apart"],
    )
    @pytest.mark.parametrize("min_neighbors", [1, 2, 3])
    def test_fixed_inputs_match_oracle(self, raw, min_neighbors):
        assert haar_cascade._group_detections(raw, min_neighbors) == group_detections_oracle(raw, min_neighbors)

    def test_random_inputs_match_oracle(self):
        rng = rand.generator(62, 0)
        for _ in range(900):
            n = int(rng.integers(0, 50))
            span = int(rng.integers(1, 60))
            raw = [
                (
                    int(rng.integers(0, span)),
                    int(rng.integers(0, span)),
                    int(rng.integers(1, 16)),
                    int(rng.integers(1, 16)),
                )
                for _ in range(n)
            ]
            min_neighbors = int(rng.integers(1, 4))
            got = haar_cascade._group_detections(raw, min_neighbors)
            assert got == group_detections_oracle(raw, min_neighbors)
            for d in got:
                assert type(d.neighbors) is int
                assert all(type(v) is int for v in d.bbox)
