import numpy as np
import pytest

from handpose import rand
from handpose.errors import (
    ImageTooSmall,
    RectOutOfWindow,
    SchemaViolation,
    XmlSyntax,
)
from handpose.haar_cascade import (
    CascadeModel,
    Stage,
    Tree,
    TreeNode,
    WeightedRect,
    _scaled_rect,
    detect_multiscale,
    evaluate_window,
    parse_cascade,
    serialize_cascade,
)
from handpose.imaging import Image, integral_image

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
        with pytest.raises(XmlSyntax):
            parse_cascade("<cascade><size>20 20")

    @pytest.mark.parametrize(
        "mutation",
        [
            ("<stage_threshold>0.5</stage_threshold>", ""),  # missing threshold
            ("<node_threshold>0.25</node_threshold>", ""),  # missing node threshold
            ("<left_val>-1.0</left_val>", ""),  # missing left branch
            ("<left_val>-1.0</left_val>", "<left_node>5</left_node>"),  # child out of range
            ("<rect>0 0 10 20 -1.0</rect>", ""),  # single rect
            ("<rect>10 0 10 20 2.0</rect>", "<rect>10 0 10 20 -2.0</rect>"),  # no positive weight
            ("<size>20 20</size>", "<size>20</size>"),  # malformed size
            ("<trees>", "<branches>"),  # renamed required node (also breaks </trees>)
        ],
    )
    def test_schema_mutations_rejected(self, mutation):
        old, new = mutation
        doc = MINIMAL_XML.replace(old, new)
        with pytest.raises((SchemaViolation, XmlSyntax)):
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
                            got = evaluate_window(model, table, (x, y, float(scale)))
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
                assert evaluate_window(model, table, (x, y, 1.0))

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
        assert not evaluate_window(model, table, (0, 0, 1.0))

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
        assert evaluate_window(model, table, (0, 0, 1.0))
        node.threshold = brute + 1e-6
        assert not evaluate_window(model, table, (0, 0, 1.0))

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
            assert evaluate_window(model, table, (0, 0, 1.0))
            node.threshold = brute + 1e-6
            assert not evaluate_window(model, table, (0, 0, 1.0))


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
            evaluate_window(model, table, (fw - win, fh - win, scale))
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
                if evaluate_window(two_stage, table, (x, y, 1.0)):
                    assert evaluate_window(one_stage, table, (x, y, 1.0))

    def test_deterministic(self):
        img, model = _planted_scene()
        a = detect_multiscale(model, img)
        b = detect_multiscale(model, img)
        assert a == b
