"""Stage/tree Haar cascade: XML subset parser, window evaluator and a
multi-scale sliding-window detector. Cascade training is out of scope;
models come from files.

XML grammar, written once as GRAMMAR (children in any order, unknown
elements are errors, and an element that GRAMMAR does not list, such as
<size> or <rect>, holds text only):

    <cascade>
      <size>W H</size>
      <stages>
        <stage>
          <stage_threshold>F</stage_threshold>
          <trees>
            <tree>
              <node>
                <feature>
                  <rects>
                    <rect>x y w h weight</rect>   (2 or more)
                  </rects>
                </feature>
                <node_threshold>F</node_threshold>
                <left_val>F</left_val>   | <left_node>I</left_node>
                <right_val>F</right_val> | <right_node>I</right_node>
              </node>
              (more nodes for deeper trees; node 0 is the root)
              (a child index I is an integer with own index < I < node
               count, so every path ends at a leaf value)
              (every F, rect weights included, is a finite float)
            </tree>
          </trees>
        </stage>
      </stages>
    </cascade>
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .errors import HandposeError, ImageTooSmall, RectOutOfWindow, SchemaViolation
from .imaging import Image, hook_min_roots, integral_image, lattice_sums
from .imaging import _gathered_rect_sums as gather


@dataclass
class WeightedRect:
    x: int
    y: int
    w: int
    h: int
    weight: float


@dataclass
class TreeNode:
    rects: list
    threshold: float
    left_val: float | None = None
    left_child: int | None = None
    right_val: float | None = None
    right_child: int | None = None


@dataclass
class Tree:
    nodes: list  # root at index 0


@dataclass
class Stage:
    threshold: float
    trees: list


@dataclass
class CascadeModel:
    window: tuple  # (w, h)
    stages: list


@dataclass
class Detection:
    bbox: tuple  # (x, y, w, h)
    neighbors: int


# each element's children: (those that must appear exactly once, the
# others it may hold); an element that is not listed holds text only
GRAMMAR = {
    "cascade": (("size", "stages"), ()),
    "stages": ((), ("stage",)),
    "stage": (("stage_threshold", "trees"), ()),
    "trees": ((), ("tree",)),
    "tree": ((), ("node",)),
    "node": (("feature", "node_threshold"), ("left_val", "left_node", "right_val", "right_node")),
    "feature": (("rects",), ()),
    "rects": ((), ("rect",)),
}


def _check_grammar(elem):
    """Check `elem` and every element under it against GRAMMAR."""
    once, others = GRAMMAR.get(elem.tag, ((), ()))
    for child in elem:
        if child.tag not in once and child.tag not in others:
            raise SchemaViolation(f"unexpected element <{child.tag}> inside <{elem.tag}>")
        _check_grammar(child)
    for tag in once:
        if len(elem.findall(tag)) != 1:
            raise SchemaViolation(f"<{elem.tag}> must contain exactly one <{tag}>")


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise SchemaViolation(f"{what} {value} is not finite")
    return value


def _float(elem):
    try:
        value = float(elem.text.strip())
    except (TypeError, ValueError, AttributeError) as exc:
        raise SchemaViolation(f"<{elem.tag}> is not a number") from exc
    return _finite(value, f"<{elem.tag}>")


def _child_index(elem, own, n_nodes, where) -> int:
    try:
        idx = int(elem.text)
    except (TypeError, ValueError) as exc:
        raise SchemaViolation(f"{where}: child index {elem.text!r} is not an integer") from exc
    if not own < idx < n_nodes:
        raise SchemaViolation(f"{where}: child index {idx} not in {own + 1}..{n_nodes - 1}")
    return idx


def _parse_node(elem, own, n_nodes, window, where):
    rects = []
    for r in elem.find("feature").find("rects"):
        parts = (r.text or "").split()
        if len(parts) != 5:
            raise SchemaViolation(f"{where}: <rect> needs 'x y w h weight'")
        try:
            x, y, w, h = (int(p) for p in parts[:4])
            weight = float(parts[4])
        except ValueError as exc:
            raise SchemaViolation(f"{where}: malformed <rect> {r.text!r}") from exc
        if x < 0 or y < 0 or w <= 0 or h <= 0 or x + w > window[0] or y + h > window[1]:
            raise RectOutOfWindow(f"{where}: rect ({x},{y},{w},{h}) outside {window[0]}x{window[1]} window")
        rects.append(WeightedRect(x, y, w, h, _finite(weight, f"{where}: rect weight")))
    if len(rects) < 2:
        raise SchemaViolation(f"{where}: feature needs at least 2 rects")
    weights = [r.weight for r in rects]
    if not (any(w < 0 for w in weights) and any(w > 0 for w in weights)):
        raise SchemaViolation(f"{where}: feature needs positive and negative rect weights")
    node = TreeNode(rects, _float(elem.find("node_threshold")))
    for side in ("left", "right"):
        vals = elem.findall(f"{side}_val")
        children = elem.findall(f"{side}_node")
        if len(vals) + len(children) != 1:
            raise SchemaViolation(f"{where}: node needs exactly one {side}_val or {side}_node")
        if vals:
            setattr(node, f"{side}_val", _float(vals[0]))
        else:
            setattr(node, f"{side}_child", _child_index(children[0], own, n_nodes, where))
    return node


def parse_cascade(doc: str) -> CascadeModel:
    try:
        root = ET.fromstring(doc)
    except ET.ParseError as exc:
        raise HandposeError(str(exc)) from exc
    if root.tag != "cascade":
        raise SchemaViolation(f"root must be <cascade>, got <{root.tag}>")
    _check_grammar(root)
    size_parts = (root.find("size").text or "").split()
    if len(size_parts) != 2:
        raise SchemaViolation("<size> needs 'W H'")
    try:
        window = int(size_parts[0]), int(size_parts[1])
    except ValueError as exc:
        raise SchemaViolation("<size> entries must be integers") from exc
    if window[0] <= 0 or window[1] <= 0:
        raise SchemaViolation("window size must be positive")
    stages = []
    for si, stage_el in enumerate(root.find("stages")):
        trees = []
        for ti, tree_el in enumerate(stage_el.find("trees")):
            node_els = list(tree_el)
            if not node_els:
                raise SchemaViolation(f"stage {si} tree {ti}: tree needs at least one node")
            nodes = [
                _parse_node(n, ni, len(node_els), window, f"stage {si} tree {ti} node {ni}")
                for ni, n in enumerate(node_els)
            ]
            trees.append(Tree(nodes))
        if not trees:
            raise SchemaViolation(f"stage {si} has no trees")
        stages.append(Stage(_float(stage_el.find("stage_threshold")), trees))
    if not stages:
        raise SchemaViolation("cascade has no stages")
    return CascadeModel(window, stages)


def serialize_cascade(model: CascadeModel) -> str:
    """Emit the documented XML subset; parse(serialize(m)) reproduces m."""

    def fmt(v: float) -> str:
        return repr(float(v))

    lines = ["<cascade>", f"  <size>{model.window[0]} {model.window[1]}</size>", "  <stages>"]
    for stage in model.stages:
        lines.append("    <stage>")
        lines.append(f"      <stage_threshold>{fmt(stage.threshold)}</stage_threshold>")
        lines.append("      <trees>")
        for tree in stage.trees:
            lines.append("        <tree>")
            for node in tree.nodes:
                lines.append("          <node>")
                lines.append("            <feature><rects>")
                for r in node.rects:
                    lines.append(
                        f"              <rect>{r.x} {r.y} {r.w} {r.h} {fmt(r.weight)}</rect>"
                    )
                lines.append("            </rects></feature>")
                lines.append(f"            <node_threshold>{fmt(node.threshold)}</node_threshold>")
                for side in ("left", "right"):
                    val = getattr(node, f"{side}_val")
                    if val is not None:
                        lines.append(f"            <{side}_val>{fmt(val)}</{side}_val>")
                    else:
                        child = getattr(node, f"{side}_child")
                        lines.append(f"            <{side}_node>{child}</{side}_node>")
                lines.append("          </node>")
            lines.append("        </tree>")
        lines.append("      </trees>")
        lines.append("    </stage>")
    lines.append("  </stages>")
    lines.append("</cascade>")
    return "\n".join(lines) + "\n"


def _scaled_rect(r: WeightedRect, scale: float):
    """Scale the near and far edges, so a rect that ends at the window's
    edge ends at the rounded window's edge."""
    x = round(r.x * scale)
    y = round(r.y * scale)
    return x, y, max(1, round((r.x + r.w) * scale) - x), max(1, round((r.y + r.h) * scale) - y)


# windows of one scale's stride grid that _scan_scale evaluates at once,
# in bands of whole grid rows; each array of a band's pass holds at most
# this many entries (or one grid row, if that is longer)
SCAN_BLOCK = 16384

# rows of the pairwise overlap test that _group_detections holds at once;
# its int and bool matrices are GROUP_BLOCK x n
GROUP_BLOCK = 16


def _inv_norms(sums, sqsums, ww: int, wh: int) -> np.ndarray:
    """1 / (area * sigma) of the ww x wh windows at the points of one
    band's lattice, row-major, read through its `lattice_sums` readers
    `sums` and `sqsums` of the sum and squared tables. sigma is the
    windowed stddev clamped below at 1, in the scalar order:
    mean = S / area, var = Q / area - mean * mean,
    sigma = sqrt(max(var, 1)), 1.0 / (area * sigma). The box
    sums S and Q are exact integers below 2**53, so they convert to float64
    exactly, and every op is correctly rounded, as Python's int / int and
    math.sqrt are: each value is bit for bit the scalar one."""
    area = ww * wh
    mean = sums(0, 0, ww, wh).ravel() / area
    var = sqsums(0, 0, ww, wh).ravel() / area
    var -= mean * mean
    # sqrt is monotone and sqrt(1) == 1: sqrt(var) where var > 1, else 1
    return 1.0 / (area * np.sqrt(np.maximum(var, 1.0)))


def _feature(node, sums, scale):
    """A node's feature before normalization at each window, row-major:
    weight * sums(rect scaled by `scale`) added to 0.0 in rect order, as
    in the scalar oracle (`tests/helpers.py`)."""
    f = 0.0
    for r in node.rects:
        f += r.weight * sums(*_scaled_rect(r, scale)).ravel()  # the first add makes f an array
    return f


def _tree_values(nodes, sums, inv_norm, scale):
    """The leaf value each window reaches in one tree, read through the
    stage's rect-sum reader `sums` of the windows whose norms are
    `inv_norm`.

    Every node is read at every window of the stage, last node first: a
    child's index is above its parent's, so a node's children are done
    before it. Its `_feature` times the window's `inv_norm`, as in the
    scalar oracle, takes the value of the node's left side where it is
    below the node's threshold and of its right side elsewhere, a side
    being a leaf value or the values of the child node. So each window
    keeps the leaf value that its scalar walk reaches. The sums are exact
    integers below 2**53, so they convert to float exactly, and each op is
    correctly rounded: every feature is bit for bit the scalar one."""
    values = [None] * len(nodes)
    for i, node in reversed(list(enumerate(nodes))):
        f = _feature(node, sums, scale)
        f *= inv_norm
        left = values[node.left_child] if node.left_val is None else node.left_val
        right = values[node.right_child] if node.right_val is None else node.right_val
        values[i] = np.where(f < node.threshold, left, right)
    return values[0]


def evaluate_window(scan: memoryview, k: int) -> bool:
    """The verdict of the window at grid position `k` of one scale, read
    from `_scan_scale`'s array passes.

    `_scan_scale` calls this once per grid position: it is the seam the
    benchmark's window counter (`perfbench/check_geometry.py`) wraps. The
    loop of calls is about two thirds of a 160x120 search frame's scan
    (3.8 of 5.9 ms, best of 30, wall, 2-CPU x86-64 Xeon), and can go once
    the counter reads `_scan_scale`'s grids instead."""
    return scan[k]


def _group_detections(raw, min_neighbors):
    """Connected components of the >=50% mutual-overlap graph over the raw
    hits, each rooted at its smallest index; groups in root order, each
    the rounded mean of its members in index order, then sorted by box."""
    n = len(raw)
    boxes = np.array(raw, dtype=np.int32).reshape(n, 4)
    x0, y0, w, h = boxes.T
    x1, y1, area = x0 + w, y0 + h, w * h
    root = np.arange(n)
    for s in range(0, n, GROUP_BLOCK):
        e = min(s + GROUP_BLOCK, n)
        ix = np.minimum(x1[s:e, None], x1[None, s:])
        ix -= np.maximum(x0[s:e, None], x0[None, s:])
        np.maximum(ix, 0, out=ix)
        iy = np.minimum(y1[s:e, None], y1[None, s:])
        iy -= np.maximum(y0[s:e, None], y0[None, s:])
        np.maximum(iy, 0, out=iy)
        ix *= iy
        ix *= 2
        # a link whose ends already share a root (the diagonal, say) joins
        # nothing; dropping those keeps the edge arrays small once a group
        # has formed. A link inside the block is kept from both ends.
        ok = (ix >= area[s:e, None]) & (ix >= area[None, s:]) & (root[s:e, None] != root[None, s:])
        a, b = np.nonzero(ok)
        root = hook_min_roots(root, a + s, b + s)
    _, counts = np.unique(root, return_counts=True)
    order = np.argsort(root, kind="stable")
    out = []
    for start, count in zip((np.cumsum(counts) - counts).tolist(), counts.tolist()):
        if count < min_neighbors:
            continue
        mean = boxes[order[start : start + count]].astype(np.float64).mean(axis=0)
        out.append(Detection(tuple(int(round(v)) for v in mean), count))
    out.sort(key=lambda d: (d.bbox[0], d.bbox[1], d.bbox[2]))
    return out


def _scan_scale(model: CascadeModel, integral, scale: float, ww: int, wh: int, stride: int):
    """Raw hits (x, y, ww, wh) of one scale's stride grid in row-major
    order. The grid is nx x ny windows; grid position k is the window at
    (k % nx * stride, k // nx * stride).

    The grid is decided in bands of whole grid rows, SCAN_BLOCK windows or
    one row each, into a verdict of nx * ny bools. Each band keeps its live
    windows as int32 grid positions. Every window of a band sees the norms
    (`_inv_norms`) and the first stage, so those read the band's lattice of
    windows through one `lattice_sums` reader of each table, built for the
    band. Each later stage sees the band's live set only: at its top, one
    `_gathered_rect_sums` reader is built at the top-left corners of just
    those windows, and every node of the stage reads through it. Each rect
    is scaled as it is read. A band runs the stages of `model` as parsed,
    as array passes in the scalar order: each tree's values
    (`_tree_values`) are summed from zero in tree order, and a window
    leaves at the first stage whose total is below the threshold. A nan
    total is not below it, so it passes, as in the scalar oracle; huge
    weights overflow to inf and nan there too, and print no warning.

    A loop then reads the verdict with exactly one evaluate_window call
    per grid position, the count the benchmark's window counter checks."""
    rows, row = integral.sum.shape
    nx = len(range(0, row - ww, stride))
    ny = len(range(0, rows - wh, stride))

    verdict = np.zeros(nx * ny, dtype=bool)
    band = max(1, SCAN_BLOCK // nx)
    with np.errstate(over="ignore", invalid="ignore"):
        for top in range(0, ny, band):
            nb = min(band, ny - top)
            sums = lattice_sums(integral.sum, (0, top * stride), nb, nx, stride)
            sqsums = lattice_sums(integral.sqsum, (0, top * stride), nb, nx, stride)
            # the positions are made after the norms, and a stage's total
            # from its first tree's values on, so neither is held while
            # the norms' or the first tree's temporaries are
            inv_norm = _inv_norms(sums, sqsums, ww, wh)
            k = np.arange(top * nx, (top + nb) * nx, dtype=np.int32)
            for s, stage in enumerate(model.stages):
                if s:  # the rect-sum reader of the windows still live
                    sums = gather(integral, k % nx * stride, k // nx * stride)
                total = 0.0  # parse_cascade gives every stage a tree
                for tree in stage.trees:
                    total += _tree_values(tree.nodes, sums, inv_norm, scale)
                live = np.flatnonzero(~(total < stage.threshold))
                k, inv_norm = k[live], inv_norm[live]
            verdict[k] = True  # the windows left after every stage
    scan, hits = memoryview(verdict), []
    for k in range(nx * ny):
        if evaluate_window(scan, k):
            hits.append((k % nx * stride, k // nx * stride, ww, wh))
    return hits


def detect_multiscale(
    model: CascadeModel,
    gray: Image,
    scale_factor: float = 1.1,
    step_fraction: float = 1.0,
    min_neighbors: int = 1,
):
    """Scan all scales window*scale_factor^k that fit the frame; group raw
    hits by >=50% mutual overlap; keep groups with >= min_neighbors hits.

    Builds the frame's integral tables with one `integral_image` call;
    then each scale goes through `_scan_scale`, smallest first, at stride
    round(step_fraction * scale) held within 1 and the frame's larger side.
    """
    if not 1.05 <= scale_factor < math.inf:
        raise HandposeError("scale_factor must be finite and >= 1.05")
    if not math.isfinite(step_fraction):
        raise HandposeError("step_fraction must be finite")
    w0, h0 = model.window
    if gray.width < w0 or gray.height < h0:
        raise ImageTooSmall(f"frame {gray.width}x{gray.height} smaller than {w0}x{h0} window")
    integral = integral_image(gray)
    raw = []
    scale = 1.0
    # a stride of the frame's larger side already scans one position per
    # scale; capping there keeps a step that overflowed to inf out of int()
    max_stride = max(gray.width, gray.height)
    # the guard stops before rounding a window that overflowed to inf
    while w0 * scale < gray.width + 1 and h0 * scale < gray.height + 1:
        ww = int(round(w0 * scale))
        wh = int(round(h0 * scale))
        if ww > gray.width or wh > gray.height:
            break
        stride = int(round(min(max(step_fraction * scale, 1.0), max_stride)))
        raw += _scan_scale(model, integral, scale, ww, wh, stride)
        scale *= scale_factor
    return _group_detections(raw, min_neighbors)
