"""Shared brute-force oracles and synthetic scene builders for the tests.

Oracles here are deliberately independent of the library's optimized
paths: plain loops, 64-bit accumulation, no shared code.
"""

import numpy as np

from handpose import haar_cascade, imaging, mil_tracker, rand
from handpose.errors import ImageTooSmall, PatchOutOfFrame
from handpose.imaging import Image, IntegralTable, integral_image
from handpose.skin_segment import ComponentInfo


# ------------------------------------------------------------- NN oracles


def naive_conv2d(x, w, b):
    """Direct 6-loop valid cross-correlation, float64 accumulation."""
    c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    out = np.zeros((c_out, oh, ow), dtype=np.float64)
    for o in range(c_out):
        for y in range(oh):
            for xx in range(ow):
                acc = float(b[o])
                for c in range(c_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += float(x[c, y + dy, xx + dx]) * float(w[o, c, dy, dx])
                out[o, y, xx] = acc
    return out


def finite_diff(f, x, eps=1e-3):
    """Central finite differences of scalar f w.r.t. array x (float64)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ------------------------------------------------------ imaging oracles


def rgb_to_ycbcr_oracle(pixels):
    """BT.601 full range in float64, with both sides of round half away from
    zero: the reference for the library's integer conversion."""
    m = np.array(
        [
            [0.299, 0.587, 0.114],
            [-0.168736, -0.331264, 0.5],
            [0.5, -0.418688, -0.081312],
        ]
    )
    ycc = pixels.astype(np.float64) @ m.T
    ycc[:, :, 1] += 128.0
    ycc[:, :, 2] += 128.0
    rounded = np.where(ycc >= 0, np.floor(ycc + 0.5), np.ceil(ycc - 0.5))
    return np.clip(rounded, 0, 255).astype(np.uint8)


def int64_tables(gray, squared=True):
    """integral_image's tables with the sum table widened to int64, so an
    oracle reads the same tables whatever dtype the library picks."""
    table = integral_image(gray, squared)
    return IntegralTable(table.sum.astype(np.int64), table.sqsum)


def rect_sqsum(integral, x, y, w, h):
    """Sum of squared pixels over a rect, from the squared-sum table."""
    s = integral.sqsum
    return int(s[y + h, x + w] - s[y, x + w] - s[y + h, x] + s[y, x])


def brute_rect_sum(pixels, x, y, w, h):
    total = 0
    for yy in range(y, y + h):
        for xx in range(x, x + w):
            total += int(pixels[yy, xx])
    return total


def mil_feature_values_oracle(state, pixels, locs, feats):
    """MIL feature values by brute rect sums: per rect, in pool order,
    float(sum) * weight / area added to 0.0; (n_locs, len(feats))."""
    area = state.bbox[2] * state.bbox[3]
    out = np.zeros((len(locs), len(feats)))
    for li, (lx, ly) in enumerate(locs):
        for col, f in enumerate(feats):
            acc = 0.0
            for r in range(state.feat_start[f], state.feat_start[f + 1]):
                rx, ry, rw, rh = (int(v) for v in state.rects[r])
                total = brute_rect_sum(pixels, int(lx) + rx, int(ly) + ry, rw, rh)
                acc += float(total) * float(state.rect_weight[r]) / area
            out[li, col] = acc
    return out


def forced_reader(name):
    """An `IntegralTable.rect_sums` that sends every call through the
    `imaging` reader `name`, whatever the rule would pick; blocks span the
    locations' square (none for no locations)."""

    def rect_sums(table, locs, size, reads):
        if name == "_block_rect_sums":
            lo = locs.min(axis=0) if len(locs) else np.zeros(2, np.intp)
            span = locs.max(axis=0) + 1 - lo if len(locs) else np.zeros(2, np.intp)
            return imaging._block_rect_sums(table, locs, lo, span)
        if name == "_patch_rect_sums":
            return imaging._patch_rect_sums(table, locs, size)
        return imaging._gathered_rect_sums(table, locs[:, 0], locs[:, 1])

    return rect_sums


def flood_fill_label_oracle(bits):
    """8-connected row-major scan flood fill with labels in first-seen order:
    the (H, W) int32 label array and one ComponentInfo per label."""
    offs = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0))
    h, w = bits.shape
    labels = np.zeros((h, w), dtype=np.int32)
    infos = []
    next_label = 0
    for y in range(h):
        for x in range(w):
            if not bits[y, x] or labels[y, x]:
                continue
            next_label += 1
            stack = [(y, x)]
            labels[y, x] = next_label
            pts = []
            while stack:
                cy, cx = stack.pop()
                pts.append((cy, cx))
                for dy, dx in offs:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = next_label
                        stack.append((ny, nx))
            ys = np.array([p[0] for p in pts])
            xs = np.array([p[1] for p in pts])
            bbox = (int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1))
            infos.append(ComponentInfo(len(pts), bbox))
    return labels, infos


def box_morphology_oracle(bits, combine):
    """Combine the nine 3x3-box shifts of `bits`; outside counts as background."""
    padded = np.pad(bits, 1, constant_values=False)
    h, w = bits.shape
    out = padded[0:h, 0:w].copy()
    for dy in range(3):
        for dx in range(3):
            if dy or dx:
                out = combine(out, padded[dy : dy + h, dx : dx + w])
    return out


def nearest_rank_oracle(samples, q):
    """Percentile by explicit sort-and-index."""
    ordered = sorted(samples)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


# ------------------------------------------------------ cascade oracles


def feature_value_oracle(node, integral, x, y, scale, inv_norm):
    """A node's normalized feature at window (x, y): weighted 2-D table
    rect sums added to 0.0 in rect order, then times inv_norm."""
    f = 0.0
    for r in node.rects:
        rx, ry, rw, rh = haar_cascade._scaled_rect(r, scale)
        f += r.weight * integral.rect_sum(x + rx, y + ry, rw, rh)
    return f * inv_norm


def _eval_tree_oracle(tree, integral, x, y, scale, inv_norm):
    idx = 0
    while True:
        node = tree.nodes[idx]
        if feature_value_oracle(node, integral, x, y, scale, inv_norm) < node.threshold:
            if node.left_val is not None:
                return node.left_val
            idx = node.left_child
        else:
            if node.right_val is not None:
                return node.right_val
            idx = node.right_child


def inv_norm_oracle(model, integral, win):
    """1 / (area * sigma) of window (x, y, scale), sigma the windowed
    stddev through np.sqrt, clamped below at 1; IndexError outside the frame."""
    x, y, scale = win
    ww = int(round(model.window[0] * scale))
    wh = int(round(model.window[1] * scale))
    height, width = (n - 1 for n in integral.sum.shape)
    if x < 0 or y < 0 or x + ww > width or y + wh > height:
        raise IndexError(f"window ({x},{y},{ww},{wh}) outside frame")
    area = ww * wh
    mean = integral.rect_sum(x, y, ww, wh) / area
    var = rect_sqsum(integral, x, y, ww, wh) / area - mean * mean
    sigma = np.sqrt(max(var, 0.0))
    if sigma < 1.0:
        sigma = 1.0
    return 1.0 / (area * sigma)


def stage_total_oracle(stage, integral, win, inv_norm):
    """The stage's tree values at window (x, y, scale), summed from 0 in tree order."""
    x, y, scale = win
    return sum(_eval_tree_oracle(t, integral, x, y, scale, inv_norm) for t in stage.trees)


def evaluate_window_oracle(model, integral, win):
    """The scalar window evaluator as first written, on 2-D table reads."""
    inv_norm = inv_norm_oracle(model, integral, win)
    for stage in model.stages:
        if stage_total_oracle(stage, integral, win, inv_norm) < stage.threshold:
            return False
    return True


def _mutual_overlap(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    return inter * 2 >= aw * ah and inter * 2 >= bw * bh


def group_detections_oracle(raw, min_neighbors):
    """Pairwise union-find over all raw hits, smallest index as root."""
    parent = list(range(len(raw)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            if _mutual_overlap(raw[i], raw[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(raw)):
        groups.setdefault(find(i), []).append(raw[i])
    out = []
    for members in groups.values():
        if len(members) < min_neighbors:
            continue
        arr = np.array(members, dtype=np.float64)
        mean = arr.mean(axis=0)
        bbox = tuple(int(round(v)) for v in mean)
        out.append(haar_cascade.Detection(bbox, len(members)))
    out.sort(key=lambda d: (d.bbox[0], d.bbox[1], d.bbox[2]))
    return out


def raw_hits_oracle(model, gray, scale_factor=1.1, step_fraction=1.0):
    """Every window evaluate_window_oracle passes, as (x, y, w, h) in scan order."""
    integral = int64_tables(gray)
    w0, h0 = model.window
    raw = []
    scale = 1.0
    while w0 * scale < gray.width + 1 and h0 * scale < gray.height + 1:
        ww = int(round(w0 * scale))
        wh = int(round(h0 * scale))
        if ww > gray.width or wh > gray.height:
            break
        stride = max(1, int(round(step_fraction * scale)))
        for y in range(0, gray.height - wh + 1, stride):
            for x in range(0, gray.width - ww + 1, stride):
                if evaluate_window_oracle(model, integral, (x, y, scale)):
                    raw.append((x, y, ww, wh))
        scale *= scale_factor
    return raw


def detect_multiscale_oracle(model, gray, scale_factor=1.1, step_fraction=1.0, min_neighbors=1):
    """The scalar detector: raw_hits_oracle grouped by group_detections_oracle."""
    if gray.width < model.window[0] or gray.height < model.window[1]:
        raise ImageTooSmall("frame smaller than window")
    raw = raw_hits_oracle(model, gray, scale_factor, step_fraction)
    return group_detections_oracle(raw, min_neighbors)


def evaluate_at(model, integral, win):
    """The library's verdict on window (x, y, scale): _scan_scale at stride 1
    on both tables cut to the window, whose one grid position is the window
    (rect sums do not depend on the table's origin)."""
    x, y, scale = win
    ww = int(round(model.window[0] * scale))
    wh = int(round(model.window[1] * scale))
    cut = (slice(y, y + wh + 1), slice(x, x + ww + 1))
    window = IntegralTable(integral.sum[cut], integral.sqsum[cut])
    return bool(haar_cascade._scan_scale(model, window, scale, ww, wh, 1))


# ------------------------------------------------------ tracker oracles


def sigmoid_oracle(x):
    """Sign-split logistic: exp(-x) where x >= 0, exp(x) / (1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def noisy_or_oracle(probs):
    """Bag positive probability 1 - prod(1 - p_i) over instances (axis 0)."""
    return 1.0 - np.prod(1.0 - np.asarray(probs, dtype=np.float64), axis=0)


def select_classifiers_oracle(state, pos_llr, neg_llr):
    """Greedy noisy-OR selection as first written: fresh arrays every round,
    sigmoid probabilities through sigmoid_oracle, no clamp on the exponent."""
    m = pos_llr.shape[1]
    h_pos = np.zeros(pos_llr.shape[0])
    h_neg = np.zeros(neg_llr.shape[0])
    chosen = []
    remaining = np.ones(m, dtype=bool)
    eps = 1e-12
    for _ in range(state.params.num_selected):
        p_pos = sigmoid_oracle(h_pos[:, None] + pos_llr)
        p_neg = sigmoid_oracle(h_neg[:, None] + neg_llr)
        ll = np.log(np.clip(noisy_or_oracle(p_pos), eps, None)) + np.sum(
            np.log(np.clip(1.0 - p_neg, eps, None)), axis=0
        )
        ll[~remaining] = -np.inf
        best = int(ll.argmax())
        chosen.append(best)
        remaining[best] = False
        h_pos = h_pos + pos_llr[:, best]
        h_neg = h_neg + neg_llr[:, best]
    return np.array(chosen, dtype=np.intp)


def disc_locs_oracle(state, radius, inner=None):
    """Box corner plus every (dy, dx) on the full square, lexicographic,
    filtered by radius, then by the frame."""
    r = int(np.floor(radius))
    dy, dx = np.mgrid[-r : r + 1, -r : r + 1]
    d2 = dy**2 + dx**2
    keep = d2 <= radius**2
    if inner is not None:
        keep &= d2 > inner**2
    locs = np.stack([state.bbox[0] + dx[keep], state.bbox[1] + dy[keep]], axis=1)
    w, h = state.bbox[2], state.bbox[3]
    fw, fh = state.frame_size
    inside = (locs[:, 0] >= 0) & (locs[:, 1] >= 0) & (locs[:, 0] + w <= fw) & (locs[:, 1] + h <= fh)
    return locs[inside]


def mil_update_oracle(state, integral, origin, first=False):
    """The MIL update with one _feature_values call per bag and one for the
    centre, selecting with select_classifiers_oracle. It reuses the
    library's other per-bag helpers, so it pins the bag locations, their
    order and how rows reach each helper. `origin` is the table's corner
    in the frame."""
    p = state.params
    cx, cy = state.bbox[0], state.bbox[1]
    pos_locs = disc_locs_oracle(state, p.pos_radius)
    neg_locs = disc_locs_oracle(state, p.neg_outer, p.neg_inner)
    if len(neg_locs) > p.num_negatives:
        pick = np.sort(state.rng.choice(len(neg_locs), p.num_negatives, replace=False))
        neg_locs = neg_locs[pick]
    all_feats = np.arange(p.num_features, dtype=np.intp)
    pos_vals = mil_tracker._feature_values(state, integral, pos_locs - origin, all_feats)
    neg_vals = mil_tracker._feature_values(state, integral, neg_locs - origin, all_feats)
    cur_vals = mil_tracker._feature_values(state, integral, np.array([[cx, cy]]) - origin, all_feats)
    mil_tracker._update_gaussians(state, cur_vals, neg_vals, first)
    pos_llr = mil_tracker._llr(state, pos_vals, all_feats)
    neg_llr = mil_tracker._llr(state, neg_vals, all_feats)
    state.selected = select_classifiers_oracle(state, pos_llr, neg_llr)


def mil_score(state, gray, loc):
    """Sum of the selected weak classifiers' LLRs for the patch at `loc`."""
    x, y = loc
    w, h = state.bbox[2], state.bbox[3]
    if x < 0 or y < 0 or x + w > gray.width or y + h > gray.height:
        raise PatchOutOfFrame(f"patch at {loc} outside frame")
    vals = mil_tracker._feature_values(state, integral_image(gray), np.array([[x, y]]), state.selected)
    return float(mil_tracker._llr(state, vals, state.selected).sum())


def mil_track_step_oracle(state, gray):
    """track_step over the filtered search disc and a full-frame table,
    learning with mil_update_oracle."""
    integral = int64_tables(gray, squared=False)
    locs = disc_locs_oracle(state, state.params.search_radius)
    vals = mil_tracker._feature_values(state, integral, locs, state.selected)
    scores = mil_tracker._llr(state, vals, state.selected).sum(axis=1)
    best = int(scores.argmax())
    state.bbox = (int(locs[best, 0]), int(locs[best, 1]), state.bbox[2], state.bbox[3])
    confidence = float(scores[best]) / len(state.selected)
    mil_update_oracle(state, integral, np.zeros(2, dtype=np.intp))
    return mil_tracker.TrackResult(state.bbox, confidence)


def smooth_label_oracle(history):
    """Majority vote by a count dict, then a backwards walk to the most
    recent of the tied labels."""
    counts = {}
    for lbl in history:
        counts[lbl] = counts.get(lbl, 0) + 1
    top = max(counts.values())
    tied = {lbl for lbl, c in counts.items() if c == top}
    for lbl in reversed(history):
        if lbl in tied:
            return lbl


def hand_roi_oracle(frame, roi):
    """The crop of `frame` for a region `roi` (x, y, w, h): its start moved
    into the frame and its extent cut at the far edges, each at least one
    pixel; returns the crop and its offset in the frame."""
    x, y, w, h = roi
    x = max(0, min(x, frame.width - 1))
    y = max(0, min(y, frame.height - 1))
    w = max(1, min(w, frame.width - x))
    h = max(1, min(h, frame.height - y))
    return Image(frame.pixels[y : y + h, x : x + w]), (x, y)


# -------------------------------------------------------- synthetic data


SKIN_BASE = np.array([200, 120, 100])
BG_COLOR = np.array([40, 60, 200])


def skin_texture(side=36, jitter=20, seed=77):
    """Seeded textured skin-colored patch, uint8 HxWx3."""
    rng = rand.generator(seed, 0)
    noise = rng.integers(-jitter, jitter + 1, size=(side, side, 3))
    return np.clip(SKIN_BASE[None, None] + noise, 0, 255).astype(np.uint8)


def scene_frame(patch, px, py, width=160, height=120):
    """RGB frame: flat non-skin background with the patch at (px, py)."""
    frame = np.tile(BG_COLOR.astype(np.uint8), (height, width, 1))
    side = patch.shape[0]
    frame[py : py + side, px : px + side] = patch
    return Image(frame)


def shape_dataset_arrays(samples_per_class=300, seed=42, noise=0.08):
    """10 distinguishable 48x48 binary shape classes with jitter.

    Classes: filled disc, ring, solid square, hollow square, cross,
    X diagonal stripes, horizontal bars, vertical bars, triangle, checker.
    Returns masks (N, 48, 48) bool and labels (N,).
    """
    rng = rand.generator(seed, 9)
    yy, xx = np.mgrid[0:48, 0:48]
    masks, labels = [], []
    for cls in range(10):
        for _ in range(samples_per_class):
            cx = 24 + int(rng.integers(-4, 5))
            cy = 24 + int(rng.integers(-4, 5))
            r = 14 + int(rng.integers(-2, 3))
            d2 = (xx - cx) ** 2 + (yy - cy) ** 2
            if cls == 0:
                m = d2 <= r * r
            elif cls == 1:
                m = (d2 <= r * r) & (d2 >= (r - 5) ** 2)
            elif cls == 2:
                m = (np.abs(xx - cx) <= r) & (np.abs(yy - cy) <= r)
            elif cls == 3:
                m = (
                    (np.abs(xx - cx) <= r)
                    & (np.abs(yy - cy) <= r)
                    & ((np.abs(xx - cx) >= r - 4) | (np.abs(yy - cy) >= r - 4))
                )
            elif cls == 4:
                m = ((np.abs(xx - cx) <= 4) | (np.abs(yy - cy) <= 4)) & (d2 <= (r + 4) ** 2)
            elif cls == 5:
                m = (np.abs((xx - cx) - (yy - cy)) <= 4) | (np.abs((xx - cx) + (yy - cy)) <= 4)
                m &= d2 <= (r + 4) ** 2
            elif cls == 6:
                m = ((yy - cy) % 8 < 4) & (np.abs(xx - cx) <= r) & (np.abs(yy - cy) <= r)
            elif cls == 7:
                m = ((xx - cx) % 8 < 4) & (np.abs(xx - cx) <= r) & (np.abs(yy - cy) <= r)
            elif cls == 8:
                m = (yy - cy >= -r) & (yy - cy <= r) & (np.abs(xx - cx) <= (yy - cy + r) / 2)
            else:
                m = (((xx - cx) // 6 + (yy - cy) // 6) % 2 == 0) & (d2 <= r * r)
            flip = rng.random((48, 48)) < noise
            masks.append(m ^ flip)
            labels.append(cls)
    return np.array(masks), np.array(labels, dtype=np.int64)
