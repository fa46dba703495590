"""Online multiple-instance boosting tracker over random Haar-like features.

Each weak classifier keeps running Gaussians for the positive and negative
class of one feature and scores patches by the log-likelihood ratio. Every
frame the tracker scores a disc of candidate offsets, moves to the argmax,
then updates all classifiers from a positive bag around the new location
and negatives sampled from an annulus, and greedily re-selects the
classifiers that maximize the noisy-OR bag likelihood.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import rand
from .errors import HandposeError, PatchOutOfFrame
from .imaging import Image, IntegralTable, integral_image, luma


@dataclass
class MILParams:
    search_radius: ClassVar[int] = 25
    pos_radius: ClassVar[int] = 4
    neg_inner: ClassVar[float] = 2.0 * pos_radius
    neg_outer: ClassVar[float] = 1.5 * search_radius
    gamma: ClassVar[float] = 0.85
    sigma_floor: ClassVar[float] = 1e-3
    num_features: int = 250
    num_selected: int = 50
    num_negatives: int = 65

    def __post_init__(self):
        if self.num_selected > self.num_features:
            raise HandposeError("num_selected cannot exceed num_features")


@dataclass
class TrackResult:
    bbox: tuple
    confidence: float


@dataclass
class TrackerState:
    bbox: tuple
    frame_size: tuple  # (w, h)
    params: MILParams
    # flattened feature pool: one rect (x, y, w, h) per row of `rects`,
    # grouped by feature; feature f owns rows feat_start[f]:feat_start[f + 1]
    rects: np.ndarray
    rect_weight: np.ndarray
    feat_start: np.ndarray
    mu1: np.ndarray
    sg1: np.ndarray
    mu0: np.ndarray
    sg0: np.ndarray
    selected: np.ndarray = field(init=False)  # set by every _mil_update
    rng: np.random.Generator = field(repr=False)


def _generate_features(pw: int, ph: int, m: int, seed: int):
    """Random 2-4 rect features with weights in [-1, 1], inside a pw x ph patch."""
    rng = rand.generator(seed, 7)
    rows = []
    feat_start = [0]
    for _ in range(m):
        for _ in range(int(rng.integers(2, 5))):
            x = int(rng.integers(0, pw))
            y = int(rng.integers(0, ph))
            w = int(rng.integers(1, pw - x + 1))
            h = int(rng.integers(1, ph - y + 1))
            weight = float(rng.uniform(-1.0, 1.0))
            rows.append((x, y, w, h, weight))
        feat_start.append(len(rows))
    arr = np.array(rows, dtype=np.float64)
    return arr[:, :4].astype(np.intp), arr[:, 4], np.array(feat_start, dtype=np.intp)


def _feature_values(state: TrackerState, integral: IntegralTable, locs: np.ndarray, feats: np.ndarray):
    """Values of the given features at patch top-left corners `locs` (n, 2),
    in the table's own coordinates.

    Returns (n_locs, len(feats)) float64, normalized by the patch area.
    Each column sums its feature's weighted rects in pool order from 0.0:
    pass k adds rect k of every feature that has one (features have 2-4).
    Rect sums are exact, so they do not depend on where the table starts.
    """
    start = state.feat_start[feats]
    n_rects = state.feat_start[feats + 1] - start
    # work on the columns by descending rect count, so pass k adds onto a prefix
    order = np.argsort(-n_rects, kind="stable")
    start, n_rects = start[order], n_rects[order]
    rect_sums = integral.rect_sums(locs, state.bbox[2:], int(n_rects.sum()))
    area = state.bbox[2] * state.bbox[3]
    # one row per column, so pass k adds onto the first c rows
    acc = np.zeros((len(feats), len(locs)), dtype=np.float64)
    buf = np.empty_like(acc)  # every pass's float products
    for k in range(4):
        c = np.count_nonzero(n_rects > k)
        r = start[:c] + k
        v = buf[:c]
        v[...] = rect_sums(*state.rects[r].T)  # float(sum), exact ints below 2**53
        v *= state.rect_weight[r, None]
        v /= area
        acc[:c] += v
    out = np.empty((len(locs), len(feats)), dtype=np.float64)
    out[:, order] = acc.T
    return out


def _llr(state: TrackerState, values: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Gaussian log-likelihood ratio log(p1/p0) per value column:
    log(sg0 / sg1) + (v - mu0)^2 / (2 sg0^2) - (v - mu1)^2 / (2 sg1^2),
    in that order, in two buffers of the values' shape."""
    mu1, sg1 = state.mu1[feats], state.sg1[feats]
    mu0, sg0 = state.mu0[feats], state.sg0[feats]
    a = np.subtract(values, mu0)
    np.square(a, out=a)
    a /= 2.0 * sg0**2
    np.add(np.log(sg0 / sg1), a, out=a)
    b = np.subtract(values, mu1)
    np.square(b, out=b)
    b /= 2.0 * sg1**2
    return np.subtract(a, b, out=a)


@functools.lru_cache(maxsize=8)
def _disc(outer: float, inner: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (dx, dy) with inner^2 < dy^2+dx^2 <= outer^2, in
    lexicographic (dy, dx) order; no inner bound when `inner` is None.
    Read-only, since every caller with these radii shares them (a tracker
    uses three pairs)."""
    r = int(np.floor(outer))
    dy, dx = np.mgrid[-r : r + 1, -r : r + 1]
    d2 = dy**2 + dx**2
    keep = d2 <= outer**2
    if inner is not None:
        keep &= d2 > inner**2
    dx, dy = dx[keep], dy[keep]
    dx.flags.writeable = dy.flags.writeable = False
    return dx, dy


def _locations(state: TrackerState, outer: float, inner: float | None = None) -> np.ndarray:
    """In-frame patch corners (x, y) at integer offsets (dy, dx) from the box
    with inner^2 < dy^2+dx^2 <= outer^2, in lexicographic (dy, dx) order.

    The seeded negative draw and track_step's first-max tie rule rely on
    that order. No inner bound when `inner` is None.
    """
    x, y, w, h = state.bbox
    fw, fh = state.frame_size
    dx, dy = _disc(outer, inner)
    # clip the offsets to the frame; the box itself is always in frame
    keep = (dx >= -x) & (dx <= fw - w - x) & (dy >= -y) & (dy <= fh - h - y)
    return np.stack([x + dx[keep], y + dy[keep]], axis=1)


def _update_gaussians(state: TrackerState, cur_vals, neg_vals, first=False):
    """Running-average update of the class Gaussians with rate gamma.

    The positive Gaussian follows the instance at the tracked location so
    that on an unchanged frame the score surface peaks exactly there; its
    sigma shrinks toward the floor as the appearance stays consistent. On
    the very first update there is no history to blend with, so the
    Gaussians are set directly from the sample statistics. With no
    negative location in frame the negative Gaussians keep their previous
    values (the N(0, 1) prior on the first update).
    """
    g = 0.0 if first else state.params.gamma
    floor = state.params.sigma_floor

    def blend(mu, sg, vals):
        var = g * sg**2 + (1.0 - g) * vals.var(axis=0)
        return g * mu + (1.0 - g) * vals.mean(axis=0), np.maximum(np.sqrt(var), floor)

    state.mu1, state.sg1 = blend(state.mu1, state.sg1, cur_vals)
    if len(neg_vals):
        state.mu0, state.sg0 = blend(state.mu0, state.sg0, neg_vals)


# from this |x| on, 1 - sigmoid(x) is exactly 0 (x > 0) or 1 (x < 0) in float64
_SATURATED = 40.0


def _sigmoid_complement(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None):
    """1 - sigmoid(x), bit for bit as 1.0 - where(x >= 0, 1/(1+e), e/(1+e))
    with e = exp(-|x|). `out` and `scratch` are optional buffers of x's
    shape, distinct from x.

    The exponent is clamped at -40: for |x| >= 40 both exp(-40) and the
    true e are below 2**-54, so 1 + e == 1 and 1 - e == 1 in float64 and
    the result is exactly 0 (x >= 40) or 1 (x <= -40) whatever e is. The
    clamp keeps exp off its slow underflow path; LLRs reach -6e8.
    """
    e = np.abs(x, out=scratch)
    np.minimum(e, _SATURATED, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.add(e, 1.0, out=out)
    np.putmask(e, x >= 0, 1.0)  # numerator: 1 where x >= 0, e below
    np.divide(e, out, out=out)
    return np.subtract(1.0, out, out=out)


def _select_classifiers(state: TrackerState, llr: np.ndarray, n_pos: int):
    """Greedy pick of K classifiers maximizing the noisy-OR bag likelihood.

    llr: (n_instances, M) per-classifier LLRs at the bag locations, the
    n_pos positives first, then the negatives. Each round scores every
    classifier as log P(positive bag) + sum log P(negative instance) with
    P(positive bag) = 1 - prod(1 - p) over the positives (noisy-OR), where
    p is the sigmoid of the running strong classifier plus that column.
    Returns the chosen indices in pick order.

    Each round works only on the live rows, those with not
    h + max(llr row) <= -40; the result is bit for bit that of all rows:
    - rounded addition is monotonic, so fl(h + row max) <= -40 holds
      exactly when fl(h + llr[r, j]) <= -40 in every column j;
    - then every q of the row is exactly 1.0 (see _sigmoid_complement),
      a factor of 1.0 in the product and a term log(1) = +0.0 in the sum;
    - log never returns -0.0, so dropping +0.0 terms moves no partial sum;
    - the axis-0 reductions accumulate each column row by row, so the live
      rows keep their order and every column is kept.
    A row is tested afresh each round, since a positive llr[:, best] can
    bring it back; a NaN row fails the test and stays live.

    A round whose positive bag is decided, with fl(h + row min) >= 40 in
    some positive row, scores only the live negatives from ll = zeros:
    by the same monotonicity every q of that row is exactly 0.0, so the
    product (other factors in [0, 1]) is 0.0 and the positive term is
    log(1) = +0.0. A non-finite positive entry turns this off for the
    call, since 0 * NaN is NaN and h + inf can meet -inf; h of a decided
    row can fall back below 40, so the test too is made afresh each round.
    With no live row every column scores alike (+0.0 if decided, else
    log(eps)), so the round picks the first column not yet chosen.
    """
    eps = 1e-12
    h = np.zeros(llr.shape[0])
    row_max, pos_min = llr.max(axis=1), llr[:n_pos].min(axis=1)
    can_decide = bool(np.isfinite(llr[:n_pos]).all())
    x_buf, q_buf, scratch_buf = np.empty_like(llr), np.empty_like(llr), np.empty_like(llr)
    chosen = np.empty(state.params.num_selected, dtype=np.intp)
    for i in range(len(chosen)):
        live = np.flatnonzero(~(h + row_max <= -_SATURATED))
        live_pos = int(np.searchsorted(live, n_pos))
        decided = can_decide and bool((h[:n_pos] + pos_min >= _SATURATED).any())
        if decided:
            live, live_pos = live[live_pos:], 0
        n = len(live)
        ll = np.zeros(llr.shape[1])
        if n:
            x, q = np.add(h[live, None], llr[live], out=x_buf[:n]), q_buf[:n]
            _sigmoid_complement(x, out=q, scratch=scratch_buf[:n])  # q = 1 - p
            if not decided:
                ll = np.log(np.maximum(1.0 - np.multiply.reduce(q[:live_pos], axis=0), eps))
            neg = np.maximum(q[live_pos:], eps, out=q[live_pos:])
            ll += np.add.reduce(np.log(neg, out=neg), axis=0)
        ll[chosen[:i]] = -np.inf
        best = int(ll.argmax())
        chosen[i] = best
        h += llr[:, best]
    return chosen


def _window_table(state: TrackerState, frame: Image, reach: int):
    """Sum table of the frame's luma over the box grown by `reach` on every
    side and clipped to the frame, with its origin (x, y) in the frame.

    A tracker call tables only what it reads: its patches lie within
    `reach` of the box."""
    x, y, w, h = state.bbox
    x0, y0 = max(0, x - reach), max(0, y - reach)
    window = Image(frame.pixels[y0 : y + h + reach, x0 : x + w + reach])
    return integral_image(luma(window), squared=False), np.array([x0, y0])


def _mil_update(state: TrackerState, integral: IntegralTable, origin: np.ndarray, first=False):
    """Form bags around the current bbox, update Gaussians, re-select K.
    `integral` covers the bags; `origin` is its corner in the frame."""
    p = state.params
    pos_locs = _locations(state, p.pos_radius)
    neg_locs = _locations(state, p.neg_outer, p.neg_inner)
    if len(neg_locs) > p.num_negatives:
        pick = np.sort(state.rng.choice(len(neg_locs), p.num_negatives, replace=False))
        neg_locs = neg_locs[pick]

    # one pass over the rows [centre; positive disc; negatives]
    n = len(pos_locs)
    locs = np.concatenate([[state.bbox[:2]], pos_locs, neg_locs])
    all_feats = np.arange(p.num_features, dtype=np.intp)
    vals = _feature_values(state, integral, locs - origin, all_feats)
    _update_gaussians(state, vals[:1], vals[1 + n :], first)
    llr = _llr(state, vals[1:], all_feats)
    state.selected = _select_classifiers(state, llr, n)


def init_tracker(frame: Image, bbox, params: MILParams = MILParams(), seed: int = 42) -> TrackerState:
    """Seeded feature pool plus one bag update at the initial box; the
    frame is RGB or gray."""
    x, y, w, h = bbox
    if w < 1 or h < 1:
        raise HandposeError(f"bbox {bbox} needs positive width and height")
    if w * h < 16:
        raise HandposeError(f"bbox area {w * h} below minimum 16")
    if x < 0 or y < 0 or x + w > frame.width or y + h > frame.height:
        raise HandposeError(f"bbox {bbox} outside {frame.width}x{frame.height} frame")
    rects, rect_weight, feat_start = _generate_features(w, h, params.num_features, seed)
    m = params.num_features
    state = TrackerState(
        bbox=(x, y, w, h),
        frame_size=(frame.width, frame.height),
        params=params,
        rects=rects,
        rect_weight=rect_weight,
        feat_start=feat_start,
        mu1=np.zeros(m),
        sg1=np.ones(m),
        mu0=np.zeros(m),
        sg0=np.ones(m),
        rng=rand.generator(seed, 11),
    )
    _mil_update(state, *_window_table(state, frame, int(params.neg_outer)), first=True)
    return state


def track_step(state: TrackerState, frame: Image) -> TrackResult:
    """One tracking iteration: move to the best-scoring offset, then learn.
    The frame is RGB or gray; only the pixels within search_radius +
    floor(neg_outer) of the box are read."""
    if (frame.width, frame.height) != state.frame_size:
        raise PatchOutOfFrame("frame size changed mid-session")
    p = state.params
    integral, origin = _window_table(state, frame, p.search_radius + int(p.neg_outer))
    locs = _locations(state, p.search_radius)
    vals = _feature_values(state, integral, locs - origin, state.selected)
    scores = _llr(state, vals, state.selected).sum(axis=1)
    best = int(scores.argmax())  # first max: smallest (dy, dx) wins ties
    state.bbox = (int(locs[best, 0]), int(locs[best, 1]), state.bbox[2], state.bbox[3])
    confidence = float(scores[best]) / len(state.selected)
    _mil_update(state, integral, origin)
    return TrackResult(state.bbox, confidence)


def confidence_ok(result: TrackResult, threshold: float) -> bool:
    """Inclusive confidence gate used to trigger pipeline re-detection."""
    return result.confidence >= threshold
