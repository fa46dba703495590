"""Check the geometry-derived work counts against counting wrappers.

    python3 perfbench/check_geometry.py

`tracing.windows_scanned` must equal the number of `evaluate_window` calls
one `detect_multiscale` makes, and `tracing.candidates_scored` the number
of locations `track_step` scores. The counts come from geometry so that
they stay defined once the scan and the tracker no longer call per-window
or per-location code; this script pins them to the scalar code they
describe. Prints one line per case and exits 1 on any mismatch.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from handpose import haar_cascade, mil_tracker  # noqa: E402
from handpose.imaging import Image  # noqa: E402

import scenes  # noqa: E402
import tracing  # noqa: E402


def counted(owner, attr, on_call):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        on_call(args)
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return original


def check_windows(width, height):
    gray = Image(np.random.default_rng(0).integers(0, 90, size=(height, width), dtype=np.uint8))
    model = scenes.brightness_cascade()
    calls = [0]
    original = counted(haar_cascade, "evaluate_window", lambda a: calls.__setitem__(0, calls[0] + 1))
    try:
        haar_cascade.detect_multiscale(model, gray)
    finally:
        haar_cascade.evaluate_window = original
    want = tracing.windows_scanned(width, height, model.window, 1.1, 1.0)
    return calls[0], want


def check_candidates(bbox, frame_size):
    gray = Image(np.random.default_rng(1).integers(0, 256, size=frame_size[::-1], dtype=np.uint8))
    state = mil_tracker.init_tracker(gray, bbox, seed=7)
    rows = []
    # the first _feature_values call of a step scores the search disc
    original = counted(mil_tracker, "_feature_values", lambda a: rows.append(len(a[2])))
    try:
        mil_tracker.track_step(state, gray)
    finally:
        mil_tracker._feature_values = original
    want = tracing.candidates_scored(bbox, frame_size, state.params.search_radius)
    return rows[0], want


def main():
    ok = True
    cases = [
        (f"windows {w}x{h}", check_windows(w, h)) for w, h in ((160, 120), (320, 240))
    ] + [
        (f"candidates bbox {b} frame {f}", check_candidates(b, f))
        for b, f in (
            ((140, 100, 36, 36), (320, 240)),
            ((0, 0, 30, 30), (160, 120)),
            ((130, 5, 30, 30), (160, 120)),
        )
    ]
    for name, (got, want) in cases:
        status = "ok" if got == want else "MISMATCH"
        ok &= got == want
        print(f"{name}: counted {got}, formula {want}: {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
