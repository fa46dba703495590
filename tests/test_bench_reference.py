"""Every frame of a benchmark session equals its recorded reference with ==.

The benchmark's own output check compares tracker confidences to a relative
1e-9; the references store them as `repr` floats, which round-trip exactly,
so this test can hold the pipeline to the last bit. One variant of each
workload that tracks keeps it under 20 s.
"""

import sys
from pathlib import Path

import pytest

from handpose import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import scenes  # noqa: E402
import session as sess  # noqa: E402


@pytest.mark.parametrize("workload, variant", [("track-320x240", 0), ("reacquire-160x120", 3)])
def test_outputs_equal_reference(tmp_path, workload, variant):
    session = scenes.BUILDERS[workload](variant)
    paths = scenes.write_config_files(tmp_path, variant)
    want = sess.load_reference(session, paths)  # raises if the inputs differ
    cfg = pipeline.PipelineConfig.load(*paths, **scenes.CONFIG_KWARGS)
    got = sess.record_outputs(session, cfg)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"frame {i}"
