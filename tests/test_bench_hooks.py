"""The benchmark under `perfbench/` reaches into the library by name: its
tracer swaps timing wrappers onto module attributes and network layers,
and `check_geometry.py` counts the calls of `haar_cascade.evaluate_window`
and `mil_tracker._feature_values`. A rename there must fail here, not only
in a traced benchmark run."""

import inspect
import os
import sys
from pathlib import Path
from unittest import mock

from handpose import gesture_net, mil_tracker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

with mock.patch.dict(os.environ):  # check_geometry pins BLAS threads on import
    import check_geometry  # noqa: E402
import tracing  # noqa: E402


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


def test_geometry_counts_match_wrapped_calls():
    # check_geometry reads the locations as _feature_values' third argument
    assert list(inspect.signature(mil_tracker._feature_values).parameters)[2] == "locs"
    got, want = check_geometry.check_windows(40, 30)
    assert got == want > 0
    got, want = check_geometry.check_candidates((130, 5, 30, 30), (160, 120))
    assert got == want > 0
