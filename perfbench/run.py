"""Seeded session benchmark for the handpose pipeline.

    python3 perfbench/run.py --workload track-320x240 --seed 3 --seconds 36 --trace 0

Run from the repository root. It builds the workload's inputs from the
seed, times ``PipelineConfig.load`` (set-up), then drives
``pipeline.advance`` frame by frame in a closed loop for ``--seconds`` and
checks every frame's output against the recorded reference. It prints one
line per metric (value, unit, sample count) and, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The traced run spends the first half of its time untraced
and the second half traced, to measure the cost of tracing, and writes its
spans under ``.perfbench_out/``.

Exit status: 0 when every frame matched, 1 when the output check failed
(the result line is still printed), 2 when the benchmark could not run.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

# Set-up is timed this many times before and after the session, and once
# after every full pass, so that its median spans the whole run rather than
# the one moment before it.
SETUP_REPEATS = 10


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def time_setup(paths, scenes, pipeline, samples, repeats=1):
    """Time `repeats` calls of PipelineConfig.load, appending (normalized,
    wall) times in s to `samples`; returns the last config loaded."""
    for _ in range(repeats):
        cfg, norm, wall = speed.timed(lambda: pipeline.PipelineConfig.load(*paths, **scenes.CONFIG_KWARGS), "step")
        samples.append((norm, wall))
    return cfg


def nearest_rank(sorted_values, q):
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def end_to_end_metrics(loop, setup_samples):
    """({name: (value, unit, samples)} for the result line, the same for
    the table only) of one untraced run, over its whole passes. Times in
    the result line are normalized to the reference speed (speed.py)."""
    ok = [r for r in loop.whole_passes() if not r.raised]
    det = [r for r in ok if r.entry_mode == "DETECTING"]
    trk_ms = sorted(r.norm_seconds * 1000.0 for r in ok if r.entry_mode == "TRACKING")
    ious = [r.iou for r in loop.records if r.iou is not None]

    def median_ms(recs, normalized=True):
        if not recs:
            return 0.0
        return statistics.median(1000.0 * (r.norm_seconds if normalized else r.seconds) for r in recs)

    m = {
        "frame_ms_p50_norm": (median_ms(ok), "ms", len(ok)),
        "setup_s": (statistics.median(n for n, _ in setup_samples), "s", len(setup_samples)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    # Printed for reading, not part of the result line: see README.md.
    extra = {
        "fps_norm": (loop.fps_norm(), "1/s", len(ok)),
        "detecting_frame_ms_p50_norm": (median_ms(det), "ms", len(det)),
        "tracking_frame_ms_p50_norm": (statistics.median(trk_ms) if trk_ms else None, "ms", len(trk_ms)),
        "tracking_frame_ms_p90_norm": (
            nearest_rank(trk_ms, 0.9) if len(trk_ms) - math.ceil(0.9 * len(trk_ms)) >= 10 else None,
            "ms",
            len(trk_ms),
        ),
        "frame_ms_p50_wall": (median_ms(ok, normalized=False), "ms", len(ok)),
        "setup_s_wall": (statistics.median(w for _, w in setup_samples), "s", len(setup_samples)),
        "frames_failed_frac": (loop.failed / loop.attempted, "frac", loop.attempted),
        "hand_iou_mean": (statistics.fmean(ious) if ious else None, "ratio", len(ious)),
    }
    return m, extra


def mode_counts(loop):
    """(tracker drops, mode switches) over the run's frames."""
    drops = sum(r.entry_mode == "TRACKING" and r.exit_mode == "DETECTING" and not r.raised for r in loop.records)
    switches = sum(r.entry_mode != r.exit_mode for r in loop.records)
    return drops, switches


def print_table(title, metrics):
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:42s} {shown:>14s} {unit:12s} n={n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        from handpose import pipeline

        import scenes
        import session as sess
        import tracing as tr
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in scenes.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {scenes.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    session = scenes.build_session(args.workload, args.seed)
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    paths = scenes.write_config_files(run_dir, session.variant)
    try:
        reference = sess.load_reference(session, paths)
    except (OSError, KeyError, ValueError, RuntimeError) as exc:
        print(f"perfbench: no usable reference: {exc}", file=sys.stderr)
        return 2
    print(
        f"# workload {args.workload} seed {args.seed} variant {session.variant} "
        f"script {len(session.frames)} frames, closed loop, 1 client"
    )

    setup_samples = []
    cfg = time_setup(paths, scenes, pipeline, setup_samples, SETUP_REPEATS)
    if args.trace == 0:
        loop = sess.run_loop(
            session,
            cfg,
            args.seconds,
            reference,
            after_pass=lambda: time_setup(paths, scenes, pipeline, setup_samples),
        )
        time_setup(paths, scenes, pipeline, setup_samples, SETUP_REPEATS)
        metrics, extra = end_to_end_metrics(loop, setup_samples)
        print_table("end to end", {**metrics, **extra})
        loops = [loop]
    else:
        plain = sess.run_loop(session, cfg, args.seconds / 2, reference)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced_cfg = time_setup(paths, scenes, pipeline, [], SETUP_REPEATS)
            tracer.install_network(traced_cfg.network)
            traced = sess.run_loop(session, traced_cfg, args.seconds / 2, reference, advance=tracer.advance)
        finally:
            tracer.uninstall()
        drops, switches = mode_counts(traced)
        layer = tr.per_layer_metrics(tracer, traced.attempted, drops, switches)
        # Same frames on both sides: the shorter run's prefix of the script.
        n = min(plain.attempted, traced.attempted)
        t_plain = sum(r.norm_seconds for r in plain.records[:n])
        t_traced = sum(r.norm_seconds for r in traced.records[:n])
        layer["trace_overhead_frac"] = (t_traced / t_plain - 1.0, "frac", n)
        print_table("per layer (traced half)", layer)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        loops = [plain, traced]
        metrics = layer

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
