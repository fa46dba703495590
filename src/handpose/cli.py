"""Command-line surface: every pipeline capability plus the latency bench.

Exit codes: 0 success, 1 ValueError (every domain error) or OSError (one
diagnostic line on stderr), 2 usage error (argparse prints usage).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import bench, gesture_net, haar_cascade, mil_tracker, pipeline, skin_segment
from .errors import HandposeError
from .imaging import load_pnm, luma, save_pnm


def _add_seed(p):
    p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")


def _add_binarize(p):
    p.add_argument("--binarize", choices=("otsu", "fixed"), default="otsu")
    p.add_argument("--threshold", type=int, default=128)


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form (-1e308, -1.5e-3), and -inf
    and -nan, as an option's value, as argparse already reads -1 and -0.5;
    subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="handpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-skin", help="fit a skin model from r,g,b CSV rows")
    p.add_argument("--pixels", required=True, help="CSV of r,g,b skin pixels")
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_fit_skin)

    p = sub.add_parser("segment", help="extract the 48x48 hand mask from a frame")
    p.add_argument("--image", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_segment)

    p = sub.add_parser("train", help="train the gesture classifier")
    p.add_argument("--data", required=True, help="root/<label 0..9>/*.pgm")
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--split", type=float, default=0.8)
    _add_binarize(p)
    _add_seed(p)
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("eval", help="evaluate weights on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--report", required=True, help="confusion-matrix CSV path")
    _add_binarize(p)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("classify", help="classify one 48x48 grayscale image")
    p.add_argument("--image", required=True)
    p.add_argument("--weights", required=True)
    _add_binarize(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("detect", help="run the cascade over one frame")
    p.add_argument("--image", required=True)
    p.add_argument("--cascade", required=True)
    p.add_argument("--scale-factor", type=float, default=1.1)
    p.add_argument("--step-fraction", type=float, default=1.0)
    p.add_argument("--min-neighbors", type=int, default=1)
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("track", help="track an initial box through a frame directory")
    p.add_argument("--frames", required=True)
    p.add_argument("--init", required=True, help="x,y,w,h")
    _add_seed(p)
    p.set_defaults(run=_cmd_track)

    p = sub.add_parser("run", help="full pipeline over a frame directory")
    p.add_argument("--frames", required=True)
    p.add_argument("--skin", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--cascade", required=True)
    p.add_argument("--report", required=True, help="session JSON path")
    _add_seed(p)
    p.set_defaults(run=_cmd_run)

    p = sub.add_parser("bench", help="latency benchmark")
    p.add_argument("--mode", choices=("forward", "pipeline"), default="forward")
    p.add_argument("--weights", required=True)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--frames", help="frame directory (pipeline mode)")
    p.add_argument("--skin", help="skin model path (pipeline mode)")
    p.add_argument("--cascade", help="cascade path (pipeline mode)")
    p.add_argument("--report", help="JSON report path (default stdout)")
    _add_seed(p)
    p.set_defaults(run=_cmd_bench)

    return parser


def _cmd_fit_skin(args):
    rows = []
    for n, line in enumerate(Path(args.pixels).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rgb = [int(v) for v in line.split(",")]
        except ValueError:
            rgb = []
        if len(rgb) != 3 or not all(0 <= v <= 255 for v in rgb):
            raise HandposeError(f"{args.pixels} line {n}: expected r,g,b integers in 0..255, got {line!r}")
        rows.append(rgb)
    model = skin_segment.fit_skin_model(np.array(rows, dtype=np.uint8), args.alpha)
    Path(args.out).write_text(model.to_text())
    print(f"fitted skin model from {len(rows)} pixels -> {args.out}")


def _cmd_segment(args):
    img = load_pnm(Path(args.image).read_bytes())
    model = skin_segment.SkinModel.from_text(Path(args.model).read_text())
    result = skin_segment.extract_hand_patch(img, model)
    if result is None:
        raise HandposeError("no hand region found")
    patch, comp = result
    Path(args.out).write_bytes(save_pnm(patch.to_image()))
    print(f"bbox {comp.bbox} area {comp.area} -> {args.out}")


def _load_dataset(args):
    return gesture_net.load_dataset(args.data, args.binarize, args.threshold)


def _cmd_train(args):
    hyper = gesture_net.Hyper(
        learning_rate=args.lr,
        momentum=args.momentum,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
    )
    data = _load_dataset(args)
    net = gesture_net.build_network(args.seed)
    report = gesture_net.train(net, data, hyper, split=args.split)
    for i, (loss, tr_acc, va_acc) in enumerate(report.epochs):
        print(f"epoch {i + 1}: loss {loss:.4f} train_acc {tr_acc:.4f} val_acc {va_acc:.4f}")
    Path(args.out).write_bytes(gesture_net.save_weights(net))
    print(f"best val_acc {report.best_val_acc:.4f} -> {args.out}")


def _cmd_eval(args):
    net = gesture_net.load_weights(Path(args.weights).read_bytes())
    data = _load_dataset(args)
    cm, acc = gesture_net.evaluate(net, data)
    Path(args.report).write_text(cm.to_csv())
    print(f"accuracy {acc:.4f} -> {args.report}")


def _cmd_classify(args):
    net = gesture_net.load_weights(Path(args.weights).read_bytes())
    img = load_pnm(Path(args.image).read_bytes())
    if img.channels != 1:
        raise HandposeError("classify expects a grayscale image")
    mask = gesture_net.binarize(img.pixels[:, :, 0], args.binarize, args.threshold)
    label, conf = gesture_net.classify_mask(net, mask)
    print(f"label {label} conf {conf:.6f}")


def _cmd_detect(args):
    model = haar_cascade.parse_cascade(Path(args.cascade).read_text())
    img = luma(load_pnm(Path(args.image).read_bytes()))
    detections = haar_cascade.detect_multiscale(
        model,
        img,
        scale_factor=args.scale_factor,
        step_fraction=args.step_fraction,
        min_neighbors=args.min_neighbors,
    )
    for d in detections:
        print(f"bbox {d.bbox[0]},{d.bbox[1]},{d.bbox[2]},{d.bbox[3]} neighbors {d.neighbors}")
    print(f"{len(detections)} detections")


def _cmd_track(args):
    frames = pipeline.load_frame_dir(args.frames)
    bbox = tuple(int(v) for v in args.init.split(","))
    if len(bbox) != 4:
        raise HandposeError("--init must be x,y,w,h")
    state = mil_tracker.init_tracker(next(frames), bbox, seed=args.seed)
    for i, frame in enumerate(frames, start=1):
        result = mil_tracker.track_step(state, frame)
        b = result.bbox
        print(f"frame {i}: bbox {b[0]},{b[1]},{b[2]},{b[3]} conf {result.confidence:.4f}")


def _cmd_run(args):
    cfg = pipeline.PipelineConfig.load(args.skin, args.weights, args.cascade, seed=args.seed)
    frames = pipeline.load_frame_dir(args.frames)
    report = pipeline.run_session(frames, cfg)
    Path(args.report).write_text(report.to_json())
    agg = report.aggregates.get("total_ms", {})
    print(f"{len(report.frames)} frames, mean total {agg.get('mean', 0.0):.3f} ms -> {args.report}")


def _cmd_bench(args):
    if args.mode == "forward":
        net = gesture_net.load_weights(Path(args.weights).read_bytes())
        report = bench.bench_forward(net, args.iters, args.warmup, seed=args.seed)
    else:
        if not (args.frames and args.skin and args.cascade):
            raise HandposeError("pipeline mode needs --frames, --skin and --cascade")
        cfg = pipeline.PipelineConfig.load(args.skin, args.weights, args.cascade, seed=args.seed)
        # replayed `warmup` + `iters` times
        frames = list(pipeline.load_frame_dir(args.frames))
        report = bench.bench_pipeline(frames, cfg, iters=args.iters, warmup=args.warmup)
    text = report.to_json()
    if args.report:
        Path(args.report).write_text(text)
        print(f"bench report -> {args.report}")
    else:
        print(text, end="")
    stats = report.stats()
    print(f"mean {stats['mean']:.3f} ms p50 {stats['p50']:.3f} p95 {stats['p95']:.3f}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed"):
        print(f"effective seed {args.seed}")
    try:
        args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
