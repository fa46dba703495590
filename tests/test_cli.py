import json
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from handpose import bench, cli, gesture_net, skin_segment
from handpose.cli import main
from handpose.haar_cascade import TreeNode, serialize_cascade
from handpose.imaging import Image, load_pnm, save_pnm

from helpers import BG_COLOR, SKIN_BASE, nearest_rank_oracle
from test_gesture_net import poisoned_weights
from test_pipeline import brightness_cascade, flat_skin_model, scene, zero_network

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture(scope="module")
def zero_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "zero.hgw"
    path.write_bytes(gesture_net.save_weights(zero_network()))
    return path


@pytest.fixture(scope="module")
def mask_image(tmp_path_factory):
    bits = np.random.default_rng(5).integers(0, 2, size=(48, 48)).astype(np.uint8)
    img = Image((bits * 255)[:, :, None])
    path = tmp_path_factory.mktemp("images") / "mask.pgm"
    path.write_bytes(save_pnm(img))
    return path


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    rng = np.random.default_rng(6)
    for label in range(10):
        sub = root / str(label)
        sub.mkdir()
        for i in range(3):
            bits = rng.integers(0, 2, size=(48, 48)).astype(np.uint8)
            sub.joinpath(f"img_{i}.pgm").write_bytes(save_pnm(Image((bits * 255)[:, :, None])))
    return root


@pytest.fixture(scope="module")
def session_assets(tmp_path_factory, zero_weights):
    root = tmp_path_factory.mktemp("session")
    skin = root / "skin.txt"
    skin.write_text(flat_skin_model().to_text())
    cascade = root / "cascade.xml"
    cascade.write_text(serialize_cascade(brightness_cascade()))
    frames = root / "frames"
    frames.mkdir()
    x = 30
    for i in range(8):
        frames.joinpath(f"frame_{i:06d}.ppm").write_bytes(save_pnm(scene((x, 40))))
        x += 2
    return {"skin": skin, "cascade": cascade, "frames": frames, "weights": zero_weights}


class TestExitCodes:
    def test_no_arguments_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--image", "x.pgm"])
        assert exc.value.code == 2

    def test_missing_file_is_domain_error(self, capsys, zero_weights):
        code = main(["classify", "--image", "/nonexistent.pgm", "--weights", str(zero_weights)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_corrupt_weights(self, capsys, mask_image, tmp_path):
        bad = tmp_path / "bad.hgw"
        bad.write_bytes(b"\x00" * 64)
        code = main(["classify", "--image", str(mask_image), "--weights", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_wrong_image_size(self, capsys, zero_weights, tmp_path):
        img = tmp_path / "small.pgm"
        img.write_bytes(save_pnm(Image(np.zeros((10, 10, 1), dtype=np.uint8))))
        code = main(["classify", "--image", str(img), "--weights", str(zero_weights)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "48x48" in err


# subcommand: (its handler, minimal argv naming files that do not exist, seed)
DISPATCH = {
    "fit-skin": (cli._cmd_fit_skin, "--pixels p.csv --out s.txt", None),
    "segment": (cli._cmd_segment, "--image f.ppm --model s.txt --out m.pgm", None),
    "train": (cli._cmd_train, "--data d --out w.hgw --seed 7", 7),
    "eval": (cli._cmd_eval, "--data d --weights w.hgw --report cm.csv", None),
    "classify": (cli._cmd_classify, "--image m.pgm --weights w.hgw", None),
    "detect": (cli._cmd_detect, "--image f.pgm --cascade c.xml", None),
    "track": (cli._cmd_track, "--frames frames --init 1,2,30,30 --seed 8", 8),
    "run": (cli._cmd_run, "--frames frames --skin s.txt --weights w.hgw --cascade c.xml --report r.json", 42),
    "bench": (cli._cmd_bench, "--weights w.hgw --seed 9", 9),
}


@pytest.mark.parametrize("command", DISPATCH, ids=list(DISPATCH))
def test_subcommand_names_its_handler(command, capsys, tmp_path, monkeypatch):
    # the handler comes from the subparser; main echoes the seed of the
    # subcommands that take --seed first, before the handler fails
    handler, flags, seed = DISPATCH[command]
    argv = [command, *flags.split()]
    assert cli.build_parser().parse_args(argv).run is handler
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    if seed is None:
        assert out == ""
    else:
        assert out.splitlines()[0] == f"effective seed {seed}"


def _detect_args(model, *flags, size=(34, 30)):
    def args(tmp_path):
        frame = tmp_path / "frame.pgm"
        frame.write_bytes(save_pnm(Image(np.full(size[::-1], 200, dtype=np.uint8))))
        cascade = tmp_path / "cascade.xml"
        cascade.write_text(serialize_cascade(model))
        return ["detect", "--image", str(frame), "--cascade", str(cascade), *flags]

    return args


def _stray_child_cascade(child):
    """The brightness cascade plus a second node, which the root never
    routes to, that names child `child`."""
    model = brightness_cascade()
    root = model.stages[0].trees[0].nodes[0]
    model.stages[0].trees[0].nodes.append(TreeNode(root.rects, 0.0, left_child=child, right_val=1.0))
    return model


def _nan_stage_cascade():
    model = brightness_cascade()
    model.stages[0].threshold = float("nan")
    return model


def _segment_args(skin_text, frame):
    def args(tmp_path):
        model = tmp_path / "skin.txt"
        model.write_text(skin_text)
        frame_path = tmp_path / "frame.ppm"
        frame_path.write_bytes(save_pnm(frame))
        return ["segment", "--image", str(frame_path), "--model", str(model), "--out", str(tmp_path / "o.pgm")]

    return args


def _skin_bound_args(bound):
    lines = flat_skin_model().to_text().splitlines()
    name, lo, _ = lines[1].split()
    lines[1] = f"{name} {lo} {bound}"
    return _segment_args("\n".join(lines) + "\n", scene((50, 40)))


def _no_hand_args(tmp_path):
    frame = np.empty((60, 80, 3), dtype=np.uint8)
    frame[:, :] = BG_COLOR
    return _segment_args(flat_skin_model().to_text(), Image(frame))(tmp_path)


def _train_args(per_class, *flags):
    def args(tmp_path):
        root = tmp_path / "data"
        for label in range(2):
            sub = root / str(label)
            sub.mkdir(parents=True)
            bits = np.zeros((48, 48, 1), dtype=np.uint8)
            bits[:, : 24 * label + 12] = 255
            for i in range(per_class):
                sub.joinpath(f"{i}.pgm").write_bytes(save_pnm(Image(bits)))
        return ["train", "--data", str(root), "--out", str(tmp_path / "w.hgw"), "--epochs", "2", *flags]

    return args


def _eval_args(classes):
    def args(tmp_path):
        root = tmp_path / "data"
        for label in range(classes):
            sub = root / str(label)
            sub.mkdir(parents=True)
            sub.joinpath("0.pgm").write_bytes(save_pnm(Image(np.zeros((48, 48, 1), dtype=np.uint8))))
        weights = tmp_path / "w.hgw"
        weights.write_bytes(gesture_net.save_weights(zero_network()))
        return ["eval", "--data", str(root), "--weights", str(weights), "--report", str(tmp_path / "cm.csv")]

    return args


def _poisoned_weights_args(tmp_path):
    weights = tmp_path / "w.hgw"
    weights.write_bytes(poisoned_weights(zero_network(), np.nan))
    image = tmp_path / "mask.pgm"
    image.write_bytes(save_pnm(Image(np.full((48, 48), 255, dtype=np.uint8))))
    return ["classify", "--image", str(image), "--weights", str(weights)]


BAD_INPUTS = {
    "child-inf": (_detect_args(_stray_child_cascade("inf")), "child index"),
    "child-1.5": (_detect_args(_stray_child_cascade("1.5")), "child index"),
    "child--0.5": (_detect_args(_stray_child_cascade("-0.5")), "child index"),
    "child-back-to-root": (_detect_args(_stray_child_cascade(0)), "child index"),
    "scale-factor-inf": (_detect_args(brightness_cascade(), "--scale-factor", "inf"), "scale_factor"),
    "scale-factor-nan": (_detect_args(brightness_cascade(), "--scale-factor", "nan"), "scale_factor"),
    "step-fraction-inf": (_detect_args(brightness_cascade(), "--step-fraction", "inf"), "step_fraction"),
    "cascade-stage-nan": (_detect_args(_nan_stage_cascade()), "<stage_threshold> nan is not finite"),
    "skin-bound-overflow": (_skin_bound_args("99999999999999999999"), "channel G"),
    "skin-bound-256": (_skin_bound_args("256"), "channel G"),
    "skin-bound-1e3": (_skin_bound_args("1e3"), "channel G"),
    "segment-no-hand": (_no_hand_args, "no hand region found"),
    "one-image-per-class": (_train_args(1), "validation split is empty"),
    "lr-nan": (_train_args(2, "--lr", "nan"), "learning_rate"),
    "lr-inf": (_train_args(2, "--lr", "inf"), "learning_rate"),
    "weights-nan": (_poisoned_weights_args, "non-finite"),
    "eval-12-classes": (_eval_args(12), "12 class directories, the network has 10 classes"),
}


class TestBadInputs:
    @pytest.mark.parametrize("case", BAD_INPUTS, ids=list(BAD_INPUTS))
    def test_one_error_line(self, capsys, tmp_path, case):
        build_args, expect = BAD_INPUTS[case]
        assert main(build_args(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and err.count("\n") == 1
        assert expect in err and "Traceback" not in err
        assert "epoch" not in out  # a bad training input stops before training

    def test_huge_finite_scale_factor_scans_scale_one(self, capsys, tmp_path):
        argv = _detect_args(brightness_cascade(), "--scale-factor", "1e308")(tmp_path)
        assert main(argv) == 0
        one_scale = capsys.readouterr().out
        # at 1.5 the second scale (36 px) already exceeds the 34x30 frame
        assert main(argv[:-1] + ["1.5"]) == 0
        assert capsys.readouterr().out == one_scale

    @pytest.mark.parametrize("step, same_as", [("1e308", "48"), ("-1e308", "0")])
    def test_huge_finite_step_fraction_scans_the_same_grid(self, capsys, tmp_path, step, same_as):
        # step * scale first overflows to inf at scale 1.1**7 (1.95), where
        # the 24 px window is 47 px: a 48x48 frame reaches that scale, the
        # 34x30 frame above does not
        def detect(fraction):
            argv = _detect_args(brightness_cascade(), f"--step-fraction={fraction}", size=(48, 48))(tmp_path)
            assert main(argv) == 0
            return capsys.readouterr().out

        # a stride of the frame's side scans one position per scale, and a
        # stride under 1 scans every position
        assert detect(step) == detect(same_as) != "0 detections\n"


def _fit_skin_args(*flags):
    def args(tmp_path):
        csv = tmp_path / "pixels.csv"
        csv.write_text("200,120,90\n")
        return ["fit-skin", "--pixels", str(csv), "--out", str(tmp_path / "skin.txt"), *flags]

    return args


class TestNegativeNumberValues:
    """An option value written as a negative number in exponent form, or as
    -inf or -nan, is a value, as in the `--flag=value` form: not an unknown
    option (exit 2)."""

    @pytest.mark.parametrize(
        "build_args, flag, value, code",
        [
            (_detect_args(brightness_cascade(), size=(48, 48)), "--step-fraction", "-1e308", 0),
            (_detect_args(brightness_cascade(), size=(48, 48)), "--step-fraction", "-2.5E-1", 0),
            (_detect_args(brightness_cascade()), "--scale-factor", "-1e-3", 1),
            (_detect_args(brightness_cascade()), "--step-fraction", "-inf", 1),
            (_detect_args(brightness_cascade()), "--scale-factor", "-NaN", 1),
            (_fit_skin_args(), "--alpha", "-1e-3", 1),
        ],
        ids=[
            "step-fraction",
            "step-fraction-upper",
            "scale-factor",
            "step-fraction-inf",
            "scale-factor-nan",
            "fit-skin-alpha",
        ],
    )
    def test_spaced_value_runs_as_the_equals_form(self, capsys, tmp_path, build_args, flag, value, code):
        argv = build_args(tmp_path)
        assert main(argv + [f"{flag}={value}"]) == code
        joined = capsys.readouterr()
        assert main(argv + [flag, value]) == code
        assert capsys.readouterr() == joined
        if code:
            assert joined.err.startswith("error:") and joined.err.count("\n") == 1
        else:
            assert joined.out.endswith(" detections\n") and not joined.err


class TestClassify:
    def test_output_contract(self, capsys, zero_weights, mask_image):
        code = main(["classify", "--image", str(mask_image), "--weights", str(zero_weights)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        parts = out.split()
        assert parts[0] == "label" and parts[2] == "conf"
        assert 0 <= int(parts[1]) <= 9
        # zero network spreads probability uniformly over the 10 classes
        assert float(parts[3]) == pytest.approx(0.1, abs=1e-6)


class TestFitSkinAndSegment:
    def test_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        samples = np.clip(
            SKIN_BASE + rng.integers(-6, 7, size=(200, 3)), 0, 255
        ).astype(np.uint8)
        csv = tmp_path / "pixels.csv"
        csv.write_text("\n".join(",".join(str(v) for v in row) for row in samples) + "\n")
        model_path = tmp_path / "skin.txt"
        assert main(["fit-skin", "--pixels", str(csv), "--out", str(model_path)]) == 0
        model = skin_segment.SkinModel.from_text(model_path.read_text())
        assert model.intervals.shape == (6, 2)

        frame_path = tmp_path / "frame.ppm"
        frame_path.write_bytes(save_pnm(scene((50, 40))))
        out_path = tmp_path / "mask.pgm"
        code = main(
            ["segment", "--image", str(frame_path), "--model", str(model_path), "--out", str(out_path)]
        )
        assert code == 0
        mask = load_pnm(out_path.read_bytes())
        assert (mask.height, mask.width, mask.channels) == (48, 48, 1)
        assert set(np.unique(mask.pixels)) <= {0, 255}

    @pytest.mark.parametrize("bad", ["300,0,0", "-1,0,0", "1,2", "1,2,3,4", "a,b,c", "1.5,2,3"])
    def test_bad_pixel_row_is_one_error_line(self, capsys, tmp_path, bad):
        csv = tmp_path / "pixels.csv"
        csv.write_text(f"200,120,90\n{bad}\n\n")
        assert main(["fit-skin", "--pixels", str(csv), "--out", str(tmp_path / "skin.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line 2" in err and "Traceback" not in err
        assert not (tmp_path / "skin.txt").exists()


class TestTrainEval:
    def test_train_writes_loadable_weights(self, capsys, tiny_dataset, tmp_path):
        out = tmp_path / "trained.hgw"
        code = main(
            ["train", "--data", str(tiny_dataset), "--out", str(out), "--epochs", "1", "--batch-size", "8"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "effective seed 42" in stdout
        net = gesture_net.load_weights(out.read_bytes())
        assert net.forward(np.zeros((1, 1, 48, 48), dtype=np.float32)).shape == (1, 10)

    def test_eval_csv_matches_library(self, capsys, tiny_dataset, zero_weights, tmp_path):
        report = tmp_path / "cm.csv"
        code = main(
            ["eval", "--data", str(tiny_dataset), "--weights", str(zero_weights), "--report", str(report)]
        )
        assert code == 0
        data = gesture_net.load_dataset(tiny_dataset, "otsu", 128)
        cm = gesture_net.evaluate(zero_network(), data)
        assert report.read_text() == cm.to_csv()
        assert f"accuracy {cm.accuracy:.4f}" in capsys.readouterr().out


class TestDetectTrackRun:
    def test_detect_prints_detections(self, capsys, session_assets, tmp_path):
        frame_path = tmp_path / "frame.ppm"
        frame_path.write_bytes(save_pnm(scene((50, 40))))
        code = main(
            ["detect", "--image", str(frame_path), "--cascade", str(session_assets["cascade"])]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].endswith("detections")
        assert int(lines[-1].split()[0]) >= 1

    def test_track_reports_each_frame(self, capsys, session_assets):
        code = main(
            ["track", "--frames", str(session_assets["frames"]), "--init", "30,40,30,30"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "effective seed 42"
        assert len(lines) == 8  # seed line + 7 tracked frames

    def test_track_bad_init(self, capsys, session_assets):
        code = main(["track", "--frames", str(session_assets["frames"]), "--init", "1,2,3"])
        assert code == 1

    def test_run_writes_schema_valid_report(self, capsys, session_assets, tmp_path):
        report_path = tmp_path / "session.json"
        code = main(
            [
                "run",
                "--frames", str(session_assets["frames"]),
                "--skin", str(session_assets["skin"]),
                "--weights", str(session_assets["weights"]),
                "--cascade", str(session_assets["cascade"]),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        jsonschema.validate(payload, load_schema("session_report.schema.json"))
        assert len(payload["frames"]) == 8
        labelled = [f for f in payload["frames"] if f["raw_label"] is not None]
        assert labelled and all(f["raw_label"] == 0 for f in labelled)


class TestBench:
    def test_forward_single_iteration(self, capsys, zero_weights, tmp_path):
        report_path = tmp_path / "bench.json"
        code = main(
            ["bench", "--weights", str(zero_weights), "--iters", "1", "--warmup", "0", "--report", str(report_path)]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        jsonschema.validate(payload, load_schema("bench_report.schema.json"))
        assert payload["iterations"] == 1
        assert payload["mean"] == payload["p50"] == payload["min"] == payload["max"]

    def test_reference_footer_present(self, zero_weights, tmp_path):
        report_path = tmp_path / "bench.json"
        main(["bench", "--weights", str(zero_weights), "--iters", "1", "--report", str(report_path)])
        payload = json.loads(report_path.read_text())
        assert "351" in payload["reference"] and "0.690" in payload["reference"]

    def test_repeated_runs_within_3x(self, capsys, zero_weights):
        net = gesture_net.load_weights(Path(zero_weights).read_bytes())
        means = [bench.bench_forward(net, iters=20, warmup=5, seed=42).stats()["mean"] for _ in range(2)]
        assert means[0] <= 3 * means[1] and means[1] <= 3 * means[0]

    def test_percentiles_match_oracle(self, zero_weights):
        net = gesture_net.load_weights(Path(zero_weights).read_bytes())
        report = bench.bench_forward(net, iters=17, warmup=0, seed=1)
        stats = report.stats()
        assert stats["p50"] == nearest_rank_oracle(report.samples_ms, 0.5)
        assert stats["p95"] == nearest_rank_oracle(report.samples_ms, 0.95)

    def test_pipeline_mode_requires_session_flags(self, capsys, zero_weights):
        code = main(["bench", "--mode", "pipeline", "--weights", str(zero_weights)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_pipeline_mode_samples_per_frame(self, capsys, session_assets, tmp_path):
        report_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--mode", "pipeline",
                "--weights", str(session_assets["weights"]),
                "--frames", str(session_assets["frames"]),
                "--skin", str(session_assets["skin"]),
                "--cascade", str(session_assets["cascade"]),
                "--iters", "2",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        jsonschema.validate(payload, load_schema("bench_report.schema.json"))
        assert payload["iterations"] == 2 * 8

    def test_pipeline_mode_warmup_replays_untimed(self, monkeypatch, capsys, session_assets, tmp_path):
        calls = []
        run_session = bench.run_session
        monkeypatch.setattr(bench, "run_session", lambda frames, cfg: calls.append(1) or run_session(frames, cfg))
        report_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--mode", "pipeline",
                "--weights", str(session_assets["weights"]),
                "--frames", str(session_assets["frames"]),
                "--skin", str(session_assets["skin"]),
                "--cascade", str(session_assets["cascade"]),
                "--iters", "1",
                "--warmup", "2",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["warmup"] == 2
        assert payload["iterations"] == 8
        assert len(calls) == 3

    @pytest.mark.parametrize("mode", ["forward", "pipeline"])
    def test_weights_read_once(self, monkeypatch, capsys, session_assets, tmp_path, mode):
        calls = []
        load_weights = gesture_net.load_weights
        monkeypatch.setattr(gesture_net, "load_weights", lambda data: calls.append(1) or load_weights(data))
        code = main(
            [
                "bench",
                "--mode", mode,
                "--weights", str(session_assets["weights"]),
                "--frames", str(session_assets["frames"]),
                "--skin", str(session_assets["skin"]),
                "--cascade", str(session_assets["cascade"]),
                "--iters", "1",
                "--warmup", "0",
                "--report", str(tmp_path / "bench.json"),
            ]
        )
        assert code == 0
        assert len(calls) == 1
