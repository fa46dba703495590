"""Seeded mutation fuzzing of the four formats the library parses: weight
files, PNM images, cascade XML and skin-model text. Every mutant must load
or raise ValueError (every HandposeError is one), the kind that the CLI
reports as one `error:` line; any other exception is a crash. The same
mutants, written as input files, go through the CLI subcommands that read
them."""

import re
import struct
import zlib
from collections import Counter

import numpy as np
import pytest

from handpose import gesture_net, rand
from handpose.cli import main
from handpose.haar_cascade import parse_cascade, serialize_cascade
from handpose.imaging import Image, load_pnm, save_pnm
from handpose.skin_segment import SkinModel

from test_haar_cascade import _random_cascade
from test_pipeline import brightness_cascade, flat_skin_model, scene, zero_network

MUTANTS = 500
# bytes that make a header field, a number or a tag boundary go wrong
STRUCTURAL = b"0123456789 -.e\n<>/\x00\xff"


def mutants(blob, anchors, span, seed):
    """MUTANTS copies of `blob`, each with 1-3 edits within `span` bytes
    after one of `anchors`: overwrite a byte, insert or delete up to four,
    or cut the rest off."""
    rng = rand.generator(seed, 0)
    for _ in range(MUTANTS):
        out = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            pos = min(int(rng.choice(anchors)) + int(rng.integers(0, span)), len(out))
            op = int(rng.integers(0, 4))
            if op == 0 and pos < len(out):
                pick = rng.integers(0, 256) if rng.random() < 0.5 else rng.choice(list(STRUCTURAL))
                out[pos] = int(pick)
            elif op == 1:
                out[pos:pos] = rng.integers(0, 256, int(rng.integers(1, 5)), dtype=np.uint8).tobytes()
            elif op == 2:
                del out[pos : pos + int(rng.integers(1, 5))]
            else:
                del out[pos:]
        yield out


def weight_mutants(seed=3):
    """Edits near the file header, each layer record's header and the CRC;
    nine mutants in ten get a valid CRC again, so the later checks run."""
    blob = gesture_net.save_weights(gesture_net.build_network(seed))
    anchors, pos = [0], 12
    while pos < len(blob) - 4:
        anchors.append(pos)
        (rank,) = struct.unpack_from("<I", blob, pos + 1)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 5)
        pos += 5 + 4 * rank + 4 * (int(np.prod(dims)) + dims[0])
    anchors.append(len(blob) - 8)
    restamp = rand.generator(seed, 1).random(MUTANTS) < 0.9
    for out, fix in zip(mutants(blob, anchors, 40, seed), restamp):
        if fix and len(out) >= 4:
            out[-4:] = struct.pack("<I", zlib.crc32(bytes(out[:-4])) & 0xFFFFFFFF)
        yield bytes(out)


def pnm_mutants():
    pixels = rand.generator(4, 0).integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    return (bytes(m) for m in mutants(save_pnm(Image(pixels)), [0], 24, seed=4))


def cascade_mutants():
    doc = serialize_cascade(_random_cascade(rand.generator(5, 0), 12, 10)).encode()
    return (m.decode("latin-1") for m in mutants(doc, [0], len(doc), seed=5))


def skin_mutants():
    doc = flat_skin_model().to_text().encode()
    return (m.decode("latin-1") for m in mutants(doc, [0], len(doc), seed=6))


FORMATS = {
    "weights": (weight_mutants, gesture_net.load_weights),
    "pnm": (pnm_mutants, load_pnm),
    "cascade": (cascade_mutants, parse_cascade),
    "skin": (skin_mutants, SkinModel.from_text),
}


@pytest.mark.parametrize("fmt", FORMATS, ids=list(FORMATS))
def test_mutant_loads_or_raises_domain_error(fmt):
    make, load = FORMATS[fmt]
    rejected = Counter()
    for i, mutant in enumerate(make()):
        try:
            load(mutant)
        except ValueError as exc:
            rejected[str(exc)] += 1
        except Exception as exc:
            pytest.fail(f"{fmt} mutant {i} raised {type(exc).__name__}: {exc}")
    # both outcomes occur, so the edits neither miss nor always break the format
    assert 0 < rejected.total() < MUTANTS, rejected
    if fmt == "weights":
        # the re-stamped CRC lets mutants reach the record checks: a record
        # that does not fit the network, and one cut short
        assert any(re.search("layer records, found|does not match|trailing bytes", m) for m in rejected), rejected
        assert any(re.search("truncated|shorter than", m) for m in rejected), rejected


# ---------------------------------------------------------- through the CLI

CLI_MUTANTS = 200  # per subcommand
# 40x30 frames, so that even a mutant cascade that accepts every window
# leaves few windows to group
FRAME = save_pnm(scene((12, 8), side=16, size=(40, 30)))
MASK = save_pnm(Image(np.where(np.arange(48)[:, None] < 20, 255, 0).repeat(48, axis=1)))
BASE_FILES = {
    "frame.ppm": FRAME,
    "frames/0.ppm": FRAME,
    "frames/1.ppm": FRAME,
    "frames/2.ppm": FRAME,
    "mask.pgm": MASK,
    "data/0/0.pgm": MASK,
    "data/1/0.pgm": MASK,
    "skin.txt": flat_skin_model().to_text().encode(),
    "cascade.xml": serialize_cascade(brightness_cascade(win=12)).encode(),
    "weights.hgw": gesture_net.save_weights(zero_network()),
}
# subcommand: (the input files it reads whose mutants it gets, arguments)
CLI_COMMANDS = {
    "segment": (("frame.ppm", "skin.txt"), "segment --image frame.ppm --model skin.txt --out out.pgm"),
    "detect": (("frame.ppm", "cascade.xml"), "detect --image frame.ppm --cascade cascade.xml"),
    "classify": (("mask.pgm", "weights.hgw"), "classify --image mask.pgm --weights weights.hgw"),
    "eval": (("data/1/0.pgm", "weights.hgw"), "eval --data data --weights weights.hgw --report cm.csv"),
    "track": (("frames/1.ppm",), "track --frames frames --init 12,8,16,16"),
    "run": (
        ("frames/1.ppm", "skin.txt", "weights.hgw", "cascade.xml"),
        "run --frames frames --skin skin.txt --weights weights.hgw --cascade cascade.xml --report s.json",
    ),
}


def file_mutants(name, seed):
    """Mutants of one input file: weight files as above, PNM edits near
    the header, text edits anywhere (as bytes, so some are not UTF-8)."""
    if name.endswith(".hgw"):
        return weight_mutants(seed)
    blob = BASE_FILES[name]
    span = 24 if name.endswith((".ppm", ".pgm")) else len(blob)
    return (bytes(m) for m in mutants(blob, [0], span, seed))


@pytest.mark.filterwarnings("error")  # a warning is a second stderr line
@pytest.mark.parametrize("command", CLI_COMMANDS, ids=list(CLI_COMMANDS))
def test_cli_mutant_exits_zero_or_one_error_line(command, tmp_path, monkeypatch, capsys):
    names, args = CLI_COMMANDS[command]
    for name, blob in BASE_FILES.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(blob)
    monkeypatch.chdir(tmp_path)
    streams = [file_mutants(name, seed=100 + i) for i, name in enumerate(names)]
    codes = []
    for i in range(CLI_MUTANTS):
        name = names[i % len(names)]
        mutant = next(streams[i % len(names)])
        (tmp_path / name).write_bytes(mutant)
        try:
            code = main(args.split())
        except Exception as exc:
            pytest.fail(f"{command} on mutant {i} of {name} raised {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        detail = f"{command} on mutant {i} of {name}: {mutant[:40]!r}"
        assert code in (0, 1), detail
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, f"{detail}\n{err}"
        else:
            assert err == "", f"{detail}\n{err}"
        codes.append(code)
        (tmp_path / name).write_bytes(BASE_FILES[name])
    # both outcomes occur, so the edits neither miss nor always break the inputs
    assert 0 in codes and 1 in codes, codes
