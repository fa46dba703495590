"""Seeded mutation fuzzing of the four formats the library parses: weight
files, PNM images, cascade XML and skin-model text. Every mutant must load
or raise HandposeError or ValueError, the two kinds that the CLI reports
as one `error:` line; any other exception is a crash."""

import struct
import zlib

import numpy as np
import pytest

from handpose import gesture_net, rand
from handpose.errors import HandposeError, ShapeMismatch, TruncatedBody
from handpose.haar_cascade import parse_cascade, serialize_cascade
from handpose.imaging import Image, load_pnm, save_pnm
from handpose.skin_segment import SkinModel

from test_haar_cascade import _random_cascade
from test_pipeline import flat_skin_model

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


def weight_mutants():
    """Edits near the file header, each layer record's header and the CRC;
    nine mutants in ten get a valid CRC again, so the later checks run."""
    blob = gesture_net.save_weights(gesture_net.build_network(3))
    anchors, pos = [0], 12
    while pos < len(blob) - 4:
        anchors.append(pos)
        (rank,) = struct.unpack_from("<I", blob, pos + 1)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 5)
        pos += 5 + 4 * rank + 4 * (int(np.prod(dims)) + dims[0])
    anchors.append(len(blob) - 8)
    restamp = rand.generator(3, 1).random(MUTANTS) < 0.9
    for out, fix in zip(mutants(blob, anchors, 40, seed=3), restamp):
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
    rejected = {}
    for i, mutant in enumerate(make()):
        try:
            load(mutant)
        except (HandposeError, ValueError) as exc:
            rejected[type(exc)] = rejected.get(type(exc), 0) + 1
        except Exception as exc:
            pytest.fail(f"{fmt} mutant {i} raised {type(exc).__name__}: {exc}")
    # both outcomes occur, so the edits neither miss nor always break the format
    assert 0 < sum(rejected.values()) < MUTANTS, rejected
    if fmt == "weights":
        # the re-stamped CRC lets mutants reach the record checks
        assert rejected.get(ShapeMismatch) and rejected.get(TruncatedBody), rejected
