"""Latency benchmark harness with nearest-rank percentile statistics."""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import rand
from .errors import HandposeError
from .gesture_net import Network
from .pipeline import PipelineConfig, latency_stats, run_session

# published reference point for the same network on a 1.2 GHz embedded
# core: 0.351 s per image at 0.690 W (reported, never asserted here)
REFERENCE_NOTE = "reference: embedded-class core 351 ms / 0.690 W per image"


@dataclass
class BenchReport:
    op: str
    warmup: int
    samples_ms: list

    def stats(self) -> dict:
        return latency_stats(self.samples_ms)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "iterations": len(self.samples_ms),
            "warmup": self.warmup,
            "samples_ms": list(self.samples_ms),
            "environment": platform.platform(),
            "reference": REFERENCE_NOTE,
            **self.stats(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def bench_forward(net: Network, iters: int = 100, warmup: int = 10, seed: int = 42) -> BenchReport:
    """Time single-image forward passes on a fixed random binary input."""
    if iters < 1 or warmup < 0:
        raise HandposeError("need iters >= 1 and warmup >= 0")
    bits = rand.generator(seed, 3).integers(0, 2, size=(48, 48))
    x = bits.astype(np.float32)[None, None]
    for _ in range(warmup):
        net.forward(x)
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        net.forward(x)
        samples.append((time.perf_counter() - t0) * 1000.0)
    return BenchReport("forward", warmup, samples)


def bench_pipeline(frames, cfg: PipelineConfig, iters: int = 1, warmup: int = 0) -> BenchReport:
    """Replay a session `warmup` times untimed, then `iters` times; samples
    are per-frame total_ms."""
    if iters < 1 or warmup < 0:
        raise HandposeError("need iters >= 1 and warmup >= 0")
    for _ in range(warmup):
        run_session(frames, cfg)
    samples = []
    for _ in range(iters):
        report = run_session(frames, cfg)
        samples.extend(f.timings["total_ms"] for f in report.frames)
    return BenchReport("pipeline", warmup, samples)
