"""Record the reference outputs the benchmark checks frames against.

    python3 perfbench/record_reference.py

Run from the repository root on a commit whose outputs are known good. For
each workload and input variant it plays the whole script once from a
fresh state and stores the masked output of every frame (mode, hand box,
raw and smoothed label, tracker confidence) with a fingerprint of the
inputs. Each perfbench/reference/<workload>.json is overwritten.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from handpose import pipeline  # noqa: E402

import scenes  # noqa: E402
import session as sess  # noqa: E402


def record(workload):
    lines = []
    for v in range(scenes.VARIANTS):
        session = scenes.BUILDERS[workload](v)
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            paths = scenes.write_config_files(Path(tmp), v)
            fingerprint = session.fingerprint(paths)
            cfg = pipeline.PipelineConfig.load(*paths, **scenes.CONFIG_KWARGS)
        rows = sess.record_outputs(session, cfg)
        print(f"{workload} variant {v}: {len(rows)} frames", flush=True)
        # one frame per line keeps diffs of a re-recorded reference readable
        frames = ",\n".join("      " + json.dumps(row) for row in rows)
        lines.append(
            f'    "{v}": {{\n      "fingerprint": "{fingerprint}",\n'
            f'      "outputs": [\n{frames}\n      ]\n    }}'
        )
    path = sess.reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f'{{\n  "workload": "{workload}",\n  "variants": {{\n' + ",\n".join(lines) + "\n  }\n}\n"
    )


def main():
    for workload in scenes.WORKLOADS:
        record(workload)


if __name__ == "__main__":
    main()
