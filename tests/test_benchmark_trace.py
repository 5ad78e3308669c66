"""Trace mode of the benchmark runs on kerneltower and every counter it reads moves.

``benchmark/tracing.py`` wraps functions and methods by name and reads
attributes of their results (``Gram.size``, ``FieldBatch.values``,
``CylinderTable.table``) and the ``Kernel(fn, ...)`` constructor.  A
subprocess installs it, since it patches the package for the whole
process, and runs ``tower``, ``gaussian`` and ``boundary`` on a small word
tree.  The benchmark files are read, never edited.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """\
model: {kind: word-tree}
base_points: ["", "1"]
horizon: 3
max_levels: 6
seed: 1
nsamples: 1000
boundary: {cylinder_levels: 3, feature_levels: 2}
"""

# Each AFTER hook is wrapped to record the counters it moves.
SCRIPT = """\
import json, sys
import tracing
from kerneltower.cli import main

moved = {}

def watch(name, hook):
    def after(counts, args, result):
        before = dict(counts)
        hook(counts, args, result)
        moved.setdefault(name, set()).update(k for k in counts if counts[k] != before.get(k))
    return after

tracing.AFTER.update({name: watch(name, hook) for name, hook in tracing.AFTER.items()})
tracer = tracing.Tracer()
tracing.install(tracer)
config, report = sys.argv[1:]
codes = [main([*args, "--config", config, "--out", args[0]])
         for args in (["tower"], ["gaussian", "--max-level", "2"], ["boundary"])]
with open(report, "w") as fh:
    json.dump({"codes": codes, "counts": tracer.counts, "after": sorted(tracing.AFTER),
               "moved": {name: sorted(keys) for name, keys in moved.items()}}, fh)
"""


def test_trace_mode_counts_every_layer(tmp_path):
    (tmp_path / "tree.yaml").write_text(CONFIG)
    path = f"{ROOT / 'src'}:{ROOT / 'benchmark'}"
    subprocess.run([sys.executable, "-c", SCRIPT, "tree.yaml", "report.json"], cwd=tmp_path,
                   env={"PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}, check=True,
                   stdout=subprocess.DEVNULL)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["codes"] == [0, 0, 0]
    assert sorted(report["moved"]) == report["after"]
    counters = {key for keys in report["moved"].values() for key in keys} | {"kernels.evals"}
    assert all(report["counts"].get(key, 0) > 0 for key in counters), report["counts"]
