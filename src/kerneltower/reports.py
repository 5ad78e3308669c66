"""Run reports and persistence.

One directory per run: summary.json, per-artifact CSVs, and a copy of the
resolved config.  Bundles are byte-deterministic given (config, seed):
floats serialize as shortest round-trip decimals, JSON keys are sorted,
and wall-clock timings never enter persisted files (they are printed to
the console instead).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .points import point_label


def fmt(value):
    """Shortest round-trip text for a cell value."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return str(value)


def jsonable(value):
    """Recursively coerce numpy scalars/arrays for stable JSON output."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)  # JSON has no inf/nan
    return value


@dataclass
class RunReport:
    """Per-run results, as persisted in summary.json."""

    command: str
    config_echo: dict
    results: dict = field(default_factory=dict)

    def summary_dict(self) -> dict:
        return jsonable(
            {
                "artifact_version": __version__,
                "command": self.command,
                "config": self.config_echo,
                "results": self.results,
            }
        )

    def summary_json(self) -> str:
        return json.dumps(self.summary_dict(), indent=2, sort_keys=True) + "\n"


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(x) for x in row] for row in rows)


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it between other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


class Bundle:
    """Accumulates artifacts for one run directory."""

    def __init__(self, outdir, formats=("csv", "json")):
        self.outdir = Path(outdir)
        self.formats = tuple(formats)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def add_csv(self, name, header, rows) -> None:
        if "csv" in self.formats:
            write_csv(self.outdir / name, header, rows)

    def add_gram_csv(self, name, points, entries, columns=None, header="point_a,point_b,value"):
        """One row per entry, in row-major order: the two point labels and the value.

        ``columns``, csv fields already, stand for the column points' labels."""
        if "csv" not in self.formats:
            return
        labels = [_csv_field(point_label(s)) for s in points]
        rows = np.asarray(entries, dtype=float).tolist()
        text = "".join(f"{la},{lb},{v!r}\n" for la, row in zip(labels, rows)
                       for lb, v in zip(columns or labels, row))
        (self.outdir / name).write_text(header + "\n" + text, newline="")

    def finish(self, summary_json: str, config_yaml: str) -> None:
        """Write the run's serialized summary (``RunReport.summary_json``) and its config echo."""
        if "json" in self.formats:
            (self.outdir / "summary.json").write_text(summary_json)
        (self.outdir / "config_resolved.yaml").write_text(config_yaml)
