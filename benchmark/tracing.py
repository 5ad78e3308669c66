"""Span tracing of kerneltower's public functions, installed from outside.

``install`` wraps the public functions of each package module and rebinds
every module-level name that refers to the original, so calls made through
``from .x import f`` copies (``kerneltower.cli.build_tower``,
``kerneltower.diagonal.tower_gram_iter``, ...) are timed too.  Methods are
wrapped on their class.  Generators are timed per ``next()``.  Kernel
evaluations are counted by wrapping the function each ``Kernel`` holds.

A span is ``(name, start, end, parent)`` in process CPU seconds; spans
stay in memory and are written once, when the traced process ends.  Nothing under ``src/``
changes: with tracing off none of this module is imported.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# Span name -> the public functions it times, per defining module.  A
# span name is "<layer>.<part>"; the layer is the package module.
FUNCTIONS = {
    "points": {
        "points.orbit": ["orbit_closure", "orbit_points_by_level", "enumerate_words"],
    },
    "kernels": {
        "kernels.gram": ["gram"],
        "kernels.psd": ["psd_check", "psd_leq"],
        "kernels.sqrt": ["sqrt_factor"],
    },
    "models": {
        "models.build": ["build_model", "load_finite_state", "feeder_model"],
    },
    "config": {
        "config.load": ["load_config", "parse_config"],
    },
    "tower": {
        "tower.gram_iter": ["tower_gram_iter"],
        "tower.build": ["build_tower", "subinvariance_check", "invariance_residual",
                        "minimality_check", "defect_embedding"],
        "tower.words": ["level_via_words"],
        "tower.estimate": ["estimate_K_infinity"],
    },
    "diagonal": {
        "diagonal.trace": ["diagonal_trace"],
        "diagonal.layer_cake": ["layer_cake_check", "level_set_count"],
        # Lyapunov certificates where the diagonal converges, blow-up
        # witnesses where it does not.
        "diagonal.certify": ["lyapunov_verify", "tail_bound", "blowup_detect"],
    },
    "gaussian": {
        "gaussian.cov": ["empirical_covariance", "sample_covariance"],
        "gaussian.martingale": ["martingale_checks"],
        "gaussian.limit_fields": ["limit_fields"],
        "gaussian.probe": ["boundedness_probe"],
    },
    "boundary": {
        "boundary.doob": ["build_doob", "gauge_from_tower"],
        "boundary.cylinder": ["cylinder_measure", "sample_path"],
        "boundary.intertwining": ["intertwining_check"],
        "boundary.normalization": ["normalization_commutes", "tilde_word_expansion"],
        "boundary.feature_gram": ["boundary_feature_gram"],
    },
}

# Span name -> (module, class, method).
METHODS = {
    "models.build": [("models", "WordTreeModel", "__init__"),
                     ("models", "DivergentDeltaModel", "__init__"),
                     ("models", "FiniteStateModel", "__init__")],
    "gaussian.factor": [("gaussian", "TowerSampler", "__init__")],
    "gaussian.sample": [("gaussian", "TowerSampler", "sample")],
    "reports.write": [("reports", "Bundle", "add_csv"),
                      ("reports", "Bundle", "finish"),
                      ("reports", "RunReport", "summary_json")],
}


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.process_time(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                counts[name + ".levels"] += 1
                yield value

        return traced

    def dump(self, path, job: str) -> None:
        with open(path, "w") as fh:
            json.dump({"job": job, "spans": self.spans, "counts": self.counts}, fh)


def span_times(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: summed self time (duration minus direct children),
    summed inclusive duration and span count, over one process's spans."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _parent), c in zip(spans, child):
        self_s[name] += (end - start) - c
        total_s[name] += end - start
        calls[name] += 1
    return self_s, total_s, calls


def _count_orbit(counts, args, result):
    counts["points.orbit.points"] += len(result)


def _count_gram(counts, args, result):
    n = result.size
    counts["kernels.gram.entries"] += n * (n + 1) // 2


def _count_psd(counts, args, result):
    counts["kernels.psd.calls"] += 1
    n = len(args[0].points) if hasattr(args[0], "points") else len(args[0])
    counts["kernels.psd.max_n"] = max(counts["kernels.psd.max_n"], n)


def _count_sqrt(counts, args, result):
    counts["kernels.sqrt.calls"] += 1


def _count_sample(counts, args, result):
    values = result.values
    counts["gaussian.sample.calls"] += 1
    counts["gaussian.sample.draws"] += values.size
    # sample() holds three arrays of this shape: normals, per-level
    # contributions and their cumulative sum.
    counts["gaussian.sample.bytes"] += 3 * values.nbytes


def _count_cylinder(counts, args, result):
    counts["boundary.cylinder.words"] += len(result.table)


def _count_feature_gram(counts, args, result):
    counts["boundary.feature_gram.calls"] += 1


AFTER = {
    "orbit_closure": _count_orbit,
    "gram": _count_gram,
    "psd_check": _count_psd,
    "sqrt_factor": _count_sqrt,
    "cylinder_measure": _count_cylinder,
    "boundary_feature_gram": _count_feature_gram,
    "sample": _count_sample,
}


def _count_kernel_evals(tracer: Tracer, kernel_cls) -> None:
    init = kernel_cls.__init__
    counts = tracer.counts

    @functools.wraps(init)
    def counted_init(self, fn, *args, **kwargs):
        @functools.wraps(fn)  # keeps the default kernel name
        def evaluate(s, t):
            counts["kernels.evals"] += 1
            return fn(s, t)

        init(self, evaluate, *args, **kwargs)

    kernel_cls.__init__ = counted_init


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and methods, wherever they are bound."""
    import kerneltower.cli  # noqa: F401  (loads every module the CLI uses)
    import kerneltower.verify as verify

    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "kerneltower" or name.startswith("kerneltower."))]
    originals = {}
    for layer, spans in FUNCTIONS.items():
        module = sys.modules[f"kerneltower.{layer}"]
        for span, names in spans.items():
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = tracer.wrap(span, fn, AFTER.get(fname))
    for module in package:
        for attr, value in list(vars(module).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)

    for span, targets in METHODS.items():
        for mod, cls_name, meth in targets:
            cls = getattr(sys.modules[f"kerneltower.{mod}"], cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), AFTER.get(meth)))

    _count_kernel_evals(tracer, sys.modules["kerneltower.kernels"].Kernel)

    verify.CHECKS[:] = [
        tracer.wrap(f"verify.c{k:02d}", fn) for k, fn in enumerate(verify.CHECKS, start=1)
    ]
