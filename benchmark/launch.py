"""Child process of the benchmark: one CLI invocation, or one set-up.

    python3 launch.py cli STAMPS ARGS...          kerneltower ARGS, untraced
    python3 launch.py trace SPANS JOB ARGS...     the same, traced; spans to SPANS
    python3 launch.py setup CONFIG                import, config, model, base only

An invocation calls ``kerneltower.cli.main`` in a fresh interpreter, as
the ``kerneltower`` console script does.  ``kerneltower`` must be
importable (the benchmark puts the checkout's ``src`` on PYTHONPATH).
Untraced, the process CPU time at each newline written to stdout goes to
STAMPS, which splits ``verify`` at its per-criterion lines.  Set-up with
CONFIG ``-`` uses the config ``verify`` runs without one.
"""

import json
import sys
import time

START = time.process_time()


class LineClock:
    """Forwards stdout writes; notes the process CPU time at every newline."""

    def __init__(self, stream):
        self._stream = stream
        self.stamps = []

    def write(self, text):
        written = self._stream.write(text)
        if "\n" in text:
            self.stamps.extend([time.process_time()] * text.count("\n"))
        return written

    def __getattr__(self, name):
        return getattr(self._stream, name)


def setup(config: str) -> int:
    from kerneltower.config import load_config, parse_config
    from kerneltower.models import build_model
    from kerneltower.points import orbit_closure

    if config == "-":
        cfg = parse_config({"model": {"kind": "word-tree"}})
    else:
        cfg = load_config(config)
    model = build_model(cfg.model_kind, cfg.model_params)
    base = model.points(cfg.base_points) if cfg.base_points else model.all_states()
    if cfg.closure_depth > 0:
        orbit_closure(model.branch, base, cfg.closure_depth, cfg.pair_cap)
    return 0


def traced(spans_path: str, job: str, argv: list) -> int:
    from tracing import Tracer, install

    tracer = Tracer()
    root = tracer.open("cli")
    tracer.spans[root][1] = START
    try:
        install(tracer)
        from kerneltower.cli import main

        return main(argv)
    finally:
        tracer.close(root)
        tracer.dump(spans_path, job)


def untraced(stamps_path: str, argv: list) -> int:
    from kerneltower.cli import main

    clock = sys.stdout = LineClock(sys.stdout)
    try:
        return main(argv)
    finally:
        with open(stamps_path, "w") as fh:
            json.dump(clock.stamps, fh)


def run(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        return setup(argv[1])
    if mode == "trace":
        return traced(argv[1], argv[2], argv[3:])
    if mode == "cli":
        return untraced(argv[1], argv[2:])
    raise SystemExit(f"launch.py: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
