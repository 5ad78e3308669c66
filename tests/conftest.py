import tracemalloc

import numpy as np
import pytest

from kerneltower import DivergentDeltaModel, FiniteStateModel, WordTreeModel, feeder_model
from kerneltower.points import orbit_closure


@pytest.fixture(scope="session")
def ex25():
    """The canonical word-tree example: m=2, r=c=1/2, eta=1."""
    return WordTreeModel(m=2, r=0.5, c=0.5, eta=1.0)


@pytest.fixture(scope="session")
def delta2():
    return DivergentDeltaModel(m=2)


@pytest.fixture(scope="session")
def feeder():
    return feeder_model()


@pytest.fixture(scope="session")
def root(ex25):
    return ex25.point("")


@pytest.fixture(scope="session")
def small_base(ex25):
    """Root plus its two children."""
    return [ex25.point(x) for x in ("", "1", "2")]


@pytest.fixture(scope="session")
def closure2(ex25, root):
    return orbit_closure(ex25.branch, [root], 2)


@pytest.fixture(scope="session")
def sink_model():
    """Seeded 8-state model with a kernel-null sink (state 0).

    phi_1 is the identity and phi_2 sends half the states to the sink, so
    LK - K = K o (phi_2 x phi_2) is PSD, and every state phi_2 sends to the
    sink has an exactly zero level-0 defect diagonal.
    """
    rng = np.random.default_rng(2024)
    S = 8
    A = rng.standard_normal((S, S))
    A[0] = 0.0
    phi2 = [0] + [0 if s % 2 else int(rng.integers(1, S)) for s in range(1, S)]
    return FiniteStateModel([list(range(S)), phi2], A @ A.T, name="sink")


def _traced_peak(fn):
    """fn(), the most bytes it held at once beyond what it was given, and the
    bytes still held when it returned (its result's), by tracemalloc.

    numpy reports its array buffers to tracemalloc.  Callers run fn once on
    a small input first: a first call in a process also allocates one-off caches.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - before, held - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    return _traced_peak
