import itertools
import math

import numpy as np
import pytest

from kerneltower import (
    InputError,
    FiniteStateModel,
    WordTreeModel,
    build_model,
    build_tower,
    subinvariance_check,
)
from kerneltower.config import parse_config
from kerneltower.points import orbit_closure

from oracles import word_tree_closed_form


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 1},
        {"r": 0.0},
        {"r": 1.0},
        {"c": 0.0},
        {"c": 1.5},
        {"eta": -0.1},
    ],
)
def test_word_tree_parameter_validation(kwargs):
    with pytest.raises(InputError):
        WordTreeModel(**kwargs)


def test_oracle_level_examples(ex25, root):
    assert ex25.oracle_level(2, root, root) == pytest.approx(1.875, abs=1e-15)
    # off-diagonal entries never move: the strict part is diagonal
    s, t = ex25.point("1"), ex25.point("22")
    vals = {ex25.oracle_level(n, s, t) for n in range(9)}
    assert len(vals) == 1
    assert vals.pop() == pytest.approx(1.0 * 2 ** (-(1 + 2) / 2), abs=1e-15)


def test_oracle_level_tends_to_limit(ex25, root):
    gap = abs(ex25.oracle_limit(root, root) - ex25.oracle_level(40, root, root))
    assert gap <= 1e-12


def test_oracle_defect_examples(ex25, root):
    assert ex25.oracle_defect(0, root, root) == pytest.approx(0.25, abs=1e-15)
    assert ex25.oracle_defect(3, root, ex25.point("1")) == 0.0
    # accumulated defects equal the limit increment
    total = math.fsum(ex25.oracle_defect(n, root, root) for n in range(200))
    assert total == pytest.approx(
        ex25.oracle_limit(root, root) - ex25.kernel(root, root), abs=1e-14
    )


def test_oracle_grid_matches_computed_tower():
    """Computed towers match closed forms across the parameter grid, n <= 8."""
    worst = 0.0
    for m, r, c, eta in itertools.product((2, 3), (0.3, 0.5, 0.8), (0.2, 0.5, 0.9), (0.0, 1.0, 2.0)):
        model = WordTreeModel(m=m, r=r, c=c, eta=eta)
        F = orbit_closure(model.branch, [model.point("")], 2)
        tower = build_tower(model.kernel, model.branch, F, 8)
        for n in range(9):
            oracle = np.array([[model.oracle_level(n, s, t) for t in F] for s in F])
            worst = max(worst, float(np.max(np.abs(tower.levels[n] - oracle))))
        for n in range(8):
            oracle = np.array([[model.oracle_defect(n, s, t) for t in F] for s in F])
            worst = max(worst, float(np.max(np.abs(tower.defects[n] - oracle))))
    assert worst <= 1e-12


class _LengthCodes:
    """Codes 2 * |w| + i for two words of each length: the batch reads any
    length through the codes object it is handed, past those a tower steps."""

    def lengths(self, codes):
        return codes // 2


@pytest.mark.parametrize("m", [2, 3, 5])
def test_word_tree_routes_equal_the_closed_form_bit_for_bit(m):
    r, c, eta = 0.3, 0.7, 2.1  # none dyadic
    model = WordTreeModel(m=m, r=r, c=c, eta=eta)
    form = word_tree_closed_form(m, r, c, eta)
    # Two distinct words per length 40..1, longest first, then the empty word.
    codes = {2 * n + i: tuple(1 + (i + 3 * j) % m for j in range(n))
             for n in range(40, 0, -1) for i in (0, 1)} | {0: ()}
    pairs = [(a, b) for a in codes for b in codes if a <= b]
    routes = {"kernel": model.kernel, "J0": model.diag_invariant, "J1": model.rank_one,
              "E": model.strict_part, "J": model.majorant}
    for name, route in routes.items():
        got = [route(codes[a], codes[b]) for a, b in pairs]
        assert got == [form[name](codes[a], codes[b]) for a, b in pairs], name
    assert [model.oracle_gauge(w) for w in codes.values()] == [form["gauge"](w) for w in codes.values()]
    a, b = np.array(pairs).T
    batch = model.kernel.batch.evaluate(_LengthCodes(), a, b)
    assert batch.tolist() == [form["kernel"](codes[x], codes[y]) for x, y in pairs]


def test_eta_zero_towers_are_diagonal():
    model = WordTreeModel(m=2, r=0.5, c=0.5, eta=0.0)
    F = orbit_closure(model.branch, [model.point("")], 2)
    tower = build_tower(model.kernel, model.branch, F, 8)
    off = ~np.eye(len(F), dtype=bool)
    for lvl in tower.levels:
        assert np.max(np.abs(lvl[off])) == 0.0


def test_word_tree_gauge_closed_form(ex25):
    for label in ("", "1", "12", "221"):
        s = ex25.point(label)
        assert ex25.oracle_gauge(s) == pytest.approx(2.0 * 2.0 ** -len(s), abs=1e-15)


def test_delta_model_oracles(delta2, root):
    assert delta2.oracle_level(5, root, root) == 32.0
    assert delta2.oracle_level(5, root, delta2.point("1")) == 0.0
    assert delta2.oracle_defect(3, root, root) == 8.0  # (m-1) m^n


def test_delta_defect_is_identity(delta2):
    F = orbit_closure(delta2.branch, [delta2.point("")], 1)
    report = subinvariance_check(delta2.kernel, delta2.branch, F)
    assert report.psd
    assert report.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


def load_finite_state(**model):
    """A finite-state model through the config path: parse_config, then build_model."""
    cfg = parse_config({"model": {"kind": "finite-state", **model}})
    return build_model(cfg.model_kind, cfg.model_params)


def test_load_finite_state_minimal():
    model = load_finite_state(maps=[[0]], kernel=[[1.0]])
    assert model.S == 1 and model.m == 1
    # single fixed point: the kernel is invariant
    report = subinvariance_check(model.kernel, model.branch, [0])
    assert report.psd and abs(report.min_eigenvalue) <= 1e-15


def test_load_finite_state_subinvariance_is_runtime_property():
    # valid tables; whether the kernel is subinvariant is decided at run time
    model = load_finite_state(maps=[[1, 1], [1, 1]], kernel=[[2.0, 0.0], [0.0, 1.0]])
    report = subinvariance_check(model.kernel, model.branch, [0, 1])
    assert not report.psd


def test_load_finite_state_rejects_non_psd_kernel():
    with pytest.raises(InputError, match="not PSD"):
        load_finite_state(maps=[[0, 1]], kernel=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(InputError, match="not PSD"):
        FiniteStateModel([[0, 1]], [[1.0, 2.0], [2.0, 1.0]])


def test_finite_state_table_is_stored_exactly_symmetric():
    # Asymmetric at 1e-13 is accepted; the upper triangle, signed zeros too,
    # is copied into the lower one, and the caller's table is left as given.
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    K = A @ A.T + 5 * np.eye(5) + np.triu(rng.uniform(-1e-13, 1e-13, (5, 5)), 1)
    K[0, 4], K[4, 0] = -0.0, 0.0
    given = K.copy()
    table = FiniteStateModel([[0, 1, 2, 3, 4]], K).table
    assert table.tobytes() == table.T.tobytes()
    upper = np.triu_indices(5)
    assert table[upper].tobytes() == K[upper].tobytes()
    assert K.tobytes() == given.tobytes()
    assert not np.array_equal(K, K.T)


def test_load_finite_state_rejects_bad_maps():
    # The config names the key; the model keeps its own checks for library callers.
    I2 = [[1.0, 0.0], [0.0, 1.0]]
    for maps in ([[0, 5]], [[0]], [[0, 0.5]], [[0, True]]):
        with pytest.raises(InputError, match=r"^config model\.maps: expected map tables of 2 "):
            load_finite_state(maps=maps, kernel=I2)
    with pytest.raises(InputError, match="outside"):
        FiniteStateModel([[0, 5]], I2)
    with pytest.raises(InputError, match="outside"):
        FiniteStateModel([[0, 0.5]], I2)
    with pytest.raises(InputError, match="entries"):
        FiniteStateModel([[0]], I2)


def test_load_finite_state_rejects_malformed_tables():
    with pytest.raises(InputError, match="must be square"):
        load_finite_state(maps=[[0]], kernel=[[1.0, 0.0]])
    with pytest.raises(InputError, match=r"^config model\.maps: required"):
        load_finite_state(kernel=[[1.0]])
    with pytest.raises(InputError, match=r"^config model\.kernel: required"):
        load_finite_state(maps=[[0]])
    for kernel in ([[1.0], [0.0, 1.0]], [[1.0, "x"], [0.0, 1.0]], [[True]], [[None]], [1.0]):
        with pytest.raises(InputError, match=r"^config model\.kernel: expected a rectangular"):
            load_finite_state(maps=[[0]], kernel=kernel)
    with pytest.raises(InputError, match="rectangular table of numbers"):
        FiniteStateModel([[0, 1]], [[1.0], [0.0, 1.0]])


def test_feeder_structure(feeder):
    tower = build_tower(feeder.kernel, feeder.branch, feeder.all_states(), 3)
    assert tower.defects[0][2, 2] == pytest.approx(0.5)
    assert np.max(np.abs(tower.defects[1])) == 0.0
    assert list(np.diag(tower.levels[1])) == [1.0, 0.0, 2.0]


def test_build_model_registry(ex25):
    assert build_model("word-tree", {"m": 2}).m == 2
    assert build_model("delta", {}).m == 2
    assert build_model("feeder", {}).name == "feeder"
    with pytest.raises(InputError):
        build_model("nope", {})


def test_point_parsing(ex25, feeder):
    assert ex25.point("") == ()
    assert ex25.point("121") == (1, 2, 1)
    assert ex25.point([1, 2]) == (1, 2)
    with pytest.raises(InputError):
        ex25.point("3")  # symbol out of range for m=2
    with pytest.raises(InputError):
        ex25.point("x")
    assert feeder.point("2") == 2
    with pytest.raises(InputError):
        feeder.point(7)
