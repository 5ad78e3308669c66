"""Kernel towers under branching map systems.

Subinvariant kernels iterated along a finite family of self-maps produce
an increasing tower with positive defects; this package computes the
tower and its invariant completion on finite point sets, classifies
diagonal growth, simulates the associated Gaussian defect martingale, and
realizes the Doob-transformed boundary feature model.

The names below are imported from their modules when first read (PEP 562),
so ``import kerneltower`` loads no submodule and a command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "boundary": ["BoundaryGram", "CylinderTable", "DoobChain", "ProductCylinderWeights", "apply_L_tilde",
                 "apply_Q", "boundary_feature_gram", "build_doob", "cylinder_measure", "gauge_from_tower",
                 "h_normalize", "intertwining_check", "iterate_Q", "normalization_commutes", "sample_path",
                 "tilde_word_expansion"],
    "diagonal": ["BlowupWitness", "DiagonalTrace", "LayerCakeResult", "LyapunovRefutation", "TailBound",
                 "blowup_detect", "diagonal_trace", "layer_cake_check", "level_set_count", "lyapunov_verify",
                 "tail_bound"],
    "errors": ["ContractError", "DivergenceError", "InputError", "KernelTowerError", "ModelError",
               "NumericalError", "ResourceError"],
    "gaussian": ["FieldBatch", "LimitFields", "MartingaleReport", "TowerSampler", "boundedness_probe",
                 "empirical_covariance", "export_batch_csv", "limit_fields", "martingale_checks"],
    "kernels": ["Gram", "Kernel", "KernelBatch", "PsdReport", "gram", "psd_check", "psd_leq", "sqrt_factor"],
    "models": ["DivergentDeltaModel", "FiniteStateModel", "WordTreeModel", "build_model", "feeder_model"],
    "points": ["BranchSystem", "enumerate_words", "orbit_closure", "orbit_points_by_level", "point_label"],
    "rngs": ["GENERATOR_NAME", "make_rng"],
    "tower": ["Embedding", "KInfinityEstimate", "MinimalityReport", "TailCertificate", "Tower", "build_tower",
              "defect_embedding", "estimate_K_infinity", "invariance_residual", "level_via_words",
              "minimality_check", "subinvariance_check"],
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE)


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE))
