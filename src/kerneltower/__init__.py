"""Kernel towers under branching map systems.

Subinvariant kernels iterated along a finite family of self-maps produce
an increasing tower with positive defects; this package computes the
tower and its invariant completion on finite point sets, classifies
diagonal growth, simulates the associated Gaussian defect martingale, and
realizes the Doob-transformed boundary feature model.
"""

# Before the submodules: reports (imported through gaussian) reads it.
__version__ = "0.1.0"

from .boundary import (
    BoundaryGram,
    CylinderTable,
    DoobChain,
    ProductCylinderWeights,
    apply_L_tilde,
    apply_Q,
    boundary_feature_gram,
    build_doob,
    cylinder_measure,
    gauge_from_tower,
    h_normalize,
    intertwining_check,
    iterate_Q,
    normalization_commutes,
    sample_path,
    tilde_word_expansion,
)
from .diagonal import (
    BlowupWitness,
    DiagonalTrace,
    LayerCakeResult,
    LyapunovRefutation,
    TailBound,
    blowup_detect,
    diagonal_trace,
    layer_cake_check,
    level_set_count,
    lyapunov_verify,
    tail_bound,
)
from .errors import (
    ContractError,
    DivergenceError,
    InputError,
    KernelTowerError,
    ModelError,
    NumericalError,
    ResourceError,
)
from .gaussian import (
    FieldBatch,
    LimitFields,
    MartingaleReport,
    TowerSampler,
    boundedness_probe,
    empirical_covariance,
    export_batch_csv,
    limit_fields,
    martingale_checks,
)
from .kernels import (
    Gram,
    Kernel,
    KernelBatch,
    PsdReport,
    gram,
    psd_check,
    psd_leq,
    sqrt_factor,
)
from .models import (
    DivergentDeltaModel,
    FiniteStateModel,
    WordTreeModel,
    build_model,
    feeder_model,
)
from .points import (
    BranchSystem,
    enumerate_words,
    orbit_closure,
    orbit_points_by_level,
    point_label,
)
from .rngs import GENERATOR_NAME, make_rng
from .tower import (
    Embedding,
    KInfinityEstimate,
    MinimalityReport,
    TailCertificate,
    Tower,
    build_tower,
    defect_embedding,
    estimate_K_infinity,
    invariance_residual,
    level_via_words,
    minimality_check,
    subinvariance_check,
)
