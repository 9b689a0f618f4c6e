"""pthamil: inner products and metric operators for finite-dimensional
Hamiltonians with antilinear (PT-type) symmetry.

The package constructs and cross-checks the three candidate inner products of
such Hamiltonians — the metric (V) norm, the phase-corrected PT-conjugate
norm, and the PV / C-operator norm — and reports when each exists, when they
coincide, and how they fail at exceptional points or for conjugate-pair
spectra.
"""

__version__ = "0.1.0"

from .antilinear import (
    PTFrame,
    PTPhases,
    calibrate,
    make_frame,
    pt_gram,
)
from .cpt import (
    CommutantOp,
    build_c,
    build_pv,
    c_commutes_with_pt,
    check_p_intertwines,
)
from .errors import (
    CoefficientOverflow,
    ConvergenceFailure,
    InvalidFrame,
    NonDiagonalizable,
    NotCommuting,
    NotRealPhase,
    ParseError,
    PTHamilError,
    UnpairedComplexEigenvalue,
)
from .fockdemo import (
    DivergenceWitness,
    FockExpansion,
    divergence_witness,
    expand_position_state,
    oscillator_contrast,
    truncated_position_matrix,
)
from .intertwiner import (
    Intertwiner,
    NormReport,
    build_metric,
    v_gram,
)
from .linalg import (
    DEFAULT_TOL,
    EigenSystem,
    as_matrix,
    eigendecompose,
    identity,
)
from .pipeline import AnalysisConfig, AnalysisReport, emit_report, parse_report, run_analyze, run_batch
from .spectra import (
    SpectrumClass,
    SpectrumKind,
    antilinear_symmetry_check,
    classify,
)
from .twolevel import TwoLevelModel, closed_forms, compare_with_pipeline, hamiltonian

__all__ = [name for name in dir() if not name.startswith("_")]
