"""pthamil: inner products and metric operators for finite-dimensional
Hamiltonians with antilinear (PT-type) symmetry.

The package constructs and cross-checks the three candidate inner products of
such Hamiltonians — the metric (V) norm, the phase-corrected PT-conjugate
norm, and the PV / C-operator norm — and reports when each exists, when they
coincide, and how they fail at exceptional points or for conjugate-pair
spectra.
"""

__version__ = "0.1.0"

#: the public names, by the submodule each is read from on first use, so
#: ``import pthamil`` itself imports neither numpy nor any submodule
_EXPORTS = {
    "antilinear": ("PTFrame", "PTPhases", "calibrate", "make_frame", "pt_gram"),
    "cpt": ("CommutantOp", "build_c", "build_pv", "c_commutes_with_pt", "check_p_intertwines"),
    "errors": ("CoefficientOverflow", "ConvergenceFailure", "InvalidFrame", "NonDiagonalizable",
               "NotCommuting", "NotRealPhase", "ParseError", "PTHamilError",
               "UnpairedComplexEigenvalue"),
    "fockdemo": ("DivergenceWitness", "FockExpansion", "divergence_witness",
                 "expand_position_state", "truncated_position_matrix"),
    "intertwiner": ("Intertwiner", "NormReport", "build_metric", "v_gram"),
    "linalg": ("DEFAULT_TOL", "EigenSystem", "as_matrix", "eigendecompose", "identity"),
    "pipeline": ("AnalysisConfig", "AnalysisReport", "emit_report", "parse_report", "run_analyze",
                 "run_batch"),
    "spectra": ("SpectrumClass", "SpectrumKind", "antilinear_symmetry_check", "classify"),
    "twolevel": ("TwoLevelModel", "closed_forms", "compare_with_pipeline", "hamiltonian"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: submodules exported by name, ``from pthamil import *`` included
_SUBMODULES = (*_EXPORTS, "jsontext", "matio")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
