"""spectower: spectral sequences of finite filtered cochain complexes.

Exact linear algebra over F_p / Q, cochain complexes with explicit
cohomology representatives, filtered complexes with a certified page
tower, local coefficient systems over combinatorial base graphs, and
Morse / cellular / fibration builders feeding the tower.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the names it exports; a module is imported on the first
# use of one of its names or of the module itself (PEP 562), so `import
# spectower` imports none
_EXPORTS = {
    "complexes": ("ChainMap", "CochainComplex", "CohomologyResult", "GradedBasis", "tensor_product"),
    "documents": ("Document", "load_document", "parse_text", "print_document"),
    "errors": ("InvariantError", "ParseError", "PreconditionError", "SpectowerError"),
    "fibration": ("E2Table", "FibrationData", "LerayComparison", "action_window", "assemble_fibration",
                  "chain_transport", "e2_table", "leray_serre_compare", "truncation_map"),
    "field": ("Field", "parse_field"),
    "localsystems": ("BaseGraph", "LocalSubsystem", "LocalSystem", "MonodromyReport", "check_homotopy_invariance",
                     "extend_subsystem", "parse_word"),
    "matrix": ("Matrix", "quotient_basis"),
    "morse": ("CellularData", "MorseData", "Trajectory", "cellular_complex", "morse_complex"),
    "spectral": ("ConvergenceReport", "FilteredChainMap", "FilteredComplex", "Page", "SplitFilteredComplex",
                 "map_of_spectral_sequences"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__) | set(_EXPORTS))
