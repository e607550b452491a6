"""spectower: spectral sequences of finite filtered cochain complexes.

Exact linear algebra over F_p / Q, cochain complexes with explicit
cohomology representatives, filtered complexes with a certified page
tower, local coefficient systems over combinatorial base graphs, and
Morse / cellular / fibration builders feeding the tower.
"""

from .complexes import (
    ChainMap,
    CochainComplex,
    CohomologyResult,
    GradedBasis,
    induced_map_on_cohomology,
    tensor_product,
)
from .errors import InvariantError, ParseError, PreconditionError, SpectowerError
from .field import Field, parse_field
from .fibration import (
    ComposeReport,
    E2Table,
    FibrationData,
    LerayComparison,
    action_window,
    assemble_fibration,
    chain_transport,
    e2_table,
    leray_serre_compare,
    transport_compose_check,
    truncation_map,
)
from .localsystems import (
    BaseGraph,
    HomotopyCheck,
    LocalSubsystem,
    LocalSystem,
    MonodromyReport,
    check_homotopy_invariance,
    extend_subsystem,
    parse_word,
    transport,
)
from .matrix import Matrix, quotient_basis, span_contains
from .morse import CellularData, MorseData, Trajectory, cellular_complex, morse_complex
from .documents import Document, load_document, parse_text, print_document
from .spectral import (
    ConvergenceReport,
    FilteredChainMap,
    FilteredComplex,
    Page,
    SplitFilteredComplex,
    ZigzagWitness,
    map_of_spectral_sequences,
    zigzag_class_and_d,
)

__version__ = "0.1.0"

__all__ = [
    "BaseGraph",
    "CellularData",
    "ChainMap",
    "CochainComplex",
    "CohomologyResult",
    "ComposeReport",
    "ConvergenceReport",
    "Document",
    "E2Table",
    "FibrationData",
    "Field",
    "FilteredChainMap",
    "FilteredComplex",
    "GradedBasis",
    "HomotopyCheck",
    "InvariantError",
    "LerayComparison",
    "LocalSubsystem",
    "LocalSystem",
    "Matrix",
    "MonodromyReport",
    "MorseData",
    "Page",
    "ParseError",
    "PreconditionError",
    "SpectowerError",
    "SplitFilteredComplex",
    "Trajectory",
    "ZigzagWitness",
    "action_window",
    "assemble_fibration",
    "cellular_complex",
    "chain_transport",
    "check_homotopy_invariance",
    "e2_table",
    "extend_subsystem",
    "induced_map_on_cohomology",
    "leray_serre_compare",
    "load_document",
    "map_of_spectral_sequences",
    "morse_complex",
    "parse_field",
    "parse_text",
    "parse_word",
    "print_document",
    "quotient_basis",
    "span_contains",
    "tensor_product",
    "transport",
    "transport_compose_check",
    "truncation_map",
    "zigzag_class_and_d",
]
