"""Cost-optimal multicast structures for sparse-splitting WDM mesh networks."""

from .hierarchy import (
    LightStructure,
    LightStructureSet,
    ValidationReport,
    Violation,
    cost,
    cps_nodes,
    format_dump,
    is_light_tree,
    parse_dump,
    parse_structure,
    serialize,
    uses_cps,
    validate,
)
from .model import (
    Assignment,
    IlpModel,
    Mode,
    VarKind,
    VarRef,
    build_model,
    check_feasible,
    emit_lp,
    extract_structures,
    import_solution,
)
from .network import (
    MulticastSession,
    Network,
    NetworkFormatError,
    NodeKind,
    builtin_topology,
    make_session,
    parse_network,
    serialize_network,
)
from .oracle import OracleGuardError, OracleResult, enumerate_optimal
from .solver import (
    FlowIntegralizationError,
    SolveOptions,
    SolveReport,
    SolveStatus,
    integralize_flows,
    solve,
    solve_session,
)

__version__ = "0.1.0"
