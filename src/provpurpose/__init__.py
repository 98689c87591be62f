"""Purpose-based access decisions over provenance graphs.

The package splits into layers that mirror how a decision is made: a typed
provenance graph model, a ranked purpose hierarchy, four-valued condition
matching, per-policy evaluation, purpose-set merge algebras with a small
expression language, cross-party merging, and the end-to-end pipeline plus a
CLI and benchmark harness.
"""

from .errors import (
    ConfigurationError,
    EmptyPurposeSetError,
    FidaSyntaxError,
    InputFormatError,
    MissingHierarchyLineError,
    PatternSyntaxError,
    ProvPurposeError,
    SearchLimitError,
    StageError,
    TypeMismatchError,
    UnboundNameError,
    UnknownPurposeError,
    UnknownVertexError,
)
from .provenance import (
    ALLOWED_EDGES,
    EdgeLabel,
    ProvEdge,
    ProvVertex,
    ProvenanceGraph,
    ValidityReport,
    VertexType,
    dump_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    topological_order_of,
)
from .purposes import (
    PurposeBits,
    PurposeGraph,
    PurposeSet,
    load_purpose_graph,
    purpose_graph_from_dict,
    purpose_graph_to_dict,
)
from .matching import (
    AttrCondition,
    AttrConstraint,
    MatchValue,
    NullCondition,
    PathPattern,
    PathStep,
    PatternEdge,
    PatternVertex,
    Predicate,
    ProvenancePartition,
    QueryCondition,
    TargetCondition,
    VertexCondition,
    WILDCARD_TOKEN,
    eval_atomic,
    eval_predicate,
    match_and,
    match_or,
    match_partition,
    match_path,
    parse_path_pattern,
    parse_target,
)
from .policy import (
    AccessTree,
    Policy,
    PolicyDecision,
    Request,
    TreeBranch,
    TreeLeaf,
    TreeOp,
    category_covered,
    condition_from_dict,
    eval_access_tree,
    evaluate_policy,
    guards_pass,
    load_policy,
    load_request,
    load_role_order,
    policy_from_dict,
    request_from_dict,
    role_leq,
    role_order_from_dict,
)
from .algebra import (
    BasicOp,
    BinaryOp,
    FidaExpr,
    FunctionCall,
    HierarchicalPurposeSet,
    InternalFunction,
    MergeProgram,
    PrecedenceKind,
    SetRef,
    apply_internal,
    apply_nary,
    compile_fida,
    eval_fida,
    eval_fida_plain,
    expression_functions,
    expression_names,
    op_difference,
    op_intersection,
    op_precedence,
    op_subtraction,
    op_union,
    parse_fida,
    precedence_total,
    print_fida,
    split_result,
)
from .external import (
    ExternalFunction,
    PartyResult,
    apply_external,
    merge_parties,
    party_result_from_dict,
    party_result_to_dict,
)
from .engine import (
    DataRecord,
    DecisionOutcome,
    PartyConfig,
    PartyTrace,
    decide,
    default_internal_expr,
    outcome_to_dict,
)
from .synth import (
    BenchConfig,
    NUMERIC_COLUMNS,
    STRING_COLUMNS,
    STRING_LENGTH,
    SyntheticDataset,
    gen_synthetic,
    generate_policy,
    partition_by_mix,
    random_purpose_graph,
)
from .bench import bench_algebras, bench_policy_generation, run_bench

__version__ = "0.1.0"

# The import block above is the public API: every public name it binds, but not the
# submodules it binds along the way. This must stay after the last import.
from types import ModuleType as _ModuleType

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
