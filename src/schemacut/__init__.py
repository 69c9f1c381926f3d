"""schemacut: secure decomposition of relational schema external layers.

Forbidden attribute associations are made unjoinable while required
associations survive, by cutting join chains in the schema's functional
dependency graph and decomposing relations into maximal safe fragments.
"""

__version__ = "0.1.0"

from .model import (
    AttributeSet,
    ForeignKey,
    FunctionalDependency,
    Policy,
    Relation,
    Schema,
    SchemaError,
    attr_set,
    load_schema,
    load_schema_doc,
    make_policy,
    make_schema,
    preprocess_policy,
    validate_schema,
)
from .closure import (
    DecomposedFdSet,
    attribute_closure,
    decompose_fds,
    identifiers_of,
)
from .fdg import (
    EdgeRef,
    Fdg,
    FdgEdge,
    FdgVertex,
    build_fdg,
    export_dot,
    transitive_closure_pairs,
)
from .joinchain import (
    ChainFamily,
    JoinChain,
    PathLimits,
    SimplePaths,
    enumerate_simple_paths,
    join_chains,
)
from .cut import (
    CutSet,
    EdgeScore,
    OracleBoundExceeded,
    edges_to_forbidden_sets,
    greedy_cut,
    greedy_hitting_set,
    minimum_cut_oracle,
    reverse_delete,
    security_counts,
)
from .decompose import (
    DecomposedSchema,
    Fragment,
    WidthBoundExceeded,
    candidate_sets,
    decompose_relation,
    decomposition_from_dict,
    decomposition_to_dict,
    dependency_loss,
    minimal_hitting_sets,
    sql_views,
    strong_cut_decompose,
)
from .consistency import (
    CcInstance,
    ConsistencyResult,
    ConsistencyTimeout,
    ThreeSatFormula,
    check,
    check_forbidden_first,
    check_required_first,
    load_cc_doc,
    load_cc_instance,
    make_instance,
    reduce_3sat,
    validate_cut,
)
from .pipeline import (
    DecompositionReport,
    RecutDidNotConverge,
    report_to_dict,
    secure_decompose,
    verify_decomposition,
)
from .bench import (
    BenchParams,
    BenchResult,
    generate_instance,
    load_grid,
    results_to_csv,
    run_benchmark,
)
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
