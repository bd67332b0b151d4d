"""Data management on extended sets: the VLDB-1977 substrate.

======================  =============================================
module                  contents
======================  =============================================
``schema``              :class:`Heading` -- attribute alphabets
``relation``            :class:`Relation` -- rows as scoped records
``algebra``             restrict / select / project / rename / join /
                        semijoin / product / union / difference /
                        intersection / group_by / aggregate / limit,
                        each a skin over kernel calls
``query``               plan AST, :class:`Database`, set-at-a-time and
                        record-at-a-time executors
``optimizer``           composition-theorem plan rewrites
``cost``                cardinality estimation read off the catalog
                        value, operator cost model, DP join-order
                        enumeration
``columnar``            sorted-run columnar fast path: binary-search
                        restriction, merge-intersection join
``storage``             :class:`SetStore` vs :class:`RecordStore`
                        (the ref [4] comparison)
======================  =============================================
"""

from repro.relational.columnar import (
    ColumnarRelation,
    SortedRun,
    encode,
    materialize,
)
from repro.relational.algebra import (
    AGGREGATES,
    Comparison,
    aggregate,
    difference,
    group_by,
    intersection,
    join,
    limit,
    product,
    project,
    rename,
    restrict,
    select,
    semijoin,
    union,
)
from repro.relational.constraints import (
    CheckConstraint,
    ForeignKeyConstraint,
    IntegrityError,
    KeyConstraint,
    Table,
)
from repro.relational.csvio import dumps_csv, loads_csv, read_csv, write_csv
from repro.relational.ivm import (
    Delta,
    DeltaPropagator,
    DeltaUnsupported,
    QueryResultCache,
)
from repro.relational.views import View, ViewCatalog
from repro.relational.disk import DiskRelationStore, PageCache
from repro.relational.distributed import Cluster, NetworkStats, Node
from repro.relational.faults import (
    FaultInjector,
    FaultPlan,
    NodeDownError,
    ShipmentCorruptedError,
    ShipmentLostError,
)
from repro.relational.optimizer import optimize
from repro.relational.cost import CardinalityEstimator, qerror, reorder_joins
from repro.relational.query import (
    Aggregate,
    Database,
    Difference,
    Join,
    Limit,
    Plan,
    Project,
    Rename,
    Restrict,
    Scan,
    Union,
    plan_cache_key,
    scan_tables,
)
from repro.relational.profile import (
    NodeProfile,
    execute_profiled,
    explain_analyze,
    profile_cluster,
)
from repro.relational.relation import Relation
from repro.relational.representations import (
    ColumnRepresentation,
    RowRepresentation,
    same_identity,
)
from repro.relational.schema import Heading
from repro.relational.sql import compile_query, parse_query, run, run_rows
from repro.relational.tx import TransactionManager
from repro.relational.storage import RecordStore, SetStore
from repro.relational.wal import (
    CorruptLogError,
    CorruptSegmentError,
    CrashPoint,
    SimulatedCrashError,
    WriteAheadLog,
)

__all__ = [
    "Heading",
    "Relation",
    # algebra
    "Comparison",
    "restrict",
    "select",
    "project",
    "rename",
    "join",
    "semijoin",
    "product",
    "union",
    "difference",
    "intersection",
    "limit",
    # query
    "Plan",
    "Scan",
    "Restrict",
    "Project",
    "Rename",
    "Join",
    "Union",
    "Difference",
    "Aggregate",
    "Limit",
    "Database",
    # optimizer
    "optimize",
    # cost-based planning
    "CardinalityEstimator",
    "reorder_joins",
    "explain_analyze",
    "qerror",
    # storage
    "RecordStore",
    "SetStore",
    "DiskRelationStore",
    "PageCache",
    # aggregation
    "group_by",
    "aggregate",
    "AGGREGATES",
    # constraints
    "Table",
    "KeyConstraint",
    "ForeignKeyConstraint",
    "CheckConstraint",
    "IntegrityError",
    # sql
    "run",
    "run_rows",
    "parse_query",
    "compile_query",
    # transactions
    "TransactionManager",
    # durability
    "WriteAheadLog",
    "CrashPoint",
    "SimulatedCrashError",
    "CorruptLogError",
    "CorruptSegmentError",
    # distributed
    "Cluster",
    "Node",
    "NetworkStats",
    # replication & faults
    "FaultPlan",
    "FaultInjector",
    "NodeDownError",
    "ShipmentLostError",
    "ShipmentCorruptedError",
    # csv
    "read_csv",
    "write_csv",
    "loads_csv",
    "dumps_csv",
    # views
    "View",
    "ViewCatalog",
    # incremental view maintenance & result cache
    "Delta",
    "DeltaPropagator",
    "DeltaUnsupported",
    "QueryResultCache",
    "plan_cache_key",
    "scan_tables",
    # representations & profiling
    "RowRepresentation",
    "ColumnRepresentation",
    "same_identity",
    # columnar fast path
    "ColumnarRelation",
    "SortedRun",
    "encode",
    "materialize",
    "execute_profiled",
    "profile_cluster",
    "NodeProfile",
]
