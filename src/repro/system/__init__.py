"""The LOCATER system (paper §5, Fig. 5): ingestion, storage, cleaning, query.

`Locater` wires the coarse-grained and fine-grained cleaning engines with
the caching engine behind a single ``locate(mac, t)`` query interface, the
way the paper's prototype does, plus a batched ``locate_batch(queries)``
entry point backed by the planner of :mod:`repro.system.planner`.
`Baseline1` and `Baseline2` implement the comparison systems of §6.1.
"""

from repro.system.baselines import Baseline1, Baseline2, CoarseBaseline
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine, IngestReport
from repro.system.locater import (
    BatchState,
    InvalidationSummary,
    Locater,
    LocationAnswer,
)
from repro.system.planner import (
    BUCKET_SECONDS,
    PlannedQuery,
    QueryGroup,
    QueryPlan,
    plan_queries,
)
from repro.system.query import LocationQuery
from repro.system.storage import (
    InMemoryStorage,
    NamespacedStorage,
    SqliteStorage,
    StorageEngine,
)
from repro.system.streaming import StreamingSession

__all__ = [
    "BUCKET_SECONDS",
    "Baseline1",
    "Baseline2",
    "BatchState",
    "CoarseBaseline",
    "IngestReport",
    "IngestionEngine",
    "InMemoryStorage",
    "InvalidationSummary",
    "Locater",
    "LocaterConfig",
    "LocationAnswer",
    "LocationQuery",
    "NamespacedStorage",
    "PlannedQuery",
    "QueryGroup",
    "QueryPlan",
    "SqliteStorage",
    "StorageEngine",
    "StreamingSession",
    "plan_queries",
]
