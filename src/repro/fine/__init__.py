"""Fine-grained localization: room disambiguation (paper §4).

Given the coarse answer — a region gx — pick the room r ∈ R(gx) with the
highest posterior probability, combining:

* **room affinity** α(d, r, t): a metadata prior over preferred / public /
  private candidate rooms;
* **device affinity** α(D): the fraction of co-occurring connectivity
  events among a device set, mined from the historical log;
* **group affinity** α(D, r, t) (Eq. 1): device affinity × each member's
  conditional probability of being in r given the intersecting rooms.

Two inference variants are provided: I-FINE (conditional independence
across neighbors, Eq. 3, with possible-world min/max/expected bounds per
Theorems 1–3 and the loosened early-stop conditions) and D-FINE (neighbor
clusters treated as units, Eq. 6).

Array core and the dict boundary
--------------------------------

The numeric pipeline runs end to end on dense numpy arrays over the
building's interned room codes (:class:`repro.space.RoomIndex`):

* ``RoomAffinityModel.affinity_vector(_at)`` returns α(d, ·) as a
  float64 vector aligned to the candidate-room tuple;
* ``GroupAffinityModel.group_affinities(members, rooms)`` computes R_is
  membership, the device affinity, and every member's renormalized
  alpha in **one pass**, yielding α(D, r, t) for all candidate rooms at
  once;
* :class:`~repro.fine.worlds.RoomPosterior` holds log-scores as one
  float64 array with vectorized ``observe_array`` /
  ``posterior_array`` / ``bounds`` / ``bounds_pair`` / ``top_two``;
* neighbor affinity caps flow through as NaN-filled vectors aligned
  with the (re)ordered neighbor list (see
  ``CachingEngine.prepare_neighbors``).

Neighbor discovery (§4.2) is vectorized the same way.
``NeighborIndex.snapshot(t)`` — the devices online at t and their
regions, memoized per timestamp — is one pass of
:func:`~repro.events.validity.valid_events_at` over the table's
generation-keyed :meth:`~repro.events.table.EventTable.flat_logs`
instead of a loop over devices.  A snapshot holds two int32 arrays,
each online device's row and region id, plus the view's ``macs``
tuple.  Rows decode through that tuple, never through the current
view: a memoized snapshot outlives later generations (invalidation is
surgical, within δ of new rows), and a new device shifts every later
row.  ``neighbors_for`` picks a query's neighbors with one row of the
building's precomputed region × region overlap table and builds
``NeighborDevice`` objects only for the first ``max_neighbors`` hits.
:func:`~repro.fine.neighbors.find_neighbors`,
:func:`~repro.events.validity.valid_event_at` and
:meth:`~repro.space.region.Region.shared_rooms` stay the scalar
reference (``tests/property/test_prop_snapshot.py``).

The **dict boundary contract**: everything callers consume keeps its
string-keyed mapping form — ``FineResult.posterior``, ``edge_weights``,
``RoomAffinityModel.affinities(_at)``, ``RoomPosterior.observe`` /
``posterior``, and ``GroupAffinityModel.group_affinity`` are thin
adapters over the array core, so the CLI, eval harness, and storage
layers are untouched by the representation.  Batch and sequential paths
share the same core, keeping their answers bitwise identical.  The
pre-vectorization scalar implementation is retained in
:mod:`repro.fine.reference` as the property-suite oracle
(``tests/property/test_prop_fine_core.py``).
"""

from repro.fine.affinity import (
    DeviceAffinityIndex,
    GroupAffinityModel,
    RoomAffinityModel,
    RoomAffinityWeights,
)
from repro.fine.neighbors import NeighborDevice, NeighborIndex, find_neighbors
from repro.fine.time_dependent import (
    TimeDependentRoomAffinityModel,
    TimeWindowPreference,
)
from repro.fine.worlds import PosteriorBounds, RoomPosterior
from repro.fine.localizer import (
    FineLocalizer,
    FineMode,
    FineResult,
    FineSharedState,
)

__all__ = [
    "DeviceAffinityIndex",
    "FineLocalizer",
    "FineMode",
    "FineResult",
    "FineSharedState",
    "GroupAffinityModel",
    "NeighborDevice",
    "NeighborIndex",
    "PosteriorBounds",
    "RoomAffinityModel",
    "RoomAffinityWeights",
    "RoomPosterior",
    "TimeDependentRoomAffinityModel",
    "TimeWindowPreference",
    "find_neighbors",
]
