"""One dataclass holding every tunable of the LOCATER pipeline.

Defaults follow the best values reported in the paper's evaluation:
τl = 20 min, τh = 170 min (Fig. 7), τ′l = 20 min, τ′h = 40 min, room
affinity weights C2 = (0.6, 0.3, 0.1) (Table 2), D-FINE mode (Table 3),
caching enabled, stop conditions enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.fine.affinity import RoomAffinityWeights
from repro.fine.localizer import FineMode
from repro.util.timeutil import SECONDS_PER_DAY, minutes


@dataclass(frozen=True, slots=True)
class LocaterConfig:
    """Complete configuration of a :class:`~repro.system.locater.Locater`.

    Attributes:
        tau_low: Bootstrap threshold τl — gaps at most this long are
            labeled inside the building.
        tau_high: Bootstrap threshold τh — gaps at least this long are
            labeled outside.
        tau_region_low / tau_region_high: The τ′ thresholds of the
            region-level bootstrapper.
        room_weights: The (w^pf, w^pb, w^pr) room-affinity triple.
        fine_mode: I-FINE (independent) or D-FINE (dependent clusters).
        use_stop_conditions: Algorithm 2's loosened early termination.
        use_caching: Maintain and consult the global affinity graph.
        cache_sigma: Temporal Gaussian σ (seconds) of the caching engine.
        max_neighbors: Cap on neighbors examined per fine query.
        affinity_cap: Default co-location-mass upper bound for unprocessed
            neighbors in the possible-world bounds.
        affinity_noise_floor: Device affinities below this count as zero
            when computing group affinity (suppresses incidental same-AP
            coincidences between unrelated devices).
        reuse_affinity_cache: Memoize mined device affinities across
            queries.  Default True (production-sane).  The paper's
            efficiency experiments (§6.4) assume affinities are
            re-derived from history per query — set False to reproduce
            that cost model (the caching *engine* then provides the
            savings, as in the paper).
        self_training_batch: Gaps promoted per Algorithm 1 round (1 =
            paper-literal; higher is faster, near-identical labels).
        history_days: Days of history used to train models and mine
            affinities (None = everything available).
    """

    tau_low: float = minutes(20)
    tau_high: float = minutes(170)
    tau_region_low: float = minutes(20)
    tau_region_high: float = minutes(40)
    room_weights: RoomAffinityWeights = field(
        default_factory=RoomAffinityWeights)
    fine_mode: FineMode = FineMode.DEPENDENT
    use_stop_conditions: bool = True
    use_caching: bool = True
    cache_sigma: float = SECONDS_PER_DAY
    max_neighbors: int = 24
    affinity_cap: float = 0.1
    affinity_noise_floor: float = 0.1
    reuse_affinity_cache: bool = True
    self_training_batch: int = 4
    history_days: "int | None" = None

    def __post_init__(self) -> None:
        if not 0 < self.tau_low < self.tau_high:
            raise ConfigurationError(
                f"need 0 < tau_low < tau_high, got "
                f"({self.tau_low}, {self.tau_high})")
        if not self.tau_region_low <= self.tau_region_high:
            raise ConfigurationError(
                f"need tau_region_low <= tau_region_high, got "
                f"({self.tau_region_low}, {self.tau_region_high})")
        if not 0 < self.affinity_cap < 1:
            raise ConfigurationError(
                f"affinity_cap must be in (0, 1), got {self.affinity_cap}")
        if self.max_neighbors < 1:
            raise ConfigurationError(
                f"max_neighbors must be >= 1, got {self.max_neighbors}")
        if self.self_training_batch < 1:
            raise ConfigurationError(
                f"self_training_batch must be >= 1, got "
                f"{self.self_training_batch}")
        if self.history_days is not None and self.history_days < 0:
            raise ConfigurationError(
                f"history_days must be >= 0 or None, got {self.history_days}")

    def with_(self, **changes) -> "LocaterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def independent(cls, **changes) -> "LocaterConfig":
        """Convenience: an I-LOCATER configuration."""
        return cls(fine_mode=FineMode.INDEPENDENT).with_(**changes)

    @classmethod
    def dependent(cls, **changes) -> "LocaterConfig":
        """Convenience: a D-LOCATER configuration."""
        return cls(fine_mode=FineMode.DEPENDENT).with_(**changes)
