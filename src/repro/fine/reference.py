"""Scalar, dict-based reference implementations of the fine numeric core.

The production classes in :mod:`repro.fine.worlds` and
:mod:`repro.fine.affinity` run on dense numpy arrays over interned room
codes.  This module retains the pre-vectorization implementations —
string-keyed dicts, per-room Python loops, scalar ``math.log`` — as the
**oracle** of the property suite
(``tests/property/test_prop_fine_core.py``): on random priors and
affinity maps the array core must agree with these within 1e-9, with
identical argmax and preserved bounds ordering.

Nothing in the production pipeline imports this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.fine.worlds import PosteriorBounds

#: Numerical floor for log-space accumulation (matches the array core).
_TINY = 1e-12


class DictRoomPosterior:
    """The pre-vectorization :class:`~repro.fine.worlds.RoomPosterior`.

    Same mixture-factor model and possible-world bounds (paper §4.2,
    Theorems 1–3), computed with per-room dict loops and scalar math.
    """

    def __init__(self, prior: Mapping[str, float],
                 affinity_cap: float = 0.1) -> None:
        if not prior:
            raise ConfigurationError("posterior needs at least one room")
        if not 0.0 < affinity_cap < 1.0:
            raise ConfigurationError(
                f"affinity_cap must be in (0, 1), got {affinity_cap}")
        total = sum(prior.values())
        if total <= 0:
            raise ConfigurationError("prior must have positive mass")
        self.rooms: tuple[str, ...] = tuple(prior.keys())
        self.cap = affinity_cap
        self._prior: dict[str, float] = {r: max(v / total, _TINY)
                                         for r, v in prior.items()}
        self._log_score: dict[str, float] = {
            r: math.log(p) for r, p in self._prior.items()}
        self._processed = 0

    # ------------------------------------------------------------------
    def factor(self, room_id: str,
               affinities: Mapping[str, float]) -> float:
        """Λ_k(r): the mixture likelihood of one neighbor for one room."""
        mass = sum(affinities.values())
        mass = min(mass, 1.0)
        uniform = 1.0 / len(self.rooms)
        return max(affinities.get(room_id, 0.0)
                   + (1.0 - mass) * uniform, _TINY)

    def observe(self, affinities: Mapping[str, float]) -> None:
        """Fold one processed neighbor into the score."""
        for room in self.rooms:
            self._log_score[room] += math.log(self.factor(room, affinities))
        self._processed += 1

    # ------------------------------------------------------------------
    def posterior(self) -> dict[str, float]:
        """P(r | D̄n) per room, normalized over the candidate set."""
        peak = max(self._log_score.values())
        raw = {r: math.exp(s - peak) for r, s in self._log_score.items()}
        total = sum(raw.values())
        return {r: v / total for r, v in raw.items()}

    def _factor_bounds(self, cap: float) -> "tuple[float, float]":
        c = min(max(cap, 0.0), 1.0 - 1e-9)
        uniform = 1.0 / len(self.rooms)
        fmax = c + (1.0 - c) * uniform    # all affinity mass in this room
        fmin = (1.0 - c) * uniform        # all affinity mass elsewhere
        return max(fmin, _TINY), max(fmax, _TINY)

    def bounds(self, room_id: str, unprocessed: int,
               affinity_caps: "Sequence[float] | None" = None
               ) -> PosteriorBounds:
        """Min/expected/max posterior of ``room_id`` (Theorems 1–3)."""
        if room_id not in self._log_score:
            raise ConfigurationError(f"unknown room {room_id!r}")
        if affinity_caps is not None and len(affinity_caps) != unprocessed:
            raise ConfigurationError(
                f"got {len(affinity_caps)} caps for {unprocessed} devices")
        expected = self.posterior()[room_id]
        if unprocessed == 0:
            return PosteriorBounds(expected=expected, minimum=expected,
                                   maximum=expected)
        log_best, log_worst = self._cap_log_bonuses(unprocessed,
                                                    affinity_caps)
        return self._room_bounds(room_id, expected, log_best, log_worst)

    def _cap_log_bonuses(self, unprocessed: int,
                         affinity_caps: "Sequence[float] | None"
                         ) -> "tuple[float, float]":
        caps = list(affinity_caps) if affinity_caps is not None \
            else [self.cap] * unprocessed
        log_best = 0.0
        log_worst = 0.0
        for cap in caps:
            fmin, fmax = self._factor_bounds(cap)
            log_best += math.log(fmax)
            log_worst += math.log(fmin)
        return log_best, log_worst

    def _room_bounds(self, room_id: str, expected: float,
                     log_best: float, log_worst: float) -> PosteriorBounds:
        maximum = self._normalized(room_id, favoured=room_id,
                                   log_best=log_best, log_worst=log_worst)
        minimum = self._normalized(room_id, favoured=None,
                                   log_best=log_best, log_worst=log_worst)
        return PosteriorBounds(expected=expected,
                               minimum=min(minimum, expected),
                               maximum=max(maximum, expected))

    def bounds_pair(self, room_a: str, room_b: str, unprocessed: int,
                    affinity_caps: "Sequence[float] | None" = None,
                    posterior_map: "Mapping[str, float] | None" = None
                    ) -> "tuple[PosteriorBounds, PosteriorBounds]":
        """Bounds of two rooms sharing one cap accumulation."""
        for room in (room_a, room_b):
            if room not in self._log_score:
                raise ConfigurationError(f"unknown room {room!r}")
        if affinity_caps is not None and len(affinity_caps) != unprocessed:
            raise ConfigurationError(
                f"got {len(affinity_caps)} caps for {unprocessed} devices")
        post = posterior_map if posterior_map is not None else \
            self.posterior()
        if unprocessed == 0:
            return tuple(  # type: ignore[return-value]
                PosteriorBounds(expected=post[room], minimum=post[room],
                                maximum=post[room])
                for room in (room_a, room_b))
        log_best, log_worst = self._cap_log_bonuses(unprocessed,
                                                    affinity_caps)
        return (self._room_bounds(room_a, post[room_a], log_best, log_worst),
                self._room_bounds(room_b, post[room_b], log_best, log_worst))

    def _normalized(self, room_id: str, favoured: "str | None",
                    log_best: float, log_worst: float) -> float:
        scores = {}
        for room in self.rooms:
            bonus = log_best if (
                (favoured is not None and room == favoured)
                or (favoured is None and room != room_id)) \
                else log_worst
            scores[room] = self._log_score[room] + bonus
        peak = max(scores.values())
        raw = {r: math.exp(s - peak) for r, s in scores.items()}
        return raw[room_id] / sum(raw.values())

    @property
    def processed_count(self) -> int:
        return self._processed

    def top_two(self, posterior_map: "Mapping[str, float] | None" = None
                ) -> "tuple[tuple[str, float], tuple[str, float]]":
        """The two rooms with the highest posterior (room, probability)."""
        post = posterior_map if posterior_map is not None else \
            self.posterior()
        ranked = sorted(post.items(), key=lambda kv: (-kv[1], kv[0]))
        if len(ranked) == 1:
            return ranked[0], ("", 0.0)
        return ranked[0], ranked[1]


class DictGroupAffinity:
    """The pre-vectorization per-room group-affinity evaluation (Eq. 1).

    One :meth:`group_affinity` call per room, each re-deriving R_is and
    every member's renormalized room affinity — the exact work pattern
    ``GroupAffinityModel.group_affinities`` collapses into one pass.

    Args:
        room_model: Any :class:`~repro.fine.affinity.RoomAffinityModel`
            (only its dict-returning ``affinities`` is used).
        device_index: Device-affinity co-occurrence index.
        noise_floor: Device affinities below this count as zero.
    """

    def __init__(self, room_model, device_index,
                 noise_floor: float = 0.1) -> None:
        self._rooms = room_model
        self._devices = device_index
        self.noise_floor = noise_floor

    def intersecting_rooms(self, candidate_sets: Sequence[Iterable[str]]
                           ) -> frozenset[str]:
        """R_is: rooms common to every member's candidate set."""
        sets = [frozenset(c) for c in candidate_sets]
        if not sets:
            return frozenset()
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return out

    def group_affinity(self, members: Sequence[tuple[str, Sequence[str]]],
                       room_id: str) -> float:
        """α(D, r, t) for members given as (mac, candidate_rooms) pairs."""
        if len(members) < 2:
            raise ConfigurationError("group affinity needs >= 2 members")
        r_is = self.intersecting_rooms([cands for _, cands in members])
        if room_id not in r_is:
            return 0.0
        device_affinity = self._devices.group(
            frozenset(mac for mac, _ in members))
        if device_affinity < self.noise_floor:
            return 0.0
        value = device_affinity
        for mac, candidates in members:
            alphas = self._rooms.affinities(mac, list(candidates))
            mass_in_ris = sum(alphas.get(r, 0.0) for r in r_is)
            if mass_in_ris <= 0:
                return 0.0
            value *= alphas.get(room_id, 0.0) / mass_in_ris
        return value

    def group_affinities(self, members: Sequence[tuple[str, Sequence[str]]],
                         rooms: Sequence[str]) -> list[float]:
        """α(D, r, t) per room via repeated single-room evaluation."""
        return [self.group_affinity(members, room) for room in rooms]
