"""Room posterior with possible-world bounds (paper §4.2, Theorems 1–3).

The iterative localizer maintains, for every candidate room, the posterior
probability given the *processed* neighbors plus min/max/expected bounds
over all *possible worlds* — assignments of rooms to the unprocessed
neighbors.  Theorem 1: the maximum is achieved when every unprocessed
device sits in the candidate room; Theorem 2: the minimum when they all
sit in the strongest other room; Theorem 3: the expectation equals the
posterior on processed devices alone.

The paper derives the posterior (Eq. 3) as a product of per-neighbor
likelihood factors built from group affinities.  Two clarifications we
adopt (documented in DESIGN.md):

* Eq. 2's prior P(r) — the room affinity — is kept, so with zero
  processed neighbors the posterior reduces to the room-affinity argmax
  (the paper's observed no-history behaviour).
* Each neighbor's factor is the **mixture likelihood**

      Λ_k(r) = α_k(r) + (1 − m_k) / |R|

  where α_k(r) is the group affinity of room r, m_k = Σ_r α_k(r) is the
  neighbor's total co-location mass, and |R| is the candidate-set size.
  With probability mass m_k the neighbor is genuinely co-located (in
  rooms proportional to α_k); with the remaining mass it carries no
  information about the queried device, so it contributes a *constant*
  — i.e. it is neutral and cancels in normalization.  A neighbor with
  zero affinities leaves the posterior untouched, while a strong
  companion (large device affinity) pulls the posterior towards the
  shared rooms.  This keeps the monotonicity that Theorems 1–2 rely on:
  Λ_k(r) is increasing in α_k(r) and decreasing in mass placed on other
  rooms.

Posterior: P(r | D̄n) ∝ q(r) · Π_k Λ_k(r), normalized over candidates,
with q the room-affinity prior.  Bounds for one room use the worst/best
factor per unprocessed neighbor under an affinity-mass cap c (cached
estimate or configuration default): max factor c + (1 − c)/|R| (all
mass in r), min factor (1 − c)/|R| (all mass elsewhere), combined
adversarially across rooms before normalization so ``min ≤ exp ≤ max``
always holds.

**Array core.**  The posterior holds its state as dense float64 arrays
aligned to the candidate-room tuple: the log-scores are one vector,
``observe_array`` folds a whole affinity vector in with one
``np.log``, and the bounds evaluate every room's adversarial
renormalization as a single vectorized pass.  The dict-facing methods
(``observe``, ``posterior``, the mapping-keyed ``bounds``) are thin
adapters kept for the public API; hot-path callers (the fine localizer)
stay on the array forms throughout.  The pre-vectorization scalar
implementation survives as
``DictRoomPosterior`` in ``tests/oracles/fine.py``, the oracle of the
property suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Numerical floor for log-space accumulation.
_TINY = 1e-12


@dataclass(frozen=True, slots=True)
class PosteriorBounds:
    """Bounds of one room's posterior given unprocessed neighbors.

    Attributes:
        expected: expP(r | D̄n) — equals the current posterior (Theorem 3).
        minimum: minP(r | D̄n) — all unprocessed placed adversarially
            (in the strongest competing room, Theorem 2).
        maximum: maxP(r | D̄n) — all unprocessed placed in r (Theorem 1).
    """

    expected: float
    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        if not (self.minimum - 1e-9 <= self.expected <= self.maximum + 1e-9):
            raise ValueError(
                f"inconsistent bounds: min={self.minimum} "
                f"exp={self.expected} max={self.maximum}")


class RoomPosterior:
    """Incremental posterior over candidate rooms (mixture factor model).

    State lives in float64 arrays aligned to ``rooms``; construct from a
    mapping (public API) or :meth:`from_vector` (array hot path).

    Args:
        prior: Room-affinity prior per candidate room (positive values;
            normalized internally).
        affinity_cap: Default upper bound on an unprocessed neighbor's
            group-affinity mass when no cached estimate is available
            (tightens the possible-world bounds).
    """

    def __init__(self, prior: Mapping[str, float],
                 affinity_cap: float = 0.1) -> None:
        if not prior:
            raise ConfigurationError("posterior needs at least one room")
        self._init_arrays(
            tuple(prior.keys()),
            np.fromiter(prior.values(), dtype=np.float64, count=len(prior)),
            affinity_cap)

    @classmethod
    def from_vector(cls, rooms: Sequence[str], prior: np.ndarray,
                    affinity_cap: float = 0.1) -> "RoomPosterior":
        """Construct from a prior vector aligned to ``rooms``."""
        self = cls.__new__(cls)
        self._init_arrays(tuple(rooms),
                          np.asarray(prior, dtype=np.float64),
                          affinity_cap)
        return self

    def _init_arrays(self, rooms: tuple[str, ...], prior: np.ndarray,
                     affinity_cap: float) -> None:
        if not rooms:
            raise ConfigurationError("posterior needs at least one room")
        if len(rooms) != prior.size:
            raise ConfigurationError(
                f"prior vector of size {prior.size} for {len(rooms)} rooms")
        if not 0.0 < affinity_cap < 1.0:
            raise ConfigurationError(
                f"affinity_cap must be in (0, 1), got {affinity_cap}")
        total = float(prior.sum())
        if total <= 0:
            raise ConfigurationError("prior must have positive mass")
        self.rooms = rooms
        self.cap = affinity_cap
        self._pos: dict[str, int] = {r: i for i, r in enumerate(rooms)}
        self._prior_vec = np.maximum(prior / total, _TINY)
        # Unnormalized log score per room; starts at the log prior.
        self._log_score = np.log(self._prior_vec)
        # Lexicographic rank per room (the top-two tie-break key),
        # computed lazily: D-FINE rebuilds a posterior per neighbor and
        # its final fold never ranks rooms.
        self._lex_rank: "np.ndarray | None" = None
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
        """Fold one processed neighbor (or D-FINE cluster) into the score.

        ``affinities[room]`` is α({d_i, d_k}, room, t_q); rooms absent
        from the mapping count as zero affinity.  Dict-facing adapter
        over :meth:`observe_array`; mass contributed by rooms outside
        the candidate set still discounts the uniform remainder, as in
        the scalar model.
        """
        alpha = np.zeros(len(self.rooms), dtype=np.float64)
        for room, value in affinities.items():
            pos = self._pos.get(room)
            if pos is not None:
                alpha[pos] = value
        self.observe_array(alpha, mass=sum(affinities.values()))

    def observe_array(self, alpha: np.ndarray,
                      mass: "float | None" = None) -> None:
        """Fold one neighbor's affinity vector (aligned to ``rooms``) in.

        Args:
            alpha: α(D, r, t_q) per candidate room, aligned to ``rooms``.
            mass: Total co-location mass m_k; defaults to ``alpha.sum()``
                (callers whose mass includes out-of-candidate rooms pass
                it explicitly).
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape != self._log_score.shape:
            raise ConfigurationError(
                f"affinity vector of size {alpha.size} for "
                f"{len(self.rooms)} rooms")
        if mass is None:
            mass = float(alpha.sum())
        mass = min(mass, 1.0)
        uniform = 1.0 / len(self.rooms)
        factors = np.maximum(alpha + (1.0 - mass) * uniform, _TINY)
        self._log_score += np.log(factors)
        self._processed += 1

    # ------------------------------------------------------------------
    def posterior_array(self) -> np.ndarray:
        """P(r | D̄n) as a vector aligned to ``rooms`` (hot path)."""
        raw = np.exp(self._log_score - self._log_score.max())
        return raw / raw.sum()

    def posterior(self) -> dict[str, float]:
        """P(r | D̄n) per room, normalized over the candidate set."""
        post = self.posterior_array()
        return {room: float(p) for room, p in zip(self.rooms, post)}

    def prior_of(self, room_id: str) -> float:
        """The normalized prior of one room."""
        return float(self._prior_vec[self._pos[room_id]])

    def bounds(self, room_id: str, unprocessed: int,
               affinity_caps: "Sequence[float] | np.ndarray | None" = None
               ) -> PosteriorBounds:
        """Min/expected/max posterior of ``room_id`` (Theorems 1–3).

        Args:
            unprocessed: |Dn \\ D̄n| — neighbors not yet folded in.
            affinity_caps: Optional per-unprocessed-device upper bounds on
                co-location mass (e.g. cached global-graph weights);
                defaults to the model's ``affinity_cap`` for each.

        The normalized bound places every unprocessed neighbor's factor
        at its best (worst) value for ``room_id`` while the competing
        rooms receive their worst (best) values — a conservative envelope
        of every possible world.
        """
        pos = self._pos.get(room_id)
        if pos is None:
            raise ConfigurationError(f"unknown room {room_id!r}")
        self._check_caps(unprocessed, affinity_caps)
        expected = float(self.posterior_array()[pos])
        if unprocessed == 0:
            return PosteriorBounds(expected=expected, minimum=expected,
                                   maximum=expected)
        log_best, log_worst = self._cap_log_bonuses(unprocessed,
                                                    affinity_caps)
        return self._room_bounds(pos, expected, log_best, log_worst)

    @staticmethod
    def _check_caps(unprocessed: int,
                    affinity_caps: "Sequence[float] | np.ndarray | None"
                    ) -> None:
        if affinity_caps is not None and len(affinity_caps) != unprocessed:
            raise ConfigurationError(
                f"got {len(affinity_caps)} caps for {unprocessed} devices")

    def _cap_log_bonuses(self, unprocessed: int,
                         affinity_caps: "Sequence[float] | np.ndarray | None"
                         ) -> "tuple[float, float]":
        """Accumulated (log_best, log_worst) bonuses of the unprocessed.

        The factor bounds depend only on the cap and the candidate-set
        size — not on the room — so the accumulated log-bonuses are two
        scalars shared by every room, computed with one vectorized pass
        over the cap array (this sits on the stop-condition hot path).
        """
        if affinity_caps is None:
            caps = np.full(unprocessed, self.cap, dtype=np.float64)
        else:
            caps = np.asarray(affinity_caps, dtype=np.float64)
        c = np.clip(caps, 0.0, 1.0 - 1e-9)
        uniform = 1.0 / len(self.rooms)
        fmax = np.maximum(c + (1.0 - c) * uniform, _TINY)
        fmin = np.maximum((1.0 - c) * uniform, _TINY)
        return float(np.log(fmax).sum()), float(np.log(fmin).sum())

    def _room_bounds(self, pos: int, expected: float,
                     log_best: float, log_worst: float) -> PosteriorBounds:
        """One room's clamped bounds from the shared log-bonuses."""
        maximum = self._normalized(pos, favoured=True,
                                   log_best=log_best, log_worst=log_worst)
        minimum = self._normalized(pos, favoured=False,
                                   log_best=log_best, log_worst=log_worst)
        return PosteriorBounds(expected=expected,
                               minimum=min(minimum, expected),
                               maximum=max(maximum, expected))

    def bounds_pair(self, room_a: str, room_b: str, unprocessed: int,
                    affinity_caps: "Sequence[float] | np.ndarray | None"
                    = None,
                    posterior_map:
                    "Mapping[str, float] | np.ndarray | None" = None
                    ) -> "tuple[PosteriorBounds, PosteriorBounds]":
        """Bounds of two rooms sharing one cap accumulation (hot path).

        Equivalent to ``(bounds(room_a, ...), bounds(room_b, ...))`` but
        the cap-dependent log-bonuses (room-independent) and the current
        posterior are computed once instead of per room.  The stop
        conditions of Algorithm 2 evaluate exactly this pair each
        iteration.

        Args:
            posterior_map: Optional precomputed posterior — either the
                :meth:`posterior` mapping or the :meth:`posterior_array`
                vector — letting callers that already normalized reuse
                it.
        """
        positions = []
        for room in (room_a, room_b):
            pos = self._pos.get(room)
            if pos is None:
                raise ConfigurationError(f"unknown room {room!r}")
            positions.append(pos)
        self._check_caps(unprocessed, affinity_caps)
        post = self._as_posterior_array(posterior_map)
        pa, pb = positions
        if unprocessed == 0:
            return tuple(  # type: ignore[return-value]
                PosteriorBounds(expected=float(post[pos]),
                                minimum=float(post[pos]),
                                maximum=float(post[pos]))
                for pos in positions)
        log_best, log_worst = self._cap_log_bonuses(unprocessed,
                                                    affinity_caps)
        return (self._room_bounds(pa, float(post[pa]), log_best, log_worst),
                self._room_bounds(pb, float(post[pb]), log_best, log_worst))

    def _as_posterior_array(self, posterior_map:
                            "Mapping[str, float] | np.ndarray | None"
                            ) -> np.ndarray:
        """Normalize the optional precomputed-posterior argument."""
        if posterior_map is None:
            return self.posterior_array()
        if isinstance(posterior_map, np.ndarray):
            return posterior_map
        return np.fromiter((posterior_map[r] for r in self.rooms),
                           dtype=np.float64, count=len(self.rooms))

    def _normalized(self, pos: int, favoured: bool,
                    log_best: float, log_worst: float) -> float:
        """Normalized posterior with adversarial unprocessed factors.

        ``favoured=True`` yields the maximum for the room at ``pos``
        (its factors maximized, every other room minimized);
        ``favoured=False`` yields the minimum (room minimized, others
        maximized).  ``log_best`` and ``log_worst`` are the accumulated
        log-bonuses of the unprocessed neighbors (room-independent, see
        :meth:`bounds`).
        """
        if favoured:
            bonus = np.full(len(self.rooms), log_worst, dtype=np.float64)
            bonus[pos] = log_best
        else:
            bonus = np.full(len(self.rooms), log_best, dtype=np.float64)
            bonus[pos] = log_worst
        scores = self._log_score + bonus
        raw = np.exp(scores - scores.max())
        return float(raw[pos] / raw.sum())

    @property
    def processed_count(self) -> int:
        """Number of neighbors folded in so far."""
        return self._processed

    def top_two(self, posterior_map:
                "Mapping[str, float] | np.ndarray | None" = None
                ) -> "tuple[tuple[str, float], tuple[str, float]]":
        """The two rooms with the highest posterior (room, probability).

        Ties break lexicographically by room id.  With a single candidate
        room, the runner-up is a sentinel with probability 0 so stop
        conditions trivially hold.

        Args:
            posterior_map: Optional precomputed posterior — mapping or
                :meth:`posterior_array` vector (hot-path callers
                normalize once and reuse it).
        """
        post = self._as_posterior_array(posterior_map)
        if len(self.rooms) == 1:
            return (self.rooms[0], float(post[0])), ("", 0.0)
        if self._lex_rank is None:
            self._lex_rank = np.argsort(np.argsort(np.array(self.rooms)))
        order = np.lexsort((self._lex_rank, -post))
        best, runner = int(order[0]), int(order[1])
        return ((self.rooms[best], float(post[best])),
                (self.rooms[runner], float(post[runner])))


#: Backwards-compatible alias (earlier drafts called this PosteriorOdds).
PosteriorOdds = RoomPosterior
