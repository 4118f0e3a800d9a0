"""People: a profile instance bound to a device and (maybe) a room."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.profile import PersonProfile


@dataclass(frozen=True, slots=True)
class Person:
    """One simulated person.

    Attributes:
        person_id: Unique id (also used to derive the RNG stream).
        mac: MAC address of the person's device (one device per person;
            the paper's queries are per device).
        profile: The behavioural profile.
        preferred_room: Their owned/preferred room id, or None (visitors).
        predictability: Realized per-person predictability target, drawn
            around the profile's value so a population covers a band.
    """

    person_id: str
    mac: str
    profile: PersonProfile
    preferred_room: "str | None"
    predictability: float

    def __post_init__(self) -> None:
        if not self.person_id or not self.mac:
            raise ConfigurationError("person_id and mac must be non-empty")
        if not 0.0 <= self.predictability <= 1.0:
            raise ConfigurationError(
                f"predictability must be in [0,1], got {self.predictability}")

    def __str__(self) -> str:
        room = self.preferred_room or "-"
        return (f"{self.person_id} ({self.profile.name}, mac={self.mac}, "
                f"room={room}, pred={self.predictability:.2f})")
