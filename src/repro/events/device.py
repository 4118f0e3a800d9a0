"""Devices and the device registry.

A device is identified by its MAC address.  The registry interns devices,
assigns dense integer indices (useful for numpy-backed structures), and
records each device's validity period δ(d) once estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.errors import (
    ConfigurationError,
    InvalidEventError,
    UnknownDeviceError,
)
from repro.util.timeutil import minutes


#: Fallback validity period when a device has too little history for the
#: estimator (paper appendix): 10 minutes, a typical OS probe interval.
DEFAULT_DELTA_SECONDS = minutes(10)


@dataclass(slots=True)
class Device:
    """A WiFi device: a MAC address plus derived per-device parameters.

    Attributes:
        mac: The MAC address string (unique).
        index: Dense index assigned by the registry (stable insert order).
        delta: Temporal validity δ(d) of this device's events in seconds;
            events are valid within ±δ of their timestamp (paper §2).
    """

    mac: str
    index: int
    delta: float = field(default=DEFAULT_DELTA_SECONDS)

    def __post_init__(self) -> None:
        if not self.mac:
            raise InvalidEventError("mac must be non-empty")
        if self.delta <= 0:
            raise ConfigurationError(f"delta must be > 0, got {self.delta}")

    def __str__(self) -> str:
        return f"Device {self.mac} (δ={self.delta:.0f}s)"


class DeviceRegistry:
    """Interns :class:`Device` objects keyed by MAC address."""

    def __init__(self) -> None:
        self._by_mac: dict[str, Device] = {}

    def intern(self, mac: str) -> Device:
        """Return the device for ``mac``, creating it on first sight."""
        device = self._by_mac.get(mac)
        if device is None:
            device = Device(mac=mac, index=len(self._by_mac))
            self._by_mac[mac] = device
        return device

    def get(self, mac: str) -> Device:
        """Return the device for ``mac``; raise if never seen."""
        try:
            return self._by_mac[mac]
        except KeyError:
            raise UnknownDeviceError(f"device {mac!r} never observed") from None

    def __contains__(self, mac: str) -> bool:
        return mac in self._by_mac

    def __len__(self) -> int:
        return len(self._by_mac)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._by_mac.values())

    def macs(self) -> list[str]:
        """All known MAC addresses in first-seen order."""
        return list(self._by_mac.keys())
