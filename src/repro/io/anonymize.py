"""Salted MAC-address anonymization.

The paper's data comes from the TIPPERS privacy-cognizant IoT testbed;
deployments typically pseudonymize MAC addresses before analysis.  A
keyed hash preserves exactly what LOCATER needs — the ability to link
events of the same device — while removing the hardware identifier.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.events.event import ConnectivityEvent


class MacAnonymizer:
    """Deterministic, salted MAC pseudonymization.

    The same (salt, mac) always maps to the same pseudonym, so device
    linkage — and therefore every LOCATER algorithm — survives
    anonymization; without the salt the mapping is not invertible.

    Args:
        salt: Secret key for the HMAC; deployments rotate it per
            retention period.
        prefix: Prefix of generated pseudonyms (cosmetic).
        digest_chars: Length of the hex digest kept (collision risk is
            ~2^(-4·chars/2); the default 12 is ample for building scale).
    """

    def __init__(self, salt: str, prefix: str = "anon-",
                 digest_chars: int = 12) -> None:
        if not salt:
            raise ConfigurationError("salt must be non-empty")
        if digest_chars < 8:
            raise ConfigurationError("digest_chars must be >= 8")
        self._key = salt.encode("utf-8")
        self.prefix = prefix
        self.digest_chars = digest_chars
        self._memo: dict[str, str] = {}

    def pseudonym(self, mac: str) -> str:
        """The stable pseudonym of one MAC address."""
        cached = self._memo.get(mac)
        if cached is None:
            digest = hmac.new(self._key, mac.encode("utf-8"),
                              hashlib.sha256).hexdigest()
            cached = self.prefix + digest[: self.digest_chars]
            self._memo[mac] = cached
        return cached

    def anonymize(self, events: Iterable[ConnectivityEvent]
                  ) -> Iterator[ConnectivityEvent]:
        """Stream events with MACs replaced by pseudonyms."""
        for event in events:
            yield ConnectivityEvent(timestamp=event.timestamp,
                                    mac=self.pseudonym(event.mac),
                                    ap_id=event.ap_id,
                                    event_id=event.event_id)

    def mapping_size(self) -> int:
        """Number of distinct MACs pseudonymized so far."""
        return len(self._memo)
