"""Unit tests for LocaterConfig and query types."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, InvalidQueryError, ReproError
from repro.fine.localizer import FineMode
from repro.system.config import LocaterConfig
from repro.system.query import LocationQuery
from repro.util.timeutil import minutes


class TestLocaterConfig:
    def test_defaults_match_paper_best(self):
        config = LocaterConfig()
        assert config.tau_low == minutes(20)
        assert config.tau_high == minutes(170)
        assert config.fine_mode is FineMode.DEPENDENT
        assert config.use_stop_conditions
        assert config.use_caching
        assert (config.room_weights.preferred,
                config.room_weights.public,
                config.room_weights.private) == (0.6, 0.3, 0.1)

    def test_with_replaces(self):
        config = LocaterConfig().with_(use_caching=False)
        assert not config.use_caching
        assert config.tau_low == minutes(20)  # untouched

    def test_shorthand_constructors(self):
        assert LocaterConfig.independent().fine_mode is \
            FineMode.INDEPENDENT
        assert LocaterConfig.dependent().fine_mode is FineMode.DEPENDENT

    def test_rejects_inverted_taus(self):
        with pytest.raises(ConfigurationError):
            LocaterConfig(tau_low=minutes(200), tau_high=minutes(100))

    def test_rejects_bad_neighbors(self):
        with pytest.raises(ConfigurationError):
            LocaterConfig(max_neighbors=0)

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            LocaterConfig(self_training_batch=0)

    def test_rejects_negative_history(self):
        with pytest.raises(ConfigurationError):
            LocaterConfig(history_days=-1)

    def test_history_zero_allowed(self):
        assert LocaterConfig(history_days=0).history_days == 0

    @pytest.mark.parametrize("changes", [
        {"affinity_cap": 0.0},
        {"affinity_cap": 1.0},
        {"affinity_cap": 1.5},
        {"affinity_cap": math.nan},
        {"tau_region_low": minutes(50), "tau_region_high": minutes(40)},
        {"tau_region_high": math.nan},
        {"tau_low": math.nan},
        {"tau_high": math.nan},
    ])
    def test_rejects_at_construction(self, changes):
        # Each was accepted here and failed only later: at Locater()
        # or at the first fine query.
        with pytest.raises(ConfigurationError) as caught:
            LocaterConfig(**changes)
        assert isinstance(caught.value, ValueError)


class TestLocationQuery:
    def test_fields(self):
        query = LocationQuery(mac="d1", timestamp=1000.0)
        assert query.mac == "d1"
        assert "d1" in str(query)

    def test_rejects_empty_mac(self):
        with pytest.raises(InvalidQueryError):
            LocationQuery(mac="", timestamp=0.0)

    @pytest.mark.parametrize("timestamp", [-1.0, math.nan, math.inf,
                                           -math.inf])
    def test_rejects_negative_time(self, timestamp):
        with pytest.raises(InvalidQueryError) as caught:
            LocationQuery(mac="d1", timestamp=timestamp)
        # Typed at the API boundary, and still the ValueError it was.
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, ValueError)
