"""Property-based tests for the event table."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.util.timeutil import TimeInterval


raw_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.sampled_from(["m1", "m2", "m3"]),
        st.sampled_from(["wap1", "wap2", "wap3"])),
    min_size=1, max_size=60)


@given(raw_events)
@settings(max_examples=60)
def test_logs_sorted_and_complete(rows):
    table = EventTable.from_events(
        ConnectivityEvent(t, mac, ap) for t, mac, ap in rows)
    assert len(table) == len(rows)
    total = 0
    for mac in table.macs():
        log = table.log(mac)
        total += len(log)
        assert (np.diff(log.times) >= 0).all()
    assert total == len(rows)


@given(raw_events, st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=60)
def test_slice_matches_linear_scan(rows, a, b):
    lo, hi = min(a, b), max(a, b)
    table = EventTable.from_events(
        ConnectivityEvent(t, mac, ap) for t, mac, ap in rows)
    window = TimeInterval(lo, hi)
    for mac in table.macs():
        expected = sorted(t for t, m, _ in rows
                          if m == mac and lo <= t < hi)
        times, _ = table.log(mac).slice_interval(window)
        assert list(times) == expected
        assert table.log(mac).count_in(window) == len(expected)


@given(raw_events)
@settings(max_examples=60)
def test_incremental_equals_batch(rows):
    batch = EventTable.from_events(
        ConnectivityEvent(t, mac, ap) for t, mac, ap in rows)
    incremental = EventTable()
    half = len(rows) // 2
    incremental.extend(ConnectivityEvent(t, mac, ap)
                       for t, mac, ap in rows[:half])
    incremental.freeze()
    incremental.extend(ConnectivityEvent(t, mac, ap)
                       for t, mac, ap in rows[half:])
    incremental.freeze()
    for mac in batch.macs():
        assert list(batch.log(mac).times) == \
            list(incremental.log(mac).times)


@given(raw_events, st.lists(st.integers(min_value=0, max_value=60),
                            min_size=0, max_size=5))
@settings(max_examples=60)
def test_streamed_freezes_equal_from_events(rows, cut_points):
    """Append-after-freeze over any chunking ≡ one-shot from_events.

    The incremental searchsorted/insert merge must reproduce, chunk
    schedule notwithstanding: per-device log order (stable under ties),
    the AP vocabulary in first-seen order, the table length, and the δ
    estimates installed by the estimator (pure functions of the logs).
    """
    from repro.events.validity import DeltaEstimator

    events = [ConnectivityEvent(t, mac, ap) for t, mac, ap in rows]
    batch = EventTable.from_events(events)
    DeltaEstimator().fit_table(batch)

    streamed = EventTable()
    cuts = sorted({min(c, len(events)) for c in cut_points})
    edges = [0, *cuts, len(events)]
    generation = streamed.generation
    for lo, hi in zip(edges, edges[1:]):
        before = streamed.generation
        streamed.extend(events[lo:hi])
        streamed.freeze()
        # The change feed names exactly the devices of each chunk.
        assert streamed.changed_since(before) == \
            {mac for _, mac, _ in rows[lo:hi]}
    changed_macs = streamed.changed_since(generation)

    assert len(streamed) == len(batch)
    assert streamed.ap_ids == batch.ap_ids
    assert sorted(streamed.macs()) == sorted(batch.macs())
    assert changed_macs == {mac for _, mac, _ in rows}
    DeltaEstimator().fit_devices(streamed, sorted(changed_macs))
    for mac in batch.macs():
        expected = batch.log(mac)
        got = streamed.log(mac)
        assert list(got.times) == list(expected.times)
        assert [got.ap_at(i) for i in range(len(got))] == \
            [expected.ap_at(i) for i in range(len(expected))]
        assert streamed.registry.get(mac).delta == \
            batch.registry.get(mac).delta


@given(raw_events, st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=40)
def test_restrict_then_span_within_window(rows, a, b):
    lo, hi = min(a, b), max(a, b)
    table = EventTable.from_events(
        ConnectivityEvent(t, mac, ap) for t, mac, ap in rows)
    clipped = table.restrict(TimeInterval(lo, hi))
    if len(clipped):
        span = clipped.span()
        assert span.start >= lo
        assert span.end <= hi + 1e-6
