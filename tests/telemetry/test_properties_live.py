"""Property-based tests (hypothesis) of the observability primitives.

* :class:`MetricChannel` decimation: bounded memory, exact offer
  accounting, and uniform spacing of the retained offers at the
  current stride — for any run length and capacity.
* :class:`Histogram`: bucket counts partition the observations, the
  cumulative rendering is monotone, and the sum matches.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.telemetry.live import Histogram
from repro.telemetry.recorder import MetricChannel

capacities = st.integers(min_value=2, max_value=64)
run_lengths = st.integers(min_value=0, max_value=3000)


class TestChannelDecimationProperties:
    @given(capacity=capacities, n=run_lengths)
    @settings(max_examples=60, deadline=None)
    def test_kept_bounded_and_offered_exact(self, capacity, n):
        chan = MetricChannel("v", capacity=capacity)
        for cycle in range(n):
            chan.record(cycle, float(cycle))
        assert len(chan) <= capacity
        assert chan.offered == n
        assert len(chan.cycles) == len(chan.values)

    @given(capacity=capacities, n=run_lengths)
    @settings(max_examples=60, deadline=None)
    def test_retained_offers_uniformly_spaced_at_stride(self, capacity, n):
        chan = MetricChannel("v", capacity=capacity)
        for cycle in range(n):
            chan.record(cycle, float(cycle))
        # Offer index == cycle here, so the retained cycles must be
        # exactly 0, stride, 2*stride, ...: uniformly spaced from the
        # first offer, no gaps, no phase drift after any number of
        # halvings.
        assert chan.cycles == list(range(0, n, chan.stride))[: len(chan)]
        stride = chan.stride
        assert stride & (stride - 1) == 0  # power of two
        assert all(c % stride == 0 for c in chan.cycles)

    @given(capacity=capacities, n=run_lengths)
    @settings(max_examples=60, deadline=None)
    def test_values_follow_their_cycles(self, capacity, n):
        chan = MetricChannel("v", capacity=capacity)
        for cycle in range(n):
            chan.record(cycle, float(cycle) * 0.5)
        assert chan.values == [c * 0.5 for c in chan.cycles]

    @given(
        capacity=capacities,
        pre=st.integers(min_value=0, max_value=300),
        n=run_lengths,
    )
    @settings(max_examples=60, deadline=None)
    def test_record_series_matches_one_record_per_value(
        self, capacity, pre, n
    ):
        ref = MetricChannel("v", capacity=capacity)
        chan = MetricChannel("v", capacity=capacity)
        for cycle in range(pre):
            ref.record(cycle, float(cycle))
            chan.record(cycle, float(cycle))
        values = [k * 0.25 for k in range(n)]
        for k, value in enumerate(values):
            ref.record(pre + k, value)
        chan.record_series(pre, values)
        assert chan.to_dict() == ref.to_dict()

    @given(
        capacity=capacities,
        sizes=st.lists(
            st.integers(min_value=0, max_value=400), min_size=2, max_size=3
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_record_series_calls_in_a_row_match_record(
        self, capacity, sizes
    ):
        # Windows of a NumPy array, back to back across halvings, with
        # a gap in the cycle numbering between calls.
        ref = MetricChannel("v", capacity=capacity)
        chan = MetricChannel("v", capacity=capacity)
        cycle = 0
        for size in sizes:
            values = np.arange(cycle, cycle + size) * 0.25
            for k, value in enumerate(values.tolist()):
                ref.record(cycle + k, value)
            chan.record_series(cycle, values)
            assert chan.to_dict() == ref.to_dict()
            cycle += size + 3


observations = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
    max_size=200,
)
bucket_bounds = st.lists(
    st.floats(
        min_value=-1e3, max_value=1e3,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1, max_size=8, unique=True,
).map(sorted)


class TestHistogramProperties:
    @given(uppers=bucket_bounds, values=observations)
    @settings(max_examples=60, deadline=None)
    def test_counts_partition_the_observations(self, uppers, values):
        hist = Histogram("h", uppers=uppers)
        for v in values:
            hist.observe(v)
        # Raw (non-cumulative) counts partition the observation set.
        assert sum(hist.counts) == len(values)
        assert hist.total == len(values)
        # Each value lands in exactly the first bucket that bounds it.
        for i, upper in enumerate(uppers):
            lower = uppers[i - 1] if i else -math.inf
            expected = sum(1 for v in values if lower < v <= upper)
            assert hist.counts[i] == expected
        assert hist.counts[-1] == sum(1 for v in values if v > uppers[-1])

    @given(uppers=bucket_bounds, values=observations)
    @settings(max_examples=60, deadline=None)
    def test_cumulative_rendering_monotone_and_closed(self, uppers, values):
        hist = Histogram("h", uppers=uppers)
        for v in values:
            hist.observe(v)
        out = hist.to_dict()
        counts = out["counts"]
        assert counts == sorted(counts)  # cumulative => monotone
        assert counts[-1] == len(values)  # +Inf closes the books
        assert out["count"] == len(values)
        assert out["sum"] == sum(float(v) for v in values)

    @given(uppers=bucket_bounds, values=observations)
    @settings(max_examples=40, deadline=None)
    def test_observation_order_is_irrelevant(self, uppers, values):
        forward = Histogram("h", uppers=uppers)
        backward = Histogram("h", uppers=uppers)
        for v in values:
            forward.observe(v)
        for v in reversed(values):
            backward.observe(v)
        assert forward.counts == backward.counts
