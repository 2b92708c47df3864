"""``CosimResult.voltage_percentiles`` against ``np.percentile``, bit for bit.

A sweep point's p1 is one selection from the voltage block's low tail
(``cosim._tail_percentiles``), with NumPy's index and ``_lerp``
arithmetic; anything it cannot vouch for partitions the whole block as
NumPy does.  Either way the result must be NumPy's own bits: value,
dtype, shape, NaN and the sign of zero.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.cosim import (
    CosimConfig,
    CosimResult,
    _tail_percentiles,
    run_cosim,
)

SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0)

# inf - inf in the interpolation warns, in NumPy's and in the tail's.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)


def result_of(voltages: np.ndarray) -> CosimResult:
    return CosimResult("block", None, voltages, None, None, 0, 0, 0, 0.0)


def assert_same_bits(got, want) -> None:
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


@st.composite
def blocks(draw):
    """Voltage-like blocks from 1 x 1 up to 12,000 x 16: smooth noise,
    heavy ties or one constant, with NaN, infinities and signed zeros
    sprinkled anywhere or packed into a tail."""
    rows = draw(st.sampled_from([1, 2, 7, 61, 62, 1000, 2000, 2001, 12000]))
    cols = draw(st.sampled_from([1, 3, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["noise", "ties", "constant"]))
    if kind == "noise":
        block = 0.9 + 0.05 * rng.standard_normal((rows, cols))
    elif kind == "ties":
        block = np.round(0.9 + 0.05 * rng.standard_normal((rows, cols)), 2)
    else:
        block = np.full((rows, cols), draw(st.sampled_from([0.85, 0.0, -0.0])))
    flat = block.reshape(-1)
    specials = draw(st.lists(st.sampled_from(SPECIALS), max_size=3))
    for special in specials if draw(st.booleans()) else []:
        count = draw(st.integers(1, max(1, flat.size // 50)))
        where = draw(st.sampled_from(["anywhere", "low", "high"]))
        if where == "anywhere":
            flat[rng.integers(0, flat.size, count)] = special
        else:
            order = np.argsort(flat, kind="stable")
            picks = order[:count] if where == "low" else order[-count:]
            flat[picks] = special
    return block


tail_q = st.one_of(st.sampled_from([0, 1, 99, 100]), st.floats(0, 5),
                   st.floats(95, 100))
quantiles = st.one_of(
    tail_q,
    st.sampled_from([50, 1.0, 99.0]),
    st.floats(0, 100),
    tail_q.map(np.float64),
    st.lists(tail_q, min_size=1, max_size=3).map(np.array),
    st.lists(
        st.one_of(st.sampled_from([0, 1, 50, 99, 100]), st.floats(0, 100)),
        min_size=1, max_size=4,
    ).map(np.array),
)


class TestAgainstNumpy:
    @given(block=blocks(), q=quantiles)
    @example(block=np.full((12000, 16), 0.9), q=1)
    @example(block=np.array([[-0.0]]), q=100)
    @settings(max_examples=500, deadline=None)
    def test_equals_np_percentile(self, block, q):
        before = block.copy()
        got = result_of(block).voltage_percentiles(q)
        assert block.tobytes() == before.tobytes()  # not even reordered
        assert_same_bits(got, np.percentile(block, q))

    @pytest.mark.parametrize("q", [1, 1.0, [1], [0.5, 2.0], 99, [99, 100], 100])
    @pytest.mark.parametrize("special", SPECIALS)
    def test_one_special_at_the_order_statistic(self, q, special):
        """A NaN, an infinity or a zero of either sign right where the
        order statistics are, in a block big enough for the tail."""
        rng = np.random.default_rng(5)
        block = 0.9 + 0.05 * rng.standard_normal((2000, 16))
        flat = block.reshape(-1)
        order = np.argsort(flat)
        rank = int(np.floor((flat.size - 1) * np.max(np.asarray(q)) / 100))
        flat[order[max(rank - 3, 0): rank + 3]] = special
        assert_same_bits(
            result_of(block).voltage_percentiles(q), np.percentile(block, q)
        )

    def test_mixed_zero_tails_keep_numpys_sign(self):
        rng = np.random.default_rng(9)
        block = np.abs(0.05 * rng.standard_normal((2000, 16)))
        flat = block.reshape(-1)
        low = np.argsort(flat)[:2000]
        flat[low] = np.where(rng.random(low.size) < 0.5, 0.0, -0.0)
        for q in (0, 1, 3, [1, 2]):
            assert_same_bits(
                result_of(block).voltage_percentiles(q),
                np.percentile(block, q),
            )

    def test_invalid_q_raises_as_numpy_does(self):
        block = np.full((2000, 16), 0.9)
        for q in (-1, 101, np.nan, [1, 200]):
            with pytest.raises(ValueError, match="Percentiles must be"):
                result_of(block).voltage_percentiles(q)


class TestTailSelection:
    def test_a_sweep_point_takes_the_tail(self):
        """A real co-sim block's p1 comes from the tail selection (not
        the fallback), equal to NumPy's; so does p99."""
        result = run_cosim(
            "hotspot", CosimConfig(cycles=2200, warmup_cycles=200, seed=3)
        )
        for q in (1, 99):
            tail = _tail_percentiles(result.sm_voltages, q)
            assert tail is not None
            assert_same_bits(tail, np.percentile(result.sm_voltages, q))

    @pytest.mark.parametrize("q", [50, [1, 99]])
    def test_ranks_away_from_one_end_partition_everything(self, q):
        block = np.linspace(0.8, 1.0, 32000).reshape(2000, 16)
        assert _tail_percentiles(block, q) is None

    def test_small_and_non_float64_blocks_partition_everything(self):
        assert _tail_percentiles(np.full((10, 16), 0.9), 1) is None
        assert _tail_percentiles(np.full((2000, 16), 0.9, np.float32), 1) is None
