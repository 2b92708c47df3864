"""Property-based tests of domain invariants (hypothesis).

Covers the mathematical core the figures rest on:

* the current decomposition (global/stack/residual) is an exact,
  orthogonal, idempotent splitting for any load vector;
* PDE accounting is monotone and bounded for any physical inputs;
* the hypervisor's frequency mapping always satisfies its own budget
  and never slows any SM;
* the scalar actuation law's commands (the oracle's, which the
  controller bank runs compiled) are always within hardware ranges;
* imbalance-distribution shares always form a probability distribution.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import imbalance_distribution, net_energy_saving
from repro.config import StackConfig
from repro.core.actuators import WeightedActuation
from repro.core.hypervisor import VSAwareHypervisor
from repro.pdn.efficiency import (
    imbalance_fraction,
    layer_shuffle_power,
    pde_voltage_stacked,
)
from repro.pdn.impedance import decompose_currents
from tests.oracles.scalar_controller import boost_commands, commands

STACK = StackConfig()

sm_powers = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=16, max_size=16
)
positive_powers = st.lists(
    st.floats(min_value=0.5, max_value=10.0), min_size=16, max_size=16
)


class TestDecompositionProperties:
    @given(s=sm_powers)
    @settings(max_examples=60, deadline=None)
    def test_exact_reconstruction(self, s):
        g, stk, r = decompose_currents(np.array(s), 4, 4)
        assert np.allclose(g + stk + r, s, atol=1e-9)

    @given(s=sm_powers)
    @settings(max_examples=60, deadline=None)
    def test_orthogonality(self, s):
        g, stk, r = decompose_currents(np.array(s), 4, 4)
        assert abs(np.dot(g, stk)) < 1e-6
        assert abs(np.dot(g, r)) < 1e-6
        assert abs(np.dot(stk, r)) < 1e-6

    @given(s=sm_powers)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, s):
        """Decomposing a pure component returns it unchanged."""
        _, _, r = decompose_currents(np.array(s), 4, 4)
        g2, stk2, r2 = decompose_currents(r, 4, 4)
        assert np.allclose(g2, 0.0, atol=1e-9)
        assert np.allclose(stk2, 0.0, atol=1e-9)
        assert np.allclose(r2, r, atol=1e-9)

    @given(s=sm_powers, scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, s, scale):
        _, _, r1 = decompose_currents(np.array(s), 4, 4)
        _, _, r2 = decompose_currents(scale * np.array(s), 4, 4)
        assert np.allclose(r2, scale * r1, atol=1e-7)


class TestEfficiencyProperties:
    @given(rows=st.lists(positive_powers, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_pde_bounded(self, rows):
        trace = np.array(rows)
        shuffle = layer_shuffle_power(trace, STACK)
        load = float(trace.sum(axis=1).mean())
        b = pde_voltage_stacked(load, shuffle, STACK)
        assert 0.0 < b.pde < 1.0
        assert b.input_power >= b.useful_power

    @given(rows=st.lists(positive_powers, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_shuffle_nonnegative_and_bounded(self, rows):
        trace = np.array(rows)
        shuffle = layer_shuffle_power(trace, STACK)
        load = float(trace.sum(axis=1).mean())
        assert 0.0 <= shuffle
        # At most 3/4 of the load can sit above the layer mean.
        assert imbalance_fraction(trace, STACK) <= 0.75 + 1e-9

    @given(
        pde_a=st.floats(min_value=0.5, max_value=0.99),
        pde_b=st.floats(min_value=0.5, max_value=0.99),
        penalty=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_saving_antisymmetric_in_pde(self, pde_a, pde_b, penalty):
        if pde_b > pde_a:
            better = net_energy_saving(pde_a, pde_b, penalty)
            worse = net_energy_saving(pde_a, pde_a, penalty)
            assert better >= worse - 1e-12


class TestHypervisorProperties:
    @given(
        freqs=st.lists(
            st.floats(min_value=200e6, max_value=700e6),
            min_size=16,
            max_size=16,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mapping_meets_budget_and_never_slows(self, freqs):
        hv = VSAwareHypervisor()
        mapped = hv.map_frequencies(np.array(freqs))
        # Never slows any SM below its request.
        assert np.all(mapped >= np.array(freqs) - 1e-6)
        # Column spread within the budget.
        for column in range(4):
            sms = STACK.sms_in_column(column)
            spread = max(mapped[s] for s in sms) - min(mapped[s] for s in sms)
            assert spread <= hv.frequency_threshold_hz + 1e-6

    @given(
        freqs=st.lists(
            st.floats(min_value=200e6, max_value=700e6),
            min_size=16,
            max_size=16,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mapping_idempotent(self, freqs):
        hv = VSAwareHypervisor()
        once = hv.map_frequencies(np.array(freqs))
        twice = hv.map_frequencies(once)
        assert np.allclose(once, twice)


class TestActuationProperties:
    @given(
        error=st.floats(min_value=-1.0, max_value=2.0),
        k1=st.floats(min_value=0.0, max_value=50.0),
        k2=st.floats(min_value=0.0, max_value=50.0),
        k3=st.floats(min_value=0.0, max_value=100.0),
        w1=st.floats(min_value=0.0, max_value=1.0),
        w2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_commands_always_in_hardware_range(self, error, k1, k2, k3, w1, w2):
        if w1 + w2 == 0.0:
            w1 = 1.0
        act = WeightedActuation(w1=w1, w2=w2, w3=0.5)
        cmd = commands(act, error, k1, k2, k3)
        assert 0.0 <= cmd.issue_width <= 2.0
        assert 0.0 <= cmd.fake_rate <= 2.0
        assert 0 <= cmd.dcc_code <= act.dac.max_code
        boost = boost_commands(act, error, k2, k3)
        assert 0.0 <= boost.fake_rate <= 2.0
        assert 0 <= boost.dcc_code <= act.dac.max_code


class TestDistributionProperties:
    @given(rows=st.lists(sm_powers, min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_imbalance_shares_form_distribution(self, rows):
        dist = imbalance_distribution(np.array(rows), STACK)
        assert all(0.0 <= v <= 1.0 for v in dist.values())
        assert abs(sum(dist.values()) - 1.0) < 1e-9
