"""Switch-level CR-IVR validation against the averaged model."""

import numpy as np
import pytest

from tests.oracles.switch_level import SwitchLevelLadder, ripple_amplitude


class TestConstruction:
    def test_defaults(self):
        ladder = SwitchLevelLadder()
        assert ladder.layer_voltages.shape == (4,)
        assert ladder.flying_voltages.shape == (3,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_layers": 1},
            {"layer_capacitance_f": 0.0},
            {"flying_capacitance_f": -1e-9},
            {"switching_frequency_hz": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SwitchLevelLadder(**kwargs)

    def test_averaged_conductance(self):
        ladder = SwitchLevelLadder(
            flying_capacitance_f=20e-9, switching_frequency_hz=50e6
        )
        assert ladder.averaged_conductance_s == pytest.approx(1.0)


class TestBalancedOperation:
    def test_balanced_stack_stays_put(self):
        ladder = SwitchLevelLadder()
        history = ladder.run(200)
        assert np.allclose(history, 1.0)

    def test_no_loss_when_balanced(self):
        ladder = SwitchLevelLadder()
        ladder.run(200)
        assert ladder.dissipated_energy_j == pytest.approx(0.0, abs=1e-18)
        assert ladder.transferred_charge_c == pytest.approx(0.0, abs=1e-15)


class TestEqualization:
    def test_imbalance_decays(self):
        ladder = SwitchLevelLadder()
        ladder.layer_voltages[:] = [0.9, 1.0, 1.0, 1.1]
        initial = ladder.spread()
        ladder.run(600)
        assert ladder.spread() < 0.1 * initial

    def test_decay_rate_matches_averaged_model(self):
        """The validation that justifies the averaged model: the spread
        decays exponentially at an order-unity multiple of g/C (the
        mode eigenvalue of the ladder Laplacian; ~0.59 for this
        excitation), and the multiple is *independent of C_fly* — i.e.
        the rate scales exactly as the difference conductance predicts.
        """
        alphas = []
        for c_fly in (5e-9, 10e-9):
            ladder = SwitchLevelLadder(flying_capacitance_f=c_fly)
            ladder.layer_voltages[:] = [0.9, 1.0, 1.0, 1.1]
            s0 = ladder.spread()
            half_periods = 300
            ladder.run(half_periods)
            elapsed = half_periods * ladder.half_period_s
            rate = ladder.equalization_rate_prediction()
            alpha = -np.log(ladder.spread() / s0) / (rate * elapsed)
            alphas.append(alpha)
        # Order-unity eigenvalue...
        assert 0.4 < alphas[0] < 0.8
        # ...identical across C_fly: the rate is proportional to
        # f_sw * C_fly exactly as the averaged conductance says.
        assert alphas[0] == pytest.approx(alphas[1], rel=0.1)

    def test_faster_switching_equalizes_faster(self):
        spreads = []
        for f_sw in (25e6, 100e6):
            ladder = SwitchLevelLadder(switching_frequency_hz=f_sw)
            ladder.layer_voltages[:] = [0.9, 1.0, 1.0, 1.1]
            # Same wall-clock duration for both frequencies.
            ladder.run(int(2e-6 / ladder.half_period_s))
            spreads.append(ladder.spread())
        assert spreads[1] < spreads[0]

    def test_charge_transfer_loss_accrues_with_imbalance(self):
        ladder = SwitchLevelLadder()
        ladder.layer_voltages[:] = [0.8, 1.0, 1.0, 1.2]
        ladder.run(100)
        assert ladder.dissipated_energy_j > 0


class TestSustainedImbalance:
    def test_steady_state_spread_tracks_averaged_prediction(self):
        """A sustained per-layer imbalance current produces a steady
        voltage spread ~ dI / g, the averaged model's droop."""
        ladder = SwitchLevelLadder()
        # Layer 0 draws 1 A more than the stack average; the supply is
        # emulated by giving the other layers a matching surplus.
        currents = np.array([0.75, -0.25, -0.25, -0.25])
        ladder.run(4000, layer_currents_a=currents)
        spread = ladder.spread()
        g = ladder.averaged_conductance_s
        # Spread is bounded within a small multiple of the averaged
        # prediction (the ladder distributes the current over two hops).
        assert spread == pytest.approx(1.0 / g, rel=0.9)

    def test_ripple_scales_inversely_with_f_and_c(self):
        assert ripple_amplitude(1.0, 20e-9, 50e6) == pytest.approx(1.0)
        assert ripple_amplitude(1.0, 40e-9, 50e6) == pytest.approx(0.5)
        assert ripple_amplitude(1.0, 20e-9, 100e6) == pytest.approx(0.5)

    def test_ripple_validation(self):
        with pytest.raises(ValueError):
            ripple_amplitude(-1.0, 1e-9, 1e6)
        with pytest.raises(ValueError):
            ripple_amplitude(1.0, 0.0, 1e6)

    def test_current_shape_validated(self):
        ladder = SwitchLevelLadder()
        with pytest.raises(ValueError):
            ladder.step(np.ones(3))

    def test_run_validation(self):
        with pytest.raises(ValueError):
            SwitchLevelLadder().run(0)
