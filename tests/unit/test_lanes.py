"""Unit tests for X controls in the scalar primitive models."""

from repro.sim import X, create_primitive, is_x


class TestControlXPropagation:
    """An X control input must never pick a definite branch."""

    def test_register_x_enable_poisons_state(self):
        model = create_primitive("Reg", (8,))
        model.tick({"en": 1, "in": 9})
        model.tick({"en": X, "in": 5})
        assert is_x(model.combinational({})["out"])

    def test_prev_x_enable_poisons_state(self):
        model = create_primitive("Prev", (8, 1))
        model.tick({"en": 1, "in": 9})
        model.tick({"en": X, "in": 5})
        assert is_x(model.combinational({})["prev"])

    def test_dsp_mac_x_clock_enable_poisons_state(self):
        model = create_primitive("DspMac", (16,))
        model.tick({"ce": 1, "a": 2, "b": 3, "pin": 0})
        model.tick({"ce": X, "a": 1, "b": 1, "pin": 0})
        assert is_x(model.combinational({})["pout"])

    def test_fsm_x_trigger_shifts_x(self):
        model = create_primitive("fsm", (3,))
        assert is_x(model.combinational({"go": X})["_0"])
        model.tick({"go": X})
        assert is_x(model.combinational({"go": 0})["_1"])
        model.tick({"go": 0})
        assert is_x(model.combinational({"go": 0})["_2"])
