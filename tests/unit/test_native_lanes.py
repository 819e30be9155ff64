"""The native *lane* entry: ``k_run_lanes`` plumbing end to end.

``test_width_boundaries.py`` already sweeps every primitive and boundary
width through the lane entry; this module pins down the machinery around
it: lane-conflict error parity (byte-identical message, lane index and
all), mixed-length and degenerate stream shapes, unknown-port validation,
the recorded fallback reason when no compiler exists, the harness
columnar lane path (native vs dict-path parity), and the interned-idle-row
regression — scheduling must never mutate caller-owned transactions or
leak shared rows a later run could corrupt.
"""

import pytest

from repro.calyx.ir import (
    Assignment,
    CalyxComponent,
    CalyxProgram,
    CellPort,
    Guard,
    PortSpec,
)
from repro.core.errors import SimulationError
from repro.designs import addmult_program
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator, X, compiler_available, is_x

from test_codegen import _same_traces, _single_cell_program, _stimulus

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler on host")

LANES = 4


def _guarded_program():
    """Two guarded drivers onto one output — the conflict-error testbed."""
    component = CalyxComponent(
        "top", inputs=[PortSpec("g", 1), PortSpec("h", 1),
                       PortSpec("a", 8), PortSpec("b", 8)],
        outputs=[PortSpec("o", 8)])
    component.add_wire(Assignment(
        CellPort(None, "o"), CellPort(None, "a"),
        Guard((CellPort(None, "g"),))))
    component.add_wire(Assignment(
        CellPort(None, "o"), CellPort(None, "b"),
        Guard((CellPort(None, "h"),))))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


def _two_group_program():
    """Three guarded drivers onto ``o`` and two onto ``p`` — lanes can
    conflict on different drivers and different groups in one cycle."""
    component = CalyxComponent(
        "top", inputs=[PortSpec(name, 1) for name in "ghkm"]
        + [PortSpec(name, 8) for name in "abc"],
        outputs=[PortSpec("o", 8), PortSpec("p", 8)])
    for dst, drivers in (("o", (("a", "g"), ("b", "h"), ("c", "k"))),
                         ("p", (("a", "m"), ("b", "m")))):
        for src, guard in drivers:
            component.add_wire(Assignment(
                CellPort(None, dst), CellPort(None, src),
                Guard((CellPort(None, guard),))))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    return program


def _row(**guards):
    row = {"g": 0, "h": 0, "k": 0, "m": 0, "a": 1, "b": 2, "c": 3}
    row.update(guards)
    return row


#: Every tier, native only where the host has a C compiler.
TIERS = ["fixpoint", "auto", "compiled",
         pytest.param("native", marks=needs_cc)]


class TestLaneConflictParity:
    """A conflict in lane 2, cycle 1 — the clean lanes must not mask it
    and the message must match across tiers byte for byte."""

    CLEAN = [{"g": 1, "h": 0, "a": 3, "b": 4},
             {"g": 0, "h": 1, "a": 5, "b": 6}]
    CONFLICT = [{"g": 1, "h": 0, "a": 3, "b": 4},
                {"g": 1, "h": 1, "a": 3, "b": 4}]

    def _message(self, mode):
        simulator = Simulator(_guarded_program(), mode=mode)
        with pytest.raises(SimulationError) as info:
            simulator.run_lanes([self.CLEAN, self.CLEAN, self.CONFLICT])
        return simulator, str(info.value)

    @needs_cc
    def test_lane_conflict_message_is_byte_identical(self):
        native, message = self._message("native")
        assert "cycle 1 (lane 2)" in message
        for mode in ("auto", "compiled"):
            assert self._message(mode)[1] == message, mode

    GOOD = [{"g": 1, "h": 0, "a": 3, "b": 4}]
    BAD = [{"g": 1, "h": 1, "a": 3, "b": 4}]

    #: name -> (program, streams, the message every tier must raise).  The
    #: earliest conflicting cycle is reported, and within it the lowest
    #: conflicting lane — whichever driver or group conflicts first.
    CASES = {
        "clean-clean-conflict": (
            _guarded_program, [CLEAN, CLEAN, CONFLICT],
            "top: conflicting drivers for o in cycle 1 (lane 2)"),
        "good-bad": (
            _guarded_program, [GOOD, BAD],
            "top: conflicting drivers for o in cycle 0 (lane 1)"),
        "two-lanes-same-group": (
            _guarded_program, [CLEAN, CONFLICT, CONFLICT],
            "top: conflicting drivers for o in cycle 1 (lane 1)"),
        "lower-lane-on-a-later-driver": (
            _two_group_program, [[_row(g=1, k=1)], [_row(g=1, h=1)]],
            "top: conflicting drivers for o in cycle 0 (lane 0)"),
        "lower-lane-on-a-later-group": (
            _two_group_program, [[_row(m=1)], [_row(g=1, h=1)]],
            "top: conflicting drivers for p in cycle 0 (lane 0)"),
        "earlier-cycle-in-a-higher-lane": (
            _two_group_program,
            [[_row(), _row(), _row(g=1, h=1)], [_row(), _row(m=1)]],
            "top: conflicting drivers for p in cycle 1 (lane 1)"),
    }

    @pytest.mark.parametrize("mode", TIERS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_tier_raises_the_same_message(self, case, mode):
        build, streams, message = self.CASES[case]
        simulator = Simulator(build(), mode=mode)
        with pytest.raises(SimulationError) as info:
            simulator.run_lanes(streams)
        assert str(info.value) == message
        if mode == "native":
            assert simulator.uses_native_lanes(), \
                simulator.native_lanes_fallback_reason

    @needs_cc
    def test_clean_lanes_alongside_agreeing_drivers_pass(self):
        agree = [{"g": 1, "h": 1, "a": 9, "b": 9},
                 {"g": 0, "h": 1, "a": 1, "b": 7}]
        native = Simulator(_guarded_program(), mode="native")
        traces = native.run_lanes([self.CLEAN, agree])
        assert native.uses_native_lanes(), \
            native.native_lanes_fallback_reason
        scalar = Simulator(_guarded_program(), mode="fixpoint")
        for stream, trace in zip((self.CLEAN, agree), traces):
            scalar.reset()
            _same_traces(scalar.run_batch(stream), trace)


class TestStreamShapes:
    def _program(self):
        return _single_cell_program("Add", (16,), {"left": 16, "right": 16})

    @needs_cc
    def test_mixed_length_streams_pad_and_truncate_correctly(self):
        import random
        rng = random.Random(11)
        widths = {"left": 16, "right": 16}
        streams = [_stimulus(rng, widths, length) for length in (1, 6, 0, 3)]
        native = Simulator(self._program(), mode="native")
        traces = native.run_lanes(streams)
        assert native.uses_native_lanes(), \
            native.native_lanes_fallback_reason
        assert [len(trace) for trace in traces] == [1, 6, 0, 3]
        scalar = Simulator(self._program(), mode="auto")
        for stream, trace in zip(streams, traces):
            scalar.reset()
            _same_traces(scalar.run_batch(stream), trace)

    def test_empty_batch_returns_empty(self):
        native = Simulator(self._program(), mode="native")
        assert native.run_lanes([]) == []

    def test_unknown_port_is_rejected_before_the_c_call(self):
        native = Simulator(self._program(), mode="native")
        with pytest.raises(SimulationError, match="unknown input"):
            native.run_lanes([[{"i_left": 1, "bogus": 2}]])

    @needs_cc
    def test_lane_runs_leave_the_engine_reset(self):
        """``run_lanes`` documents fresh-engine semantics: back-to-back
        calls must be independent."""
        stream = [{"i_left": 2, "i_right": 3}, {"i_left": X, "i_right": 1}]
        native = Simulator(self._program(), mode="native")
        first = native.run_lanes([stream, stream])
        second = native.run_lanes([stream])
        _same_traces(first[0], first[1])
        _same_traces(first[0], second[0])


class TestFallbackReason:
    def test_missing_compiler_records_the_lane_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-for-test")
        program = _single_cell_program("Add", (8,), {"left": 8, "right": 8})
        stream = [{"i_left": 1, "i_right": 2}, {"i_left": 3, "i_right": 4}]
        native = Simulator(program, mode="native")
        traces = native.run_lanes([stream, stream])
        assert not native.uses_native_lanes()
        reason = native.native_lanes_fallback_reason
        assert reason is not None and "no C compiler" in reason
        scalar = Simulator(program, mode="auto")
        for trace in traces:
            scalar.reset()
            _same_traces(scalar.run_batch(stream), trace)


class TestHarnessLanePath:
    def _harness(self, mode):
        return harness_for(addmult_program(), "AddMult", mode=mode)

    def _streams(self, harness):
        return [random_transactions(harness, count, seed=seed)
                for seed, count in enumerate((5, 3, 7))]

    def _assert_results_equal(self, got, want):
        assert len(got) == len(want)
        for got_lane, want_lane in zip(got, want):
            assert len(got_lane) == len(want_lane)
            for g, w in zip(got_lane, want_lane):
                assert g.start_cycle == w.start_cycle
                assert g.inputs == w.inputs
                for name, value in w.outputs.items():
                    assert is_x(g.outputs[name]) == is_x(value)
                    if not is_x(value):
                        assert g.outputs[name] == value

    @needs_cc
    def test_native_lane_path_matches_the_dict_path(self):
        native = self._harness("native")
        streams = self._streams(native)
        native_results = native.run_lanes(streams)
        assert native._simulator.uses_native_lanes(), \
            native._simulator.native_lanes_fallback_reason
        compiled = self._harness("compiled")
        self._assert_results_equal(native_results,
                                   compiled.run_lanes(streams))

    @pytest.mark.parametrize("mode", ("compiled", "native"))
    def test_scheduling_never_mutates_caller_transactions(self, mode):
        """The interned-idle-row optimisation in ``_schedule`` and the
        columnar lane merge must stay invisible: caller-owned transaction
        dicts unchanged, repeated runs identical."""
        harness = self._harness(mode)
        streams = self._streams(harness)
        snapshots = [[dict(t) for t in stream] for stream in streams]
        first = harness.run_lanes(streams)
        assert [[dict(t) for t in stream] for stream in streams] \
            == snapshots
        second = harness.run_lanes(streams)
        self._assert_results_equal(first, second)
        # The scalar path shares the interned idle template too.
        scalar_first = harness.run(streams[0])
        scalar_second = harness.run(streams[0])
        self._assert_results_equal([scalar_first], [scalar_second])
        assert [dict(t) for t in streams[0]] == snapshots[0]

    def test_interned_idle_rows_are_copied_on_write(self):
        """Mutating one scheduled stimulus row must never leak into the
        shared idle template or sibling cycles."""
        harness = self._harness("compiled")
        transactions = random_transactions(harness, 2, seed=0)
        stimulus, starts = harness._schedule(transactions)
        idle_rows = [row for row in stimulus
                     if all(is_x(row[p.name]) for p in harness.spec.inputs)]
        assert idle_rows, "expected idle cycles in a pipelined schedule"
        window = stimulus[starts[0]]
        assert window is not idle_rows[0]
        # Two idle cycles share one interned dict; window cycles do not.
        if len(idle_rows) > 1:
            assert idle_rows[0] is idle_rows[1]
