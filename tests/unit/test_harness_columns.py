"""The columnar fuzz/check path: the pinned random stimulus stream, and
verdict text plus golden call order on every tier and lane shape.

The literal values below pin the random stimulus stream and the
divergence text: corpus entries, seeds recorded in reports and benchmark
digests replay them, so they must never drift."""

import pytest

from repro.calyx.ir import (
    Assignment,
    CalyxComponent,
    CalyxProgram,
    Cell,
    CellPort,
    Guard,
    PortSpec,
)
from repro.harness import (
    CycleAccurateHarness,
    InterfaceSpec,
    PortTiming,
    fuzz_against_golden,
    random_columns,
    random_transactions,
)
from repro.sim import compiler_available

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler for the native tier")


def _wide_harness():
    """Four data ports of widths 8, 1, 70 and 16 (one wider than a limb)."""
    widths = (("p", 8), ("q", 1), ("w", 70), ("r", 16))
    component = CalyxComponent(
        "top", inputs=[PortSpec(name, width) for name, width in widths],
        outputs=[PortSpec("o", 8)])
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    spec = InterfaceSpec(
        "top", inputs=[PortTiming(name, width, 0, 1)
                       for name, width in widths],
        outputs=[PortTiming("o", 8, 0, 1)])
    return CycleAccurateHarness(program, spec)


class TestStimulusStream:
    def test_seeded_stream_is_pinned(self):
        assert random_transactions(_wide_harness(), 3, seed=2024) == [
            {"p": 120, "q": 0, "w": 361156863912362084188, "r": 13120},
            {"p": 227, "q": 1, "w": 844071673269816365271, "r": 49717},
            {"p": 67, "q": 1, "w": 970965548161803959766, "r": 48184},
        ]

    def test_excluded_ports_draw_nothing(self):
        """Excluded ports are skipped, not drawn and discarded, so the
        remaining ports see a different stream than without ``exclude``."""
        stream = random_transactions(_wide_harness(), 3, seed=2024,
                                     exclude=("q", "w"))
        assert stream == [{"p": 120, "r": 11908}, {"p": 186, "r": 37902},
                          {"p": 77, "r": 13120}]

    def test_columns_hold_the_same_values(self):
        harness = _wide_harness()
        stimulus = random_columns(harness, 5, seed=7, exclude=("q",))
        rows = random_transactions(harness, 5, seed=7, exclude=("q",))
        assert stimulus.count == 5 and stimulus.concrete
        assert list(stimulus.columns) == ["p", "w", "r"]
        for name, column in stimulus.columns.items():
            assert column == [row[name] for row in rows]

    def test_every_port_excluded(self):
        harness = _wide_harness()
        assert random_transactions(harness, 2, seed=1,
                                   exclude=("p", "q", "w", "r")) == [{}, {}]


def _registered_sum_harness(mode):
    """``o`` is a registered ``a + b`` that appears one cycle after ``go``,
    but the spec samples it in the start cycle: transaction 0 captures X
    (nothing drives ``o`` yet) and every later one the previous sum."""
    component = CalyxComponent(
        "top",
        inputs=[PortSpec("go", 1), PortSpec("a", 8), PortSpec("b", 8)],
        outputs=[PortSpec("o", 8)])
    component.add_cell(Cell("F", "fsm", (2,)))
    component.add_cell(Cell("A", "Add", (8,)))
    component.add_cell(Cell("R", "Reg", (8,)))
    component.add_wire(Assignment(CellPort("F", "go"), CellPort(None, "go")))
    component.add_wire(Assignment(CellPort("A", "left"), CellPort(None, "a")))
    component.add_wire(Assignment(CellPort("A", "right"),
                                  CellPort(None, "b")))
    component.add_wire(Assignment(CellPort("R", "in"), CellPort("A", "out"),
                                  Guard((CellPort("F", "_0"),))))
    component.add_wire(Assignment(CellPort("R", "en"), CellPort("F", "_0")))
    component.add_wire(Assignment(CellPort(None, "o"), CellPort("R", "out"),
                                  Guard((CellPort("F", "_1"),))))
    program = CalyxProgram(entrypoint="top")
    program.add(component)
    spec = InterfaceSpec(
        "top", inputs=[PortTiming("a", 8, 0, 1), PortTiming("b", 8, 0, 1)],
        outputs=[PortTiming("o", 8, 0, 1)], interface_ports={"go": 0},
        initiation_interval=1)
    return CycleAccurateHarness(program, spec, mode=mode)


class _RecordingGolden:
    """A wrong golden model (XOR for a sum) that records every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, transaction):
        self.calls.append(dict(transaction))
        return {"o": transaction["a"] ^ transaction["b"]}


LANE_0 = [{"a": 60, "b": 77}, {"a": 26, "b": 184}, {"a": 101, "b": 122}]
LANE_1 = [{"a": 159, "b": 65}, {"a": 189, "b": 91}, {"a": 203, "b": 176}]

FUZZ_DIVERGENCES = [
    "transaction 0 ({'a': 60, 'b': 77}): o expected 113 got X",
    "transaction 1 ({'a': 26, 'b': 184}): o expected 162 got 137",
    "transaction 2 ({'a': 101, 'b': 122}): o expected 31 got 210",
]
LANE_DIVERGENCES = ["lane 0 " + line for line in FUZZ_DIVERGENCES] + [
    "lane 1 transaction 0 ({'a': 159, 'b': 65}): o expected 222 got X",
    "lane 1 transaction 1 ({'a': 189, 'b': 91}): o expected 230 got 224",
    "lane 1 transaction 2 ({'a': 203, 'b': 176}): o expected 123 got 24",
]
CHECK_MISMATCHES = [
    "transaction 0: output o expected 113 but captured X at cycle 0",
    "transaction 1: output o expected 162 but captured 137 at cycle 1",
    "transaction 2: output o expected 31 but captured 210 at cycle 2",
]

TIERS = ["compiled", pytest.param("native", marks=needs_cc)]


class TestVerdictParity:
    @pytest.mark.parametrize("mode", TIERS)
    def test_scalar_fuzz(self, mode):
        harness = _registered_sum_harness(mode)
        golden = _RecordingGolden()
        report = fuzz_against_golden(harness, golden, count=3, seed=4)
        assert report.divergences == FUZZ_DIVERGENCES
        assert golden.calls == LANE_0
        assert harness._simulator.uses_native() == (mode == "native")

    @pytest.mark.parametrize("mode", TIERS)
    def test_lane_fuzz(self, mode):
        harness = _registered_sum_harness(mode)
        golden = _RecordingGolden()
        report = fuzz_against_golden(harness, golden, count=3, seed=4,
                                     lanes=2)
        assert report.divergences == LANE_DIVERGENCES
        assert golden.calls == LANE_0 + LANE_1
        assert report.transactions == 6
        assert harness._simulator.uses_native_lanes() == (mode == "native")

    @pytest.mark.parametrize("mode", TIERS)
    def test_check(self, mode):
        harness = _registered_sum_harness(mode)
        golden = _RecordingGolden()
        report = harness.check(random_transactions(harness, 3, seed=4),
                               golden)
        assert report.mismatches == CHECK_MISMATCHES
        assert golden.calls == LANE_0
        assert [result.inputs for result in report.results] == LANE_0
