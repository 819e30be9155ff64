"""The native tier's optimisation-level tiering and program lifetime.

A design's kernel is built at ``-O0`` first and promoted to ``-O2`` once
the lane-cycles run on its netlist digest reach ``native.HOT_CYCLES``
(:mod:`repro.sim.native`).  These tests pin down that a promotion is
invisible in traces, X planes and conflict messages, which request
reuses which level, and that a collected program unmaps its ``.so``
while a live instance keeps running on its own.
"""

import gc
import random
import sys

import pytest

from repro.core.errors import SimulationError
from repro.core.session import CompilationSession
from repro.designs import addmult_program
from repro.sim import Simulator, X, clear_native_cache, compiler_available
from repro.sim import native as native_module

from test_codegen import _same_traces
from test_native import _guarded_program

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler on host")

#: A small threshold keeps the hot batches short.
HOT = 32


@pytest.fixture
def tiering(tmp_path, monkeypatch):
    """A private ``.so`` store, empty in-process caches and a small
    ``HOT_CYCLES``."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native_module, "HOT_CYCLES", HOT)
    clear_native_cache()
    yield
    clear_native_cache()


def _addmult():
    return CompilationSession(addmult_program()).calyx("AddMult")


def _stimulus(seed, cycles):
    """AddMult stimulus with idle (all-X) and partly driven cycles, so the
    trace carries X planes as well as values."""
    rng = random.Random(seed)
    rows = []
    for _ in range(cycles):
        roll = rng.random()
        if roll < 0.15:
            rows.append({})
        else:
            row = {"go": 1, "a": rng.getrandbits(32), "b": rng.getrandbits(32),
                   "c": rng.getrandbits(32)}
            if roll < 0.3:
                del row["b"]
            rows.append(row)
    return rows


def _level(simulator):
    return simulator._native.program.opt_level


@needs_cc
class TestPromotion:
    def test_mid_stream_promotion_matches_a_pure_o2_run(self, tiering):
        calyx = _addmult()
        # Every short cycle drives a transaction, so values are in flight
        # in the pipeline registers when the promotion happens.
        short = [{"go": 1, "a": 7 * i + 1, "b": 5 * i + 2, "c": 3 * i + 3}
                 for i in range(10)]
        hot = _stimulus(2, HOT)
        tiered = Simulator(calyx, "AddMult", mode="native")
        trace = tiered.run_batch(short)
        assert _level(tiered) == native_module.COLD_LEVEL
        trace += tiered.run_batch(hot)
        assert _level(tiered) == native_module.HOT_LEVEL
        assert native_module.native_cache_stats()["promotions"] == 1

        pure = Simulator(calyx, "AddMult", mode="native")
        pure._ensure_native(level=native_module.HOT_LEVEL)
        reference = pure.run_batch(short + hot)
        assert reference[len(short)]["out"] is not X
        assert any(row["out"] is X for row in reference)
        assert any(row["out"] is not X for row in reference)
        _same_traces(reference, trace)
        _same_traces(Simulator(calyx, "AddMult",
                               mode="fixpoint").run_batch(short + hot), trace)
        assert tiered.cycle == len(short) + len(hot)

    def test_step_by_step_promotion_keeps_state(self, tiering):
        calyx = _addmult()
        stimulus = _stimulus(3, HOT + 8)
        tiered = Simulator(calyx, "AddMult", mode="native")
        trace = [tiered.step(row) for row in stimulus]
        assert _level(tiered) == native_module.HOT_LEVEL
        _same_traces(Simulator(calyx, "AddMult",
                               mode="fixpoint").run_batch(stimulus), trace)

    def test_conflict_after_promotion_reports_the_right_cycle(self,
                                                               tiering):
        clean = [{"g": 1, "h": 0, "a": 3, "b": 4}] * 5
        hot = ([{"g": 0, "h": 1, "a": 3, "b": 4}] * 4
               + [{"g": 1, "h": 1, "a": 3, "b": 4}]
               + [{"g": 0, "h": 0, "a": 0, "b": 0}] * HOT)

        def message(mode):
            simulator = Simulator(_guarded_program(), mode=mode)
            simulator.run_batch(clean)
            with pytest.raises(SimulationError) as info:
                simulator.run_batch(hot)
            return simulator, str(info.value)

        native, text = message("native")
        assert _level(native) == native_module.HOT_LEVEL
        assert "cycle 9" in text
        assert message("fixpoint")[1] == text

    def test_hot_request_builds_o2_and_short_requests_reuse_it(self,
                                                               tiering):
        calyx = _addmult()
        short, hot = _stimulus(4, 5), _stimulus(5, HOT)

        first = Simulator(calyx, "AddMult", mode="native")
        first.run_batch(short)
        assert _level(first) == native_module.COLD_LEVEL
        second = Simulator(calyx, "AddMult", mode="native")
        second.run_batch(hot)
        assert _level(second) == native_module.HOT_LEVEL
        stats = native_module.native_cache_stats()
        assert stats["misses"] == 2 and stats["promotions"] == 0

        third = Simulator(calyx, "AddMult", mode="native")
        third.run_batch(short)
        assert third._native.program is second._native.program
        stats = native_module.native_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 1

        # The stored -O2 program serves a short request across processes
        # too (here: across a cleared in-process cache).
        clear_native_cache()
        fourth = Simulator(calyx, "AddMult", mode="native")
        fourth.run_batch(short)
        assert _level(fourth) == native_module.HOT_LEVEL
        assert native_module.native_cache_stats()["disk_hits"] == 1

    def test_heat_adds_up_across_engines_on_one_digest(self, tiering):
        calyx = _addmult()
        batch = _stimulus(6, HOT // 2)
        first = Simulator(calyx, "AddMult", mode="native")
        first.run_batch(batch)
        second = Simulator(calyx, "AddMult", mode="native")
        second.run_batch(batch)
        assert _level(second) == native_module.HOT_LEVEL
        assert native_module.native_cache_stats()["promotions"] == 0

    def test_lane_cycles_count_toward_heat(self, tiering):
        calyx = _addmult()
        simulator = Simulator(calyx, "AddMult", mode="native")
        simulator.run_lanes([_stimulus(seed, 4) for seed in range(2)])
        assert _level(simulator) == native_module.COLD_LEVEL
        streams = [_stimulus(seed, HOT // 4) for seed in range(4)]
        traces = simulator.run_lanes(streams)
        assert _level(simulator) == native_module.HOT_LEVEL
        reference = Simulator(calyx, "AddMult", mode="fixpoint")
        for stream, trace in zip(streams, traces):
            reference.reset()
            _same_traces(reference.run_batch(stream), trace)

    def test_prepare_is_hot(self, tiering):
        simulator = Simulator(_addmult(), "AddMult", mode="native")
        assert simulator.prepare()["native"]
        assert _level(simulator) == native_module.HOT_LEVEL

    def test_prepare_promotes_a_cold_engine(self, tiering):
        simulator = Simulator(_addmult(), "AddMult", mode="native")
        simulator.run_batch(_stimulus(7, 3))
        simulator.prepare()
        assert _level(simulator) == native_module.HOT_LEVEL
        assert native_module.native_cache_stats()["promotions"] == 1


@needs_cc
class TestProgramLifetime:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/maps")
    def test_cleared_programs_unmap_their_shared_objects(self, tiering):
        simulator = Simulator(_addmult(), "AddMult", mode="native")
        simulator.run_batch(_stimulus(8, 4))
        path = str(simulator._native.program.source_path)
        with open("/proc/self/maps") as maps:
            assert path in maps.read()
        del simulator
        clear_native_cache()
        gc.collect()
        with open("/proc/self/maps") as maps:
            assert path not in maps.read()

    def test_a_live_kernel_keeps_running_after_the_cache_is_cleared(
            self, tiering):
        calyx = _addmult()
        stimulus = _stimulus(9, 12)
        simulator = Simulator(calyx, "AddMult", mode="native")
        trace = simulator.run_batch(stimulus[:6])
        clear_native_cache()
        gc.collect()
        trace += simulator.run_batch(stimulus[6:])
        assert simulator.uses_native()
        _same_traces(Simulator(calyx, "AddMult",
                               mode="fixpoint").run_batch(stimulus), trace)


@needs_cc
def test_an_empty_lane_batch_runs_no_lanes(tiering):
    simulator = Simulator(_addmult(), "AddMult", mode="native")
    out = simulator.run_lane_columns(3, 0, {})
    assert simulator.uses_native_lanes()
    assert [len(values) for values, _ in out.values()] == [0]
