"""The native tier at both optimisation levels, over the golden corpus.

Kernels start at ``-O0`` and are promoted to ``-O2`` once a design runs
hot, so the conformance matrix mostly exercises ``-O0`` builds.  Every
corpus program therefore also runs pinned at each level — native scalar
and native lane entries — and must trace bit-identically, values *and* X
planes, to the fixpoint interpreter.  The emitted C must also compile
warning-free under ``-Wall -Werror`` at both levels.
"""

import subprocess
from pathlib import Path

import pytest

from repro.conformance import generate, load_entries, replay_entry
from repro.conformance.differential import traces_equal
from repro.core.session import CompilationSession
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator, compiler_available
from repro.sim import native as native_module

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler on host")

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
LEVELS = (native_module.COLD_LEVEL, native_module.HOT_LEVEL)
LANES = 3
TRANSACTIONS = 6
#: A generator seed whose lane conflict screen made gcc 12 warn at -O2
#: (``-Wstringop-overflow`` on a lane count it could not bound below).
WARNING_SEED = 1234


def _native_programs():
    """``(name, generated program)`` for every corpus entry the native tier
    can represent, plus :data:`WARNING_SEED`'s program; entries with
    black-box primitives stay on the Python tiers."""
    programs = [(path.name, replay_entry(entry))
                for path, entry in load_entries(CORPUS_DIR)]
    programs.append((f"seed{WARNING_SEED}", generate(WARNING_SEED)))
    eligible = []
    for name, generated in programs:
        calyx = CompilationSession(generated.program).calyx(
            generated.spec.name)
        try:
            native_module.generate_c_source(
                Simulator(calyx, generated.spec.name, mode="native"))
        except native_module.NativeUnavailable:
            continue
        eligible.append((name, generated))
    return eligible


PROGRAMS = _native_programs()
CORPUS = [(name, generated) for name, generated in PROGRAMS
          if name.endswith(".json")]


def _calyx_and_stimuli(generated):
    session = CompilationSession(generated.program)
    calyx = session.calyx(generated.spec.name)
    harness = harness_for(generated.program, generated.spec.name, calyx=calyx)
    return calyx, [
        harness._schedule(
            random_transactions(harness, TRANSACTIONS, seed=seed))[0]
        for seed in range(LANES)
    ]


def _pinned(calyx, name, level):
    simulator = Simulator(calyx, name, mode="native")
    assert simulator._ensure_native(level=level) is not None, \
        simulator.native_fallback_reason
    assert simulator._native.program.opt_level == level
    return simulator


@needs_cc
@pytest.mark.parametrize("level", LEVELS, ids=[f"O{lv}" for lv in LEVELS])
@pytest.mark.parametrize("path,generated", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_corpus_native_entries_match_fixpoint_at_each_level(path, generated,
                                                            level):
    calyx, stimuli = _calyx_and_stimuli(generated)
    name = generated.spec.name
    native = _pinned(calyx, name, level)
    reference = Simulator(calyx, name, mode="fixpoint")
    expected = []
    for stimulus in stimuli:
        native.reset()
        reference.reset()
        expected.append(reference.run_batch(stimulus))
        assert traces_equal(native.run_batch(stimulus), expected[-1]), \
            f"{path}: native -O{level} scalar diverged from fixpoint"
    lanes = native.run_lanes(stimuli)
    assert native.uses_native_lanes(), native.native_lanes_fallback_reason
    for lane, trace in enumerate(lanes):
        assert traces_equal(trace, expected[lane]), \
            f"{path}: native -O{level} lane {lane} diverged"
    assert native._native.program.opt_level == level


@needs_cc
@pytest.mark.parametrize("level", LEVELS, ids=[f"O{lv}" for lv in LEVELS])
def test_emitted_c_compiles_warning_free(level, tmp_path):
    for index, (_, generated) in enumerate(PROGRAMS):
        calyx = CompilationSession(generated.program).calyx(
            generated.spec.name)
        simulator = Simulator(calyx, generated.spec.name, mode="native")
        source, _, _ = native_module.generate_c_source(simulator)
        c_path = tmp_path / f"kernel{index}.c"
        c_path.write_text(source)
        proc = subprocess.run(
            [native_module.find_compiler(), f"-O{level}", "-Wall",
             "-Werror", "-fPIC", "-c", "-o", str(tmp_path / "kernel.o"),
             str(c_path)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, \
            f"{generated.spec.name} at -O{level}: {proc.stderr[:2000]}"
