"""Lanes-vs-scalar equivalence over the golden corpus.

Every committed corpus entry is replayed through ``run_lanes`` with several
independently seeded stimulus streams, and each lane's trace must be
bit-identical — values *and* X planes — to a scalar run of that stream.
Every tier is covered: the levelized schedule (``mode="auto"``), the
sweep-loop fallback (``mode="fixpoint"``), the generated kernel
(``mode="compiled"``) and the native lane entry (``mode="native"``).
"""

from pathlib import Path

import pytest

from repro.conformance import load_entries, replay_entry, run_conformance
from repro.conformance.differential import traces_equal
from repro.core.session import CompilationSession
from repro.harness import harness_for, random_transactions
from repro.sim import Simulator, compiler_available

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
LANES = 4
TRANSACTIONS = 6


def _stimuli(generated):
    session = CompilationSession(generated.program)
    calyx = session.calyx(generated.spec.name)
    harness = harness_for(generated.program, generated.spec.name, calyx=calyx)
    return calyx, [
        harness._schedule(
            random_transactions(harness, TRANSACTIONS, seed=seed))[0]
        for seed in range(LANES)
    ]


@pytest.mark.parametrize("mode", ["auto", "fixpoint", "compiled", "native"])
@pytest.mark.parametrize("path,entry",
                         load_entries(CORPUS_DIR),
                         ids=[p.name for p, _ in load_entries(CORPUS_DIR)])
def test_corpus_lanes_bit_identical_to_scalar(path, entry, mode):
    generated = replay_entry(entry)
    calyx, stimuli = _stimuli(generated)
    name = generated.spec.name
    simulator = Simulator(calyx, name, mode=mode)
    lane_traces = simulator.run_lanes(stimuli)
    if mode == "native" and compiler_available() and simulator.uses_native():
        assert simulator.uses_native_lanes()
    scalar = Simulator(calyx, name, mode="fixpoint")
    for lane, stimulus in enumerate(stimuli):
        scalar.reset()
        assert traces_equal(lane_traces[lane], scalar.run_batch(stimulus)), \
            f"{path.name}: lane {lane} diverged from its scalar run ({mode})"


@pytest.mark.skipif(not compiler_available(), reason="no C compiler on host")
def test_conformance_runs_the_native_lanes_way():
    entries = load_entries(CORPUS_DIR)
    generated = replay_entry(entries[0][1])
    result = run_conformance(generated, transactions=4, seed=1, lanes=3)
    assert result.passed, str(result)
    assert "native-lanes" in result.engines
    assert "packed" not in result.engines
    assert result.coverage.native_lanes
    assert result.coverage.lanes == 3


def test_conformance_lanes_one_disables_the_native_lanes_way():
    entries = load_entries(CORPUS_DIR)
    generated = replay_entry(entries[0][1])
    result = run_conformance(generated, transactions=4, seed=1, lanes=1)
    assert result.passed, str(result)
    assert "native-lanes" not in result.engines
    assert result.coverage.native_lanes is None
    assert result.coverage.lanes == 1
