"""The benchmark's workloads and the checks that judge every output.

Each workload is driven closed loop by one client: :meth:`Workload.prepare`
draws an op's inputs from the run's seeded RNG and does any untimed
per-op housekeeping, and the thunk it returns is the timed op, which ends
at a checked verdict (:class:`Outcome`).  Ops come in *rounds*, one op of
each *kind* (design, or program size class) of the workload's rotation,
so every run weighs the kinds alike.
Each workload imports only the modules its users would, so the heap the
collector walks during its ops is theirs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.designs import addmult_program, golden
from repro.harness import fuzz_against_golden, harness_for

import probe

#: Transactions per ``fuzz-small`` op (one scalar stream).
SMALL_TRANSACTIONS = 2000


class SetupError(Exception):
    """Set-up could not reach a checked first result; the run stops."""


@dataclass
class Outcome:
    """The verdict of one op."""

    ok: bool
    transactions: int
    seeds: int
    #: Simulated cycles by the engine's own counter; 0 where one op drives
    #: several engines (conformance).
    cycles: int
    #: Outputs that disagreed with the golden model.
    mismatches: int = 0
    #: Conformance divergences of every kind (golden ones included).
    divergences: int = 0
    reason: Optional[str] = None
    #: Builds the op's digest record once the clock has stopped.
    record: Callable[[], object] = lambda: None
    #: ``(design, tier, fallback reason)`` the op ran on.
    tier: Optional[Tuple[str, str, Optional[str]]] = None


def _warm_up(outcome: Outcome) -> None:
    if not outcome.ok:
        raise SetupError(f"warm-up op failed: {outcome.reason}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: Kinds in rotation order; one op of each makes a round.
    rotation: Tuple[str, ...] = ()
    #: Rounds whose outputs make the run's digest.  Every run executes
    #: at least this many, so the digest and the counts the traced run
    #: takes over the window repeat exactly for a seed.
    window_rounds = 1
    #: Rounds every run executes at least, whatever ``--seconds`` says
    #: (two, so every kind's op time has percentiles).
    min_rounds = 2
    #: Kind -> its weight in a round's time and work; None weighs every
    #: kind 1.  The weights sum to the rotation's length.
    weights: Optional[Dict[str, float]] = None
    #: Whether timed ops must find every kernel already built.
    warm_loop = False

    def setup(self, scratch: Path) -> None:
        """Build the workload's state from cold caches under ``scratch``,
        ending with one checked op per design.  A run sets up several
        times between ops; each set-up replaces the last one's state."""
        raise NotImplementedError

    def prepare(self, index: int, rng: random.Random
                ) -> Tuple[str, Callable[[], Outcome]]:
        """The kind of op ``index`` and the thunk that runs it."""
        raise NotImplementedError


class FuzzSmall(Workload):
    """One scalar ``fuzz_against_golden`` call on AddMult per op."""

    name = "fuzz-small"
    rotation = ("AddMult",)
    window_rounds = 20
    min_rounds = 100
    warm_loop = True

    def setup(self, scratch: Path) -> None:
        probe.isolate_caches(scratch)
        self.harness = harness_for(addmult_program(), "AddMult",
                                   mode="native")
        _warm_up(self._fuzz(0))

    def _fuzz(self, seed: int) -> Outcome:
        expected: List[int] = []
        addmult = golden.addmult

        def model(transaction):
            out = addmult(transaction["a"], transaction["b"],
                          transaction["c"])
            expected.append(out)
            return {"out": out}

        report = fuzz_against_golden(self.harness, model,
                                     count=SMALL_TRANSACTIONS, seed=seed)
        cycles = probe.engine_cycles(self.harness)
        tier, why = probe.harness_tier(self.harness)
        problem = (None if tier == "native"
                   else f"AddMult ran on the {tier} tier, not native: {why}")
        reason = problem or (None if report.passed
                             else report.divergences[0])
        # fuzz_against_golden returns no captured outputs; a passing
        # report means each one equalled its golden value, so those stand
        # in for them.
        return Outcome(ok=reason is None, transactions=SMALL_TRANSACTIONS,
                       seeds=1, cycles=cycles,
                       mismatches=len(report.divergences), reason=reason,
                       record=lambda: (seed, cycles, expected),
                       tier=("AddMult", tier, why))

    def prepare(self, index: int, rng: random.Random):
        seed = rng.getrandbits(32)
        return "AddMult", lambda: self._fuzz(seed)


class Conformance(Workload):
    """``run_conformance(generate(seed))`` for one generated program.

    Run time grows with program size and has a long tail, so a plain draw
    of a run's hundred-odd programs makes its figures depend on its seed
    more than on the code.  Each round instead takes one program from each
    node-count decile of the default generator, drawing seeds until one
    lands in the decile, and weighs it by the decile's measured share:
    the round is a stratified sample of the generator's own mix.  Node
    counts are whole numbers, so a decile's share is not exactly 10%."""

    name = "conformance"
    window_rounds = 1
    #: The set-up warm-up program (outside any run's seeded draw).
    WARM_UP_SEED = 0
    #: Generator seeds whose node counts fix the deciles and their shares.
    SIZE_SAMPLE = 5000

    def __init__(self) -> None:
        from repro.conformance import generate_spec
        nodes = sorted(len(generate_spec(seed).nodes)
                       for seed in range(self.SIZE_SAMPLE))
        self.size_bounds = sorted({nodes[len(nodes) * decile // 10]
                                   for decile in range(1, 10)})
        classes = len(self.size_bounds) + 1
        self.rotation = tuple(f"size class {index}"
                              for index in range(classes))
        counts = [0] * classes
        for count in nodes:
            counts[self._class_of(count)] += 1
        self.weights = {kind: classes * count / len(nodes)
                        for kind, count in zip(self.rotation, counts)}

    def setup(self, scratch: Path) -> None:
        probe.isolate_caches(scratch)  # one fresh store per set-up
        _warm_up(self._op(self.WARM_UP_SEED))

    def _op(self, seed: int) -> Outcome:
        from repro.conformance import generate, run_conformance
        generated = generate(seed)
        result = run_conformance(generated)
        golden_bad = sum(1 for line in result.divergences
                         if line.startswith("golden:"))
        reason = (None if result.passed
                  else f"program seed {seed}: {result.divergences[0]}")
        name = generated.spec.name
        # One op drives the program through several engines, so there is
        # no one cycle counter; the digest holds the verdict.
        return Outcome(ok=result.passed, transactions=result.transactions,
                       seeds=1, cycles=0, mismatches=golden_bad,
                       divergences=len(result.divergences), reason=reason,
                       record=lambda: (seed, name, result.passed,
                                       sorted(result.engines)))

    def _class_of(self, nodes: int) -> int:
        return sum(1 for bound in self.size_bounds if nodes > bound)

    def prepare(self, index: int, rng: random.Random):
        from repro.conformance import generate_spec
        wanted = index % len(self.rotation)
        seed = rng.getrandbits(31)
        while self._class_of(len(generate_spec(seed).nodes)) != wanted:
            seed = rng.getrandbits(31)
        return self.rotation[wanted], lambda: self._op(seed)


WORKLOADS = {workload.name: workload
             for workload in (FuzzSmall, Conformance)}
