"""Random stimulus generation and differential testing.

Appendix B.1 of the paper validates the pipelined floating-point adder by
"a fuzzing harness to ensure that the outputs of the implementation matched
the source" and by differential testing of the combinational, pipelined and
Filament implementations.  This module provides those two facilities on top
of :class:`~repro.harness.driver.CycleAccurateHarness`:

* :func:`random_columns` / :func:`random_transactions` — reproducible
  random input values sized to each port's width, as per-port columns or
  as one dict per transaction (the same values either way);
* :func:`differential_test` — run the same transactions through two designs
  (or a design and a Python golden model) and report every divergence;
* :func:`fuzz_against_golden` — check a design against a golden model,
  optionally running many independently seeded streams as lanes
  (``lanes=``): one pass of the native lane entry ``k_run_lanes`` on the
  native tier, one scalar run per stream on the others.  Stimulus and
  captured outputs stay columnar from the RNG to the verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..sim.values import format_value, is_x
from .driver import CycleAccurateHarness, StimulusColumns, Transaction

__all__ = ["random_columns", "random_transactions", "DifferentialReport",
           "differential_test", "fuzz_against_golden"]


def random_columns(harness: CycleAccurateHarness, count: int,
                   seed: int = 0,
                   exclude: Sequence[str] = ()) -> StimulusColumns:
    """``count`` reproducible random transactions for ``harness``, drawn
    straight into one value column per input port; ports in ``exclude``
    are left undriven (useful for mode pins fixed elsewhere).

    Every call builds its own :class:`random.Random` from ``seed`` (streams
    never share global RNG state, so interleaved streams stay reproducible)
    and values span the port's *full* width — a 64-bit port receives
    stimulus with high bits set, not values capped at 2**30.  Values are
    drawn transaction-major, port-minor (``getrandbits(port.width)``), so a
    seed names the same stimulus in every form.
    """
    ports = [port for port in harness.spec.inputs if port.name not in exclude]
    draws = list(map(random.Random(seed).getrandbits,
                     [port.width for port in ports] * count))
    stride = len(ports)
    return StimulusColumns(count, {
        port.name: draws[offset::stride] for offset, port in enumerate(ports)
    }, concrete=True)


def random_transactions(harness: CycleAccurateHarness, count: int,
                        seed: int = 0,
                        exclude: Sequence[str] = ()) -> List[Transaction]:
    """:func:`random_columns` as one dict per transaction."""
    return list(_rows(random_columns(harness, count, seed, exclude)))


def _rows(stimulus: StimulusColumns) -> Iterator[Transaction]:
    """A fresh ``{port: value}`` dict per transaction of ``stimulus``."""
    if not stimulus.columns:
        return ({} for _ in range(stimulus.count))
    return map(dict, map(zip, repeat(list(stimulus.columns)),
                         zip(*stimulus.columns.values())))


@dataclass
class DifferentialReport:
    """Outcome of a differential run: per-transaction divergences.

    ``seed`` records the stimulus-stream seed when the transactions were
    generated internally (``differential_test(..., count=, seed=)``), so a
    failing report can be replayed exactly; it is ``None`` when the caller
    supplied the transactions.

    ``fallback_reasons`` records, per harness role (``"reference"`` /
    ``"candidate"``) and per component, why the simulation engine routed
    through the sweep-loop fallback instead of the levelized schedule (see
    :attr:`~repro.sim.engine.ScheduledEngine.fallback_reason`); empty when
    everything ran on the schedule.
    """

    transactions: int
    divergences: List[str] = field(default_factory=list)
    seed: Optional[int] = None
    fallback_reasons: Dict[str, Dict[str, str]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def __str__(self) -> str:
        status = "AGREE" if self.passed else "DIVERGE"
        replay = "" if self.seed is None else f" [stimulus seed {self.seed}]"
        lines = [f"{status} over {self.transactions} transaction(s){replay}"]
        for role, reasons in sorted(self.fallback_reasons.items()):
            if reasons:
                detail = ", ".join(f"{name}: {reason}"
                                   for name, reason in sorted(reasons.items()))
                lines.append(f"  {role} engine fallback: {detail}")
        lines.extend(self.divergences[:20])
        if len(self.divergences) > 20:
            lines.append(f"... and {len(self.divergences) - 20} more")
        return "\n".join(lines)


def differential_test(reference: CycleAccurateHarness,
                      candidate: CycleAccurateHarness,
                      transactions: Optional[Sequence[Transaction]] = None,
                      outputs: Optional[Sequence[str]] = None,
                      count: int = 50, seed: int = 0) -> DifferentialReport:
    """Run the same transactions through two harnesses and compare the named
    outputs (all common outputs by default).

    When ``transactions`` is omitted, ``count`` random transactions are
    generated from a *per-stream* RNG seeded with ``seed`` (never the global
    RNG), and the seed is recorded in the report for replay.
    """
    stream_seed: Optional[int] = None
    if transactions is None:
        stream_seed = seed
        transactions = random_transactions(reference, count, seed=seed)
    names = list(outputs) if outputs is not None else [
        port.name for port in reference.spec.outputs
        if any(p.name == port.name for p in candidate.spec.outputs)
    ]
    reference_results = reference.run(transactions)
    candidate_results = candidate.run(transactions)
    report = DifferentialReport(len(transactions), seed=stream_seed)
    for role, harness in (("reference", reference), ("candidate", candidate)):
        simulator = harness._simulator
        if simulator is not None:
            report.fallback_reasons[role] = simulator.fallback_reasons()
    for ref, cand in zip(reference_results, candidate_results):
        for name in names:
            want, got = ref.output(name), cand.output(name)
            same = (is_x(want) and is_x(got)) or (not is_x(want) and not is_x(got) and want == got)
            if not same:
                report.divergences.append(
                    f"transaction {ref.index} ({ref.inputs}): {name} "
                    f"reference={format_value(want)} candidate={format_value(got)}"
                )
    return report


def fuzz_against_golden(harness: CycleAccurateHarness,
                        golden: Callable[[Transaction], Dict[str, int]],
                        count: int = 50, seed: int = 0,
                        lanes: int = 1) -> DifferentialReport:
    """Fuzz a design against a Python golden model.  The stimulus stream is
    seeded per call (recorded in the report), never from global RNG state;
    ``golden`` is called once per transaction, in order.

    With ``lanes > 1``, ``lanes`` independent streams (seeded ``seed``,
    ``seed + 1``, …) run as lanes
    (:meth:`~repro.harness.driver.CycleAccurateHarness.run_lane_columns`:
    one netlist pass on the native tier, one scalar run per stream
    elsewhere) and every stream is checked against the golden model — the
    way to push ``lanes`` times the fuzz traffic through the simulator in
    one call.
    Divergences of lane ``N`` start with ``lane N``.

    The design's engine fallbacks are recorded under the ``"candidate"``
    role of :attr:`DifferentialReport.fallback_reasons`, as in
    :func:`differential_test`.
    """
    if lanes <= 1:
        stimuli = [random_columns(harness, count, seed)]
        views = [harness.run_columns(stimuli[0])]
    else:
        stimuli = [random_columns(harness, count, seed=seed + lane)
                   for lane in range(lanes)]
        views = harness.run_lane_columns(stimuli)
    report = DifferentialReport(count * len(stimuli), seed=seed)
    report.fallback_reasons["candidate"] = (
        harness._simulator.fallback_reasons())
    for lane, (stimulus, view) in enumerate(zip(stimuli, views)):
        tag = "" if len(views) == 1 else f"lane {lane} "
        report.divergences.extend(view.golden_mismatches(
            _rows(stimulus), golden,
            lambda index, inputs, name, want, got: (
                f"{tag}transaction {index} ({inputs}): "
                f"{name} expected {want} got {format_value(got)}")))
    return report
