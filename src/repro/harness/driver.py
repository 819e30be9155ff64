"""The generic cycle-accurate test harness of Section 7.1.

The harness drives a compiled design *exactly* as its timeline type
prescribes:

1. every input is asserted only during the cycles of its availability
   interval and is driven to X everywhere else — this is what distinguishes
   it from Aetherling's harness, which "always asserts all inputs for 9
   cycles" and therefore misses interface bugs;
2. transactions are pipelined: a new set of inputs starts every
   initiation-interval cycles (the event's delay);
3. every output is captured during the cycles of its availability interval
   and compared against a golden model.

On top of the basic driver, :func:`audit_latency` reproduces the Table 1
methodology ("for designs with mismatched outputs, we change the latency
till we get the right answer"): it measures the cycle at which the expected
value actually appears and the number of cycles each input really has to be
held, and reports both next to the claimed interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..calyx.ir import CalyxProgram
from ..core.ast import Program
from ..core.errors import FilamentError, SimulationError
from ..core.session import CompilationSession
from ..sim.simulator import Simulator
from ..sim.values import Value, X, format_value, is_x
from .spec import InterfaceSpec, spec_from_signature

__all__ = [
    "Transaction",
    "TransactionResult",
    "StimulusColumns",
    "ResultColumns",
    "HarnessReport",
    "CycleAccurateHarness",
    "harness_for",
    "audit_latency",
    "LatencyAudit",
]

#: A transaction maps each data input port to the value for that transaction.
Transaction = Dict[str, int]


@dataclass
class TransactionResult:
    """Captured outputs of one transaction."""

    index: int
    start_cycle: int
    inputs: Transaction
    outputs: Dict[str, Value] = field(default_factory=dict)

    def output(self, name: str) -> Value:
        return self.outputs.get(name, X)


@dataclass
class StimulusColumns:
    """Input values for ``count`` transactions, one column per driven data
    input port: ``columns[name][i]`` drives ``name`` in transaction ``i``.
    ``None`` leaves the port undriven (X) for that transaction, and a port
    absent from ``columns`` stays undriven throughout.

    ``concrete`` promises that no column holds ``None`` or X, so the
    scheduler writes each window as strided slices without scanning the
    values (random stimulus is concrete by construction)."""

    count: int
    columns: Dict[str, List[Value]]
    concrete: bool = False

    @classmethod
    def from_transactions(cls, spec: InterfaceSpec,
                          transactions: Sequence[Transaction]
                          ) -> "StimulusColumns":
        return cls(len(transactions), {
            port.name: [transaction.get(port.name)
                        for transaction in transactions]
            for port in spec.inputs})


@dataclass
class ResultColumns:
    """Captured outputs of one transaction stream, kept columnar.

    ``columns[name] = (values, xflags)`` for every output port of the
    spec: entry ``i`` is transaction ``i``'s value at its capture cycle,
    and a nonzero xflag means X (the value entry is then meaningless).
    ``starts[i]`` is transaction ``i``'s start cycle.  Nothing is built
    per transaction until :meth:`results` asks for it."""

    starts: List[int]
    columns: Dict[str, Tuple[Sequence[Value], Sequence[int]]]

    def output(self, index: int, name: str) -> Value:
        column = self.columns.get(name)
        if column is None or column[1][index]:
            return X
        return column[0][index]

    def results(self, transactions: Sequence[Transaction]
                ) -> List[TransactionResult]:
        """One :class:`TransactionResult` per transaction, its ``inputs`` a
        copy of the matching entry of ``transactions``."""
        reads = [(name, values, xflags)
                 for name, (values, xflags) in self.columns.items()]
        return [
            TransactionResult(index, start, dict(transaction), {
                name: X if xflags[index] else values[index]
                for name, values, xflags in reads})
            for index, (start, transaction)
            in enumerate(zip(self.starts, transactions))]

    def golden_mismatches(self, inputs: Iterable[Transaction],
                          golden: Callable[[Transaction], Dict[str, int]],
                          describe: Callable[[int, Transaction, str, int,
                                              Value], str]) -> List[str]:
        """Check every transaction against ``golden``: it is called once
        per transaction, in index order, with that transaction's entry of
        ``inputs``, and each output it names must have been captured
        non-X and equal.  A mismatch is rendered by ``describe(index,
        inputs, name, want, got)``, which runs for mismatches only."""
        column_of = self.columns.get
        mismatches: List[str] = []
        for index, transaction in enumerate(inputs):
            for name, want in golden(transaction).items():
                column = column_of(name)
                if (column is None or column[1][index]
                        or column[0][index] != want):
                    mismatches.append(describe(index, transaction, name, want,
                                               self.output(index, name)))
        return mismatches


@dataclass
class HarnessReport:
    """The outcome of a harness run against expected values."""

    results: List[TransactionResult]
    mismatches: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {len(self.results)} transaction(s)"]
        lines.extend(self.mismatches)
        return "\n".join(lines)


class CycleAccurateHarness:
    """Drives one compiled design according to an :class:`InterfaceSpec`.

    ``mode`` selects the simulation engine tier (see
    :class:`~repro.sim.Simulator`); the default is the compiled-kernel tier,
    which automatically falls back to the scheduled interpreter for
    netlists codegen cannot handle, so harness semantics never change —
    only throughput does.
    """

    def __init__(self, calyx: CalyxProgram, spec: InterfaceSpec,
                 component: Optional[str] = None,
                 mode: str = "compiled") -> None:
        self.calyx = calyx
        self.spec = spec
        self.mode = mode
        self.component = component or calyx.entrypoint
        simulator_component = self.calyx.get(self.component)
        known = set(simulator_component.input_names())
        for port in spec.inputs:
            if port.name not in known:
                raise FilamentError(
                    f"harness spec drives unknown input {port.name!r} of "
                    f"{self.component}"
                )
        #: The compiled simulation engine, built once per harness; every run
        #: resets it to power-on state instead of recompiling the schedule.
        self._simulator: Optional[Simulator] = None

    def _fresh_simulator(self) -> Simulator:
        if self._simulator is None:
            self._simulator = Simulator(self.calyx, self.component,
                                        mode=self.mode)
        else:
            self._simulator.reset()
        return self._simulator

    # -- stimulus construction -----------------------------------------------

    def _schedule(self, transactions: Sequence[Transaction],
                  spacing: Optional[int] = None,
                  extra_cycles: int = 4) -> Tuple[List[Dict[str, Value]], List[int]]:
        """The per-cycle input dictionaries for a pipelined run (what
        :meth:`~repro.sim.engine.ScheduledEngine.run_batch` takes) and each
        transaction's start cycle: :meth:`_schedule_columns` read out row by
        row, so both forms share windows, idle values and overlap errors."""
        total, columns, starts = self._schedule_columns(
            StimulusColumns.from_transactions(self.spec, transactions),
            spacing, extra_cycles)
        return self._cycle_rows(total, columns), starts

    def _schedule_columns(self, stimulus: StimulusColumns,
                          spacing: Optional[int] = None,
                          extra_cycles: int = 4
                          ) -> Tuple[int, Dict[str, Tuple[List[int],
                                                          bytearray]],
                                     List[int]]:
        """Build the input columns for a pipelined run: one ``(values,
        xflags)`` column per interface and data input port, covering every
        cycle of the run.

        Returns the cycle count, the columns and each transaction's start
        cycle.  Every cycle starts idle — interface ports 0, data ports X
        so early/late reads are caught — and transactions overwrite their
        windows.  Raises if two transactions would need to drive one input
        port in the same cycle with different values (which can only
        happen when the caller forces a spacing below the initiation
        interval)."""
        spacing = (spacing if spacing is not None
                   else self.spec.initiation_interval)
        count = stimulus.count
        starts = [index * spacing for index in range(count)]
        total = ((starts[-1] if starts else 0) + self.spec.horizon()
                 + extra_cycles)
        columns: Dict[str, Tuple[List[int], bytearray]] = {}
        for name in self.spec.interface_ports:
            columns[name] = ([0] * total, bytearray(total))
        for port in self.spec.inputs:
            columns[port.name] = ([0] * total, bytearray(b"\x01" * total))
        if count:
            ones = [1] * count
            for offset_port, cycle in self.spec.interface_ports.items():
                values, _ = columns[offset_port]
                stop = cycle + count * spacing
                if spacing > 0:
                    values[cycle:stop:spacing] = ones
                else:
                    values[cycle] = 1
        for port in self.spec.inputs:
            column = stimulus.columns.get(port.name)
            if column is None:
                continue
            values, xflags = columns[port.name]
            # Windows of consecutive transactions are disjoint whenever the
            # hold fits inside the spacing, so each window cycle becomes
            # one strided bulk write; holes (undriven transactions, X
            # stimulus) and overlapping windows take the checked per-cycle
            # path.
            if (count and 0 < port.hold_cycles <= spacing
                    and (stimulus.concrete
                         or (None not in column and X not in column))):
                zeros = bytes(count)
                for cycle in port.cycles():
                    stop = cycle + count * spacing
                    values[cycle:stop:spacing] = column
                    xflags[cycle:stop:spacing] = zeros
                continue
            for start, value in zip(starts, column):
                if value is None:
                    continue
                concrete = not is_x(value)
                for cycle in port.cycles():
                    index = start + cycle
                    if xflags[index]:
                        if concrete:
                            values[index] = value
                            xflags[index] = 0
                    elif not concrete or values[index] != value:
                        raise SimulationError(
                            f"transactions overlap on input {port.name} at "
                            f"cycle {index}; spacing {spacing} is "
                            f"below the initiation interval"
                        )
        return total, columns, starts

    def _cycle_rows(self, total: int,
                    columns: Dict[str, Tuple[List[int], bytearray]]
                    ) -> List[Dict[str, Value]]:
        """Per-cycle input dicts for ``total`` cycles of
        :meth:`_schedule_columns` output.

        Idle rows (interface ports 0, data ports X) are *interned*: they
        share one dict, since the engines only read stimulus rows.  Long
        pipelined runs are mostly idle cycles, so this keeps one dict per
        busy cycle only."""
        names = list(columns)
        idle = tuple(0 if name in self.spec.interface_ports else X
                     for name in names)
        shared = dict(zip(names, idle))
        if not names:
            return [shared] * total
        planes = [[X if flag else value
                   for value, flag in zip(values, xflags)]
                  for values, xflags in columns.values()]
        return [shared if row == idle else dict(zip(names, row))
                for row in zip(*planes)]

    # -- running ---------------------------------------------------------------

    def run(self, transactions: Sequence[Transaction],
            spacing: Optional[int] = None,
            extra_cycles: int = 4) -> List[TransactionResult]:
        """Run the transactions back-to-back at the initiation interval and
        capture each one's outputs during their availability windows (see
        :meth:`run_columns`)."""
        view = self.run_columns(
            StimulusColumns.from_transactions(self.spec, transactions),
            spacing, extra_cycles)
        return view.results(transactions)

    def run_columns(self, stimulus: StimulusColumns,
                    spacing: Optional[int] = None,
                    extra_cycles: int = 4) -> ResultColumns:
        """Run columnar stimulus back-to-back at the initiation interval
        and return every output at each transaction's capture cycle, still
        columnar.

        On the native C tier the whole run is one columnar call
        (:meth:`~repro.sim.engine.ScheduledEngine.run_columns`); the other
        tiers run the same schedule as per-cycle dicts through
        :meth:`~repro.sim.engine.ScheduledEngine.run_batch`, and the
        capture reads that trace.  Both are trace-identical."""
        simulator = self._fresh_simulator()
        total, columns, starts = self._schedule_columns(
            stimulus, spacing, extra_cycles)
        out = simulator.run_columns(total, columns)
        if out is None:
            trace = simulator.run_batch(self._cycle_rows(total, columns))
            return self._capture(self._trace_columns(trace), total, starts)
        return self._capture(out, total, starts)

    def _trace_columns(self, trace: List[Dict[str, Value]]
                       ) -> Dict[str, Tuple[List[Value], bytes]]:
        """The spec's output ports of a per-cycle trace as ``(values,
        xflags)`` columns."""
        out = {}
        for port in self.spec.outputs:
            values = [row.get(port.name, X) for row in trace]
            out[port.name] = (values, bytes([value is X for value in values]))
        return out

    def _capture(self, out: Dict[str, Tuple[Sequence[Value], Sequence[int]]],
                 total: int, starts: List[int],
                 lane: int = 0, n_lanes: int = 1) -> ResultColumns:
        """Read every output port of the spec at each transaction's capture
        cycle (its start plus the port's window start) out of the
        per-cycle columns ``out`` — lane ``lane`` of ``n_lanes``
        interleaved lanes (flat index ``cycle * n_lanes + lane``).  A port
        missing from ``out`` and a capture cycle at or past ``total`` read
        X."""
        count = len(starts)
        spacing = starts[1] - starts[0] if count > 1 else 1
        columns: Dict[str, Tuple[Sequence[Value], Sequence[int]]] = {}
        for port in self.spec.outputs:
            column = out.get(port.name)
            if column is None:
                columns[port.name] = ([0] * count, b"\x01" * count)
                continue
            values, xflags = column
            if count and spacing > 0 and starts[-1] + port.start < total:
                # One strided read per port: the starts are uniform and
                # every capture lands inside the run.
                first = port.start * n_lanes + lane
                stop = (starts[-1] + port.start) * n_lanes + lane + 1
                step = spacing * n_lanes
                columns[port.name] = (values[first:stop:step],
                                      xflags[first:stop:step])
                continue
            cycles = [start + port.start for start in starts]
            columns[port.name] = (
                [values[cycle * n_lanes + lane] if cycle < total else 0
                 for cycle in cycles],
                bytes([xflags[cycle * n_lanes + lane] if cycle < total else 1
                       for cycle in cycles]))
        return ResultColumns(starts, columns)

    def run_lanes(self, transaction_streams: Sequence[Sequence[Transaction]],
                  spacing: Optional[int] = None,
                  extra_cycles: int = 4) -> List[List[TransactionResult]]:
        """Run several *independent* transaction streams as lanes and
        capture each stream's outputs (see :meth:`run_lane_columns`)."""
        streams = [list(stream) for stream in transaction_streams]
        views = self.run_lane_columns(
            [StimulusColumns.from_transactions(self.spec, stream)
             for stream in streams], spacing, extra_cycles)
        return [view.results(stream) for view, stream in zip(views, streams)]

    def run_lane_columns(self, stimuli: Sequence[StimulusColumns],
                         spacing: Optional[int] = None,
                         extra_cycles: int = 4) -> List[ResultColumns]:
        """Run several *independent* columnar stimulus streams as lanes and
        return each stream's captured outputs.

        Every stream is pipelined internally exactly as
        :meth:`run_columns` would pipeline it; the streams never interact.

        In ``mode="native"`` the streams' schedules are merged into one
        lane-major-within-port buffer set and executed in a single C call
        (:meth:`~repro.sim.engine.ScheduledEngine.run_lane_columns`);
        when that declines (other modes, or a native fallback) they run
        through
        :meth:`~repro.sim.engine.ScheduledEngine.run_lanes`, one scalar run
        per stream — trace identical either way.
        """
        simulator = self._fresh_simulator()
        schedules = [self._schedule_columns(stimulus, spacing, extra_cycles)
                     for stimulus in stimuli]
        if schedules and simulator.mode == "native":
            n_lanes = len(schedules)
            total = max(lane_total for lane_total, _, _ in schedules)
            merged: Dict[str, Tuple[List[int], bytearray]] = {}
            for name in schedules[0][1]:
                values = [0] * (total * n_lanes)
                xflags = bytearray(b"\x01" * (total * n_lanes))
                for lane, (lane_total, columns, _) in enumerate(schedules):
                    lane_values, lane_xflags = columns[name]
                    stop = lane_total * n_lanes
                    values[lane:stop:n_lanes] = lane_values
                    xflags[lane:stop:n_lanes] = lane_xflags
                merged[name] = (values, xflags)
            out = simulator.run_lane_columns(total, n_lanes, merged)
            if out is not None:
                return [self._capture(out, lane_total, starts, lane, n_lanes)
                        for lane, (lane_total, _, starts)
                        in enumerate(schedules)]
        traces = simulator.run_lanes([self._cycle_rows(total, columns)
                                      for total, columns, _ in schedules])
        return [self._capture(self._trace_columns(trace), len(trace), starts)
                for trace, (_, _, starts) in zip(traces, schedules)]

    def trace(self, transactions: Sequence[Transaction],
              spacing: Optional[int] = None,
              extra_cycles: int = 4) -> List[Dict[str, Value]]:
        """The raw per-cycle output trace (used by waveform figures and by
        the latency audit)."""
        stimulus, _ = self._schedule(transactions, spacing, extra_cycles)
        return self._fresh_simulator().run_batch(stimulus)

    def check(self, transactions: Sequence[Transaction],
              golden: Callable[[Transaction], Dict[str, int]],
              spacing: Optional[int] = None) -> HarnessReport:
        """Run and compare every captured output against ``golden``."""
        view = self.run_columns(
            StimulusColumns.from_transactions(self.spec, transactions),
            spacing)
        results = view.results(transactions)
        report = HarnessReport(results)
        report.mismatches = view.golden_mismatches(
            (result.inputs for result in results), golden,
            lambda index, inputs, name, want, got: (
                f"transaction {index}: output {name} expected "
                f"{want} but captured {format_value(got)} at cycle "
                f"{view.starts[index] + self.spec.output(name).start}"))
        return report


def harness_for(program: Program, component: str,
                calyx: Optional[CalyxProgram] = None,
                session: Optional[CompilationSession] = None,
                mode: str = "compiled") -> CycleAccurateHarness:
    """Compile ``component`` (unless a compiled program is supplied) and wrap
    it in a harness driven by its own timeline type.  Compilation routes
    through ``session`` when given, or the program's shared
    :class:`~repro.core.session.CompilationSession` otherwise, so repeated
    harnesses over one program hit the staged caches — and, since the
    session is incremental, editing a component between harnesses recompiles
    only that component and its transitive dependents (everything else,
    including content-identical programs compiled elsewhere in the process,
    is served from the digest-keyed compile cache).  ``mode`` selects the
    engine tier (compiled kernel by default, with automatic interpreter
    fallback)."""
    if calyx is None:
        session = session or CompilationSession.for_program(program)
        calyx = session.calyx(component)
    spec = spec_from_signature(program.get(component).signature)
    return CycleAccurateHarness(calyx, spec, component, mode=mode)


@dataclass
class LatencyAudit:
    """The result of auditing a claimed interface against reality."""

    reported_latency: int
    actual_latency: Optional[int]
    reported_hold: int
    required_hold: Optional[int]
    output: str

    @property
    def latency_correct(self) -> bool:
        return self.actual_latency == self.reported_latency

    @property
    def hold_correct(self) -> bool:
        return self.required_hold == self.reported_hold


def audit_latency(calyx: CalyxProgram, spec: InterfaceSpec,
                  transactions: Union[Transaction, Sequence[Transaction]],
                  expected: Union[Dict[str, int], Sequence[Dict[str, int]]],
                  max_latency: int = 64, max_hold: int = 16,
                  component: Optional[str] = None) -> LatencyAudit:
    """Reproduce the Table 1 methodology for one design.

    ``spec`` describes the *claimed* interface (e.g. what Aetherling's CLI
    reports); ``transactions`` is a warm-up stream whose tail is probed —
    ``expected`` gives the expected outputs for the last transaction (a
    single dict) or for the last several transactions (a list of dicts),
    and a candidate latency only counts when *every* probed transaction's
    output appears at that offset, which pins the latency down even when
    individual output values repeat.  The audit:

    1. drives the stream at the claimed initiation interval, with inputs held
       exactly as long as the claimed type says, and scans the output trace
       (from the last transaction's start cycle onwards) for the cycle at
       which the expected value actually appears; the offset from the start
       cycle is the *actual latency* (``None`` if it never shows up within
       ``max_latency`` cycles);
    2. if the expected value never appears, retries with progressively longer
       input holds to find the hold the design really requires — this is how
       the paper discovers that the 1/9-throughput conv2d needs its input for
       six cycles rather than one.
    """
    if isinstance(transactions, dict):
        transactions = [transactions]
    transactions = list(transactions)
    if isinstance(expected, dict):
        expected_tail: List[Dict[str, int]] = [expected]
    else:
        expected_tail = list(expected)
    output_name = next(iter(expected_tail[-1]))
    interval = spec.initiation_interval
    last_start = (len(transactions) - 1) * interval
    # Start cycles of the transactions the expectations refer to (the last
    # ``len(expected_tail)`` transactions of the stream).
    probe_starts = [last_start - interval * (len(expected_tail) - 1 - index)
                    for index in range(len(expected_tail))]

    def measure(hold: int) -> Optional[int]:
        candidate = spec.with_input_hold(hold)
        harness = CycleAccurateHarness(calyx, candidate, component)
        try:
            trace = harness.trace(transactions, extra_cycles=max_latency + 4)
        except SimulationError:
            # Holding the input longer than the initiation interval makes
            # consecutive transactions overlap; the design cannot need that.
            return None
        for latency in range(0, max_latency + 1):
            matches = True
            for start, wants in zip(probe_starts, expected_tail):
                cycle = start + latency
                if cycle >= len(trace):
                    matches = False
                    break
                for name, want in wants.items():
                    value = trace[cycle].get(name, X)
                    if is_x(value) or value != want:
                        matches = False
                        break
                if not matches:
                    break
            if matches:
                return latency
        return None

    reported_hold = spec.inputs[0].hold_cycles if spec.inputs else 1
    actual = measure(reported_hold)
    required_hold: Optional[int] = reported_hold if actual is not None else None
    if actual is None:
        for hold in range(reported_hold + 1, max_hold + 1):
            actual = measure(hold)
            if actual is not None:
                required_hold = hold
                break
    return LatencyAudit(
        reported_latency=spec.latency(),
        actual_latency=actual,
        reported_hold=reported_hold,
        required_hold=required_hold,
        output=output_name,
    )
