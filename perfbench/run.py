"""End-to-end, layer-by-layer benchmark of the Filament compiler and
simulator: checked transactions per second, time to first result and
conformance programs per second, with every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload fuzz-small --seed 1 \
        --seconds 60 --trace 0

``BENCHMARK.json`` names the workloads (``fuzz-small``, ``conformance``)
and the metrics this prints; ``spec.py`` defines each metric.  One client
drives each closed loop, single-threaded, for ``--seconds`` of wall time,
set-ups included.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the public entry points of every layer from outside
the program and prints the per-layer metrics, writing the spans to
``.perfbench_out/<workload>-seed<seed>-spans.jsonl``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Before it, a ``digest`` line
hashes the outputs and engine-counted cycles of the run's first ops, which
repeat for a seed.

Every run works in a fresh ``.perfbench_tmp/`` directory (artifact store,
native ``.so`` cache, compiler temp files) that it deletes on exit, and
ignores any ``REPRO_*`` setting of the caller.  Without a C compiler it
exits non-zero instead of reporting numbers from a slower tier.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run, spread evenly over its time: the host runs
#: seconds-long fast and slow phases, and set-ups bunched at the start
#: would all land in one of them.  ``setup_s`` is their median.
SETUPS = 15

#: Per-layer self-time metric → the span layers it sums.
SELF_TIMES = {
    "harness.stimulus_s": ("harness.stimulus",),
    "harness.self_s": ("harness",),
    "golden.check_s": ("golden",),
    "sim.engine.busy_s": ("sim.engine",),
    "sim.native.emit_s": ("sim.native.emit",),
    "sim.native.cc_load_s": ("sim.native.native_for",),
    "sim.codegen.kernel_s": ("sim.codegen.kernel",),
    "core.parse_s": ("core.parse", "core.session"),
    "core.check_s": ("core.check",),
    "core.lower_s": ("core.lower",),
    "core.calyx_s": ("core.calyx",),
    "core.verilog_s": ("core.verilog",),
    "conformance.generate_s": ("conformance.generate",),
    "conformance.self_s": ("conformance",),
    "op.unattributed_s": ("op",),
}


@dataclass
class Op:
    seconds: float
    outcome: object
    round: int
    traced: bool
    kind: str


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _isolate_process(scratch: Path) -> None:
    """Drop the caller's ``REPRO_*`` knobs and keep every temp file (the
    C compiler's included) inside the run's scratch directory."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    temp = scratch / "tmp"
    temp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(temp)
    tempfile.tempdir = str(temp)


def trace_targets():
    """``(owner, attribute, layer, info)`` for every wrapped entry point
    the workload has loaded; ``info(args, result)`` keeps what the
    per-layer counts need."""
    from repro.core.session import CompilationSession
    from repro.harness import driver, fuzz
    from repro.sim import codegen, native
    from repro.sim.engine import ScheduledEngine

    import probe

    def engine(entry, cycles_of):
        def info(args, result):
            if result is None:  # columnar entry declined: nothing ran
                return None
            return probe.engine_tier(args[0], entry), cycles_of(args)
        return (ScheduledEngine, entry, "sim.engine", info)

    def native_info(args, result):
        program, cached, _ = result
        return "hit" if cached else ("disk" if program.disk_hit else "build")

    harness = driver.CycleAccurateHarness
    session = CompilationSession
    targets = [
        (session, "from_source", "core.session", None),
        (session, "compile", "core.session", None),
        (session, "program", "core.parse", None),
        (session, "check", "core.check", None),
        (session, "lower", "core.lower", None),
        (session, "calyx", "core.calyx", None),
        (session, "verilog", "core.verilog", None),
        (codegen, "kernel_for", "sim.codegen.kernel",
         lambda args, result: result[1]),
        (native, "native_for", "sim.native.native_for", native_info),
        (native, "generate_c_source", "sim.native.emit",
         lambda args, result: result[0].count("\n")),
        engine("run_columns", lambda args: args[1]),
        engine("run_lane_columns", lambda args: args[1] * args[2]),
        engine("run_batch", lambda args: len(args[1])),
        engine("run_lanes", lambda args: sum(len(b) for b in args[1])),
        (ScheduledEngine, "prepare", "sim.engine", None),
        (fuzz, "random_transactions", "harness.stimulus", None),
        (harness, "run", "harness", lambda args, result: len(result)),
        (harness, "run_lanes", "harness",
         lambda args, result: sum(len(lane) for lane in result)),
        (fuzz, "fuzz_against_golden", "golden", None),
    ]
    # Only the conformance workload loads these; importing them for the
    # others would change the heap their ops run in.
    generator = sys.modules.get("repro.conformance.generator")
    differential = sys.modules.get("repro.conformance.differential")
    if generator is not None and differential is not None:
        targets += [
            (generator.GeneratedProgram, "golden", "golden", None),
            (generator, "generate", "conformance.generate", None),
            (differential, "run_conformance", "conformance", None),
        ]
    return targets


def measure(workload, seed: int, seconds: float, tracer, scratch: Path):
    """Run the closed loop for ``seconds``, setting up ``SETUPS`` times
    along the way; returns the ops, the set-up times, cache-counter deltas
    and the digest of the window's outputs."""
    import probe
    from workloads import Outcome

    setups: List[float] = []

    def set_up() -> None:
        start = time.perf_counter()
        workload.setup(scratch / f"setup-{len(setups)}")
        setups.append(time.perf_counter() - start)

    began = time.perf_counter()
    set_up()
    if tracer is not None:
        tracer.prepare(trace_targets())
    gc.collect()

    rng = random.Random(seed)
    per_round = len(workload.rotation)
    window_size = workload.window_rounds * per_round
    digest = hashlib.sha256()
    ops: List[Op] = []
    # Summed per op: a set-up resets the counters with its caches.
    window_counts: Dict[str, int] = {}
    loop_counts: Dict[str, int] = {}
    rounds = 0

    def set_up_due() -> bool:
        # Between ops, spread evenly over the run.
        return len(setups) < SETUPS and (time.perf_counter() - began
                                         >= seconds * len(setups) / SETUPS)

    def finished() -> bool:
        # Checked between ops: a run may end mid-round, as every kind's
        # op time is read on its own.
        return (rounds >= workload.min_rounds and len(setups) == SETUPS
                and time.perf_counter() - began >= seconds)

    while not finished():
        in_window = rounds < workload.window_rounds
        traced = tracer is not None and (
            in_window or (rounds - workload.window_rounds) % 2 == 1)
        if traced:
            tracer.install()
        try:
            for _ in range(per_round):
                if finished():
                    break
                if set_up_due():
                    if traced:
                        tracer.uninstall()
                    set_up()
                    if traced:
                        tracer.install()
                index = len(ops)
                kind, thunk = workload.prepare(index, rng)
                before = probe.counters()
                span = tracer.begin_op(index, "op") if traced else None
                start = time.perf_counter()
                try:
                    outcome = thunk()
                except Exception as error:  # a failed op, not a failed run
                    outcome = Outcome(
                        ok=False, transactions=0, seeds=0, cycles=0,
                        reason=f"{type(error).__name__}: {error}")
                finally:
                    elapsed = time.perf_counter() - start
                    if span is not None:
                        tracer.end_op(span)
                counts = probe.delta(before, probe.counters())
                for key, value in counts.items():
                    loop_counts[key] = loop_counts.get(key, 0) + value
                    if index < window_size:
                        window_counts[key] = window_counts.get(key, 0) + value
                if index < window_size:
                    digest.update(repr(outcome.record()).encode())
                # Records hold captured outputs; keeping them would grow
                # the heap, and the collector's work, op after op.
                outcome.record = None
                ops.append(Op(elapsed, outcome, rounds, traced, kind))
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
    return ops, setups, window_counts, loop_counts, digest


def end_to_end(workload, ops: List[Op], setups) -> Dict[str, float]:
    kinds: Dict[str, List[Op]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    weights = workload.weights or dict.fromkeys(kinds, 1.0)
    # A round runs one op of each kind.  Its time is taken from each
    # kind's 5th percentile of op time, the run's least contended speed
    # (see spec.py); its work is each kind's mean checked work per op.
    round_s = 0.0
    work = {"transactions": 0.0, "seeds": 0.0}
    for kind, of_kind in kinds.items():
        times = [op.seconds for op in of_kind]
        round_s += weights[kind] * statistics.quantiles(
            times, n=20, method="inclusive")[0]
        for field in work:
            work[field] += weights[kind] * sum(
                getattr(op.outcome, field) for op in of_kind
                if op.outcome.ok) / len(of_kind)
    op_s = round_s / len(workload.rotation)
    return {
        "checked_tx_per_s": work["transactions"] / round_s,
        "op_ms.p5": op_s * 1e3,
        "time_to_first_result_s": op_s,
        "seeds_per_s": work["seeds"] / round_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_rate": sum(1 for op in ops if op.outcome.ok) / len(ops),
    }


def per_layer(workload, ops: List[Op], tracer, window_counts,
              problems: List[str], notes: List[str]) -> Dict[str, float]:
    import probe
    traced = {index for index, op in enumerate(ops) if op.traced}
    window_size = workload.window_rounds * len(workload.rotation)
    window = set(range(window_size))
    wall = sum(ops[index].seconds for index in traced)
    own = tracer.self_seconds(traced)
    metrics: Dict[str, float] = {}
    for name, layers in SELF_TIMES.items():
        value = sum(own.get(layer, 0.0) for layer in layers)
        metrics[name] = value
        metrics[name + ".share"] = value / wall

    def ratio(hits: int, total: int) -> float:
        return hits / total if total else 0.0

    window_ops = [ops[index].outcome for index in sorted(window)]
    metrics["harness.transactions"] = sum(
        tracer.infos("harness", window, top_level=True))
    metrics["golden.mismatches"] = sum(o.mismatches for o in window_ops)

    runs = [info for info in tracer.infos("sim.engine", window,
                                          top_level=True) if info]
    cycles = sum(count for _, count in runs)
    busy = tracer.self_seconds(window).get("sim.engine", 0.0)
    metrics["sim.engine.calls"] = len(runs)
    metrics["sim.engine.cycles"] = cycles
    metrics["sim.engine.cycles_per_busy_s"] = cycles / busy if busy else 0.0
    for tier in probe.TIERS:
        metrics[f"sim.engine.tier.{tier}"] = sum(
            1 for ran, _ in runs if ran == tier)
    # The engine's counter against the cycles its entry points were
    # asked to run, op by op where the counter advanced.
    for index in sorted(window):
        counted = ops[index].outcome.cycles
        asked = sum(info[1] for info in tracer.infos(
            "sim.engine", {index}, top_level=True) if info)
        if counted and counted != asked:
            problems.append(f"op {index}: the engine counted {counted} "
                            f"cycles, its entry points were asked for "
                            f"{asked}")

    builds = tracer.infos("sim.native.native_for", window)
    metrics["sim.native.c_lines"] = sum(tracer.infos("sim.native.emit",
                                                     window))
    metrics["sim.native.builds"] = builds.count("build")
    metrics["sim.native.cache.hit_ratio"] = ratio(builds.count("hit"),
                                                  len(builds))
    kernels = tracer.infos("sim.codegen.kernel", window)
    metrics["sim.codegen.kernel_cache.hit_ratio"] = ratio(sum(kernels),
                                                          len(kernels))
    metrics["core.compile_cache.hit_ratio"] = ratio(
        window_counts["compile.hits"],
        window_counts["compile.hits"] + window_counts["compile.misses"])
    metrics["conformance.divergences"] = sum(o.divergences
                                             for o in window_ops)

    # Tracing overhead: after the window, rounds alternate untraced and
    # traced, so drift hits both sides alike.
    after = [op for op in ops if op.round >= workload.window_rounds]
    pairs = min(sum(1 for op in after if not op.traced),
                sum(1 for op in after if op.traced)) // len(workload.rotation)
    take = pairs * len(workload.rotation)
    plain = [op.seconds for op in after if not op.traced][:take]
    wrapped = [op.seconds for op in after if op.traced][:take]
    if take:
        metrics["trace.op_ms.untraced"] = statistics.fmean(plain) * 1e3
        metrics["trace.op_ms.traced"] = statistics.fmean(wrapped) * 1e3
        metrics["trace.overhead"] = (metrics["trace.op_ms.traced"]
                                     / metrics["trace.op_ms.untraced"] - 1.0)
    else:
        notes.append("the run ended before any untraced/traced round pair; "
                     "no tracing overhead was measured")
        for name in ("trace.op_ms.untraced", "trace.op_ms.traced",
                     "trace.overhead"):
            metrics[name] = 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program sources at {ROOT / 'src' / 'repro'}; run "
                     f"from a full checkout of the repository", 2)
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        return _fail(f"no {declared_path}; run from a full checkout of the "
                     f"repository", 2)
    declared = json.loads(declared_path.read_text())
    names = [entry["name"] for entry in declared["workloads"]]
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(names)}", 2)

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        _isolate_process(scratch)
        sys.path.insert(0, str(ROOT / "src"))
        from repro.sim.native import compiler_available, find_compiler
        if not compiler_available():
            return _fail("no C compiler (cc/gcc/clang) on PATH: the native "
                         "tier these workloads pin cannot run", 3)
        from spans import Tracer
        from workloads import WORKLOADS, SetupError

        workload = WORKLOADS[args.workload]()
        tracer = Tracer() if args.trace else None
        try:
            ops, setups, window_counts, loop_counts, digest = measure(
                workload, args.seed, args.seconds, tracer, scratch)
        except SetupError as error:
            return _fail(f"{args.workload} set-up failed: {error}", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        parent = scratch.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    problems: List[str] = []
    notes: List[str] = []
    if workload.warm_loop and (loop_counts["native.builds"]
                               or loop_counts["kernel.misses"]):
        problems.append(f"timed ops built kernels: {loop_counts}")
    if args.trace:
        metrics = per_layer(workload, ops, tracer, window_counts, problems,
                            notes)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = end_to_end(workload, ops, setups)
    units = {entry["name"]: entry["unit"] for entry in
             declared["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        return _fail(f"BENCHMARK.json names metrics this run does not "
                     f"compute: {', '.join(missing)}", 1)

    window_size = workload.window_rounds * len(workload.rotation)
    cycles = sum(op.outcome.cycles for op in ops[:window_size])
    print(f"digest workload={args.workload} seed={args.seed} "
          f"ops={window_size} cycles={cycles} sha256={digest.hexdigest()}")
    tiers = sorted({op.outcome.tier for op in ops if op.outcome.tier},
                   key=repr)
    for design, tier, reason in tiers:
        print(f"tier {design} {tier}" + (f" ({reason})" if reason else ""))
    print(f"compiler {find_compiler()}; timed-loop cache counters "
          f"{json.dumps(loop_counts, sort_keys=True)}")
    failed = [op for op in ops if not op.outcome.ok]
    for op in failed[:5]:
        print(f"failed op: {op.outcome.reason}")
    for problem in problems:
        print(f"problem: {problem}")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
