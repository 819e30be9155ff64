"""What each benchmark metric means and why, keyed by metric name: the
reasoning ``BENCHMARK.json`` has no room for.  ``BENCHMARK.json`` alone
names the workloads and metrics (with units, direction and bounds);
``run.py`` prints what it names.

Op timings are read per *kind* of op (a design, or a conformance program
size class) and combined over a *round*, one op of each kind, so every
run weighs the kinds alike.  The host this benchmark was built on is
shared: for seconds to minutes at a time other tenants slow most ops by
up to 1.8x, and the share of a run they take changes from run to run.  A
median (or a mean) of op time then flips or drifts with that share.  Even
in a slow phase a few ops run nearly uncontended: on fuzz-small, a fully
slow run against a quiet one read 1.21x at the 5th percentile of op time,
1.56x at the 25th and 1.8x at the median.  Each kind's time is therefore
its 5th percentile of op time (with ten or fewer ops of a kind, about its
fastest op).
"""

#: Seeds the benchmark was tuned on, and the held-out seeds (never used
#: while tuning) of its ten-runs-per-workload steadiness checks.
TUNING_SEEDS = (1, 3, 7, *range(11, 16), *range(21, 26), *range(101, 111),
                *range(301, 306), *range(401, 406), *range(411, 416),
                *range(421, 426), *range(431, 436), *range(501, 521))
HELD_OUT_SEEDS = tuple(range(601, 621))

#: Checked transactions in one op of each workload.
TRANSACTIONS_PER_OP = {
    "fuzz-small": "2000 (one stream)",
    "conformance": "12 golden-checked (the run_conformance default), "
                   "driven through every engine way",
}

#: Conformance size classes: the node-count deciles of ``generate_spec``
#: over seeds 0-4999, and their shares of that draw, both computed when a
#: run starts.  Node counts are whole numbers, so the shares are not 10%
#: each; at the commit that added this benchmark the class upper bounds
#: were 4, 6, 8, 9, 11, 13, 15, 18, 22 nodes and the shares, smallest
#: class first:
CONFORMANCE_CLASS_SHARES = (0.1094, 0.1262, 0.1126, 0.0536, 0.1104, 0.1064,
                            0.0944, 0.1038, 0.0988, 0.0844)

#: End-to-end metric -> definition.  Every workload reports every one.
#: Round time is the sum over kinds of each kind's 5th-percentile op time
#: (conformance weighs each size class by its share of the generator's
#: draw); round work is the sum over kinds of each kind's mean checked
#: work per op.  A "seed" is one independently seeded stimulus stream
#: or one generated program (conformance).
END_TO_END = {
    "checked_tx_per_s": "golden-checked transactions per round / round time",
    "op_ms.p5":
        "round time / kinds per round: each kind's 5th-percentile op "
        "time, averaged over the kinds.  The median and p90 that the "
        "issue asked for flip between the host's fast and slow phases "
        "(5.3 vs 8.5 ms on fuzz-small) and are not reported",
    "time_to_first_result_s":
        "op_ms.p5 in seconds: every op ends at a checked verdict; on "
        "conformance each op compiles and builds a new program's kernels "
        "from source, on fuzz-small it reuses a warm harness (its cold "
        "path is setup_s, whose median over the run's set-ups spread 0.25 "
        "over ten seeds, too wide for a metric whose spread is gated)",
    "seeds_per_s":
        "checked stimulus seeds (or generated programs) per round / round "
        "time",
    "setup_s":
        "median of 15 set-ups spread evenly over the run, each from empty "
        "caches and a fresh store and ending at every design's first "
        "checked verdict",
    "peak_rss_mb": "peak resident set of the process",
    "pass_rate":
        "passed ops / attempted ops (1 - error_rate; never 0, unlike "
        "error_rate); an op fails on any golden mismatch or conformance "
        "divergence, on AddMult leaving the native tier, or on an "
        "exception",
}

# Per-layer metric -> (end-to-end metric it should move, on which
# workloads, where it should stay flat).  Self times cover every traced
# op; counts cover the digest window only, so they repeat exactly for a
# seed.  A stage's time lands on the session entry point that ran it:
# run_conformance calls ``session.calyx`` alone, so there
# ``core.calyx_s`` holds lower too and type checking runs outside any
# session span, so no workload times parse, check and lower apart (they
# read about 0).  A hit ratio with no lookups reads 0.  Every ``_s``
# metric also has a ``.share`` of traced op wall time, reasoned alike.
_HARNESS = ("checked_tx_per_s, op_ms.p5", "fuzz-small", "conformance")
_ENGINE = ("checked_tx_per_s, seeds_per_s",
           "fuzz-small (~9% share), conformance (~6%, interpreter ways)",
           "setup_s")
_NATIVE = ("seeds_per_s, time_to_first_result_s, setup_s", "conformance",
           "checked_tx_per_s on fuzz-small")
_CODEGEN = ("seeds_per_s", "conformance", "fuzz-small")
_CORE = ("seeds_per_s, time_to_first_result_s (~3% share caps any "
         "front-end gain)", "conformance", "fuzz-small")
_CONFORMANCE = ("seeds_per_s", "conformance", "fuzz-small")
_TRACE = ("none: the cost of the traced run itself", "all", "all")

PER_LAYER = {
    "harness.stimulus_s": _HARNESS,
    "harness.self_s": _HARNESS,
    "harness.transactions": _HARNESS,
    "golden.check_s": _HARNESS,
    "golden.mismatches": _HARNESS,
    "sim.engine.busy_s": _ENGINE,
    "sim.engine.calls": _ENGINE,
    "sim.engine.cycles": _ENGINE,
    "sim.engine.cycles_per_busy_s": _ENGINE,
    "sim.engine.tier.{native,native_lanes,compiled,scheduled,fixpoint}":
        _ENGINE,
    "sim.native.emit_s": _NATIVE,
    "sim.native.cc_load_s": _NATIVE,
    "sim.native.c_lines": _NATIVE,
    "sim.native.builds": _NATIVE,
    "sim.native.cache.hit_ratio": _NATIVE,
    "sim.codegen.kernel_s": _CODEGEN,
    "sim.codegen.kernel_cache.hit_ratio": _CODEGEN,
    "core.{parse,check,lower,calyx,verilog}_s": _CORE,
    "core.compile_cache.hit_ratio": _CORE,
    "conformance.generate_s": _CONFORMANCE,
    "conformance.self_s": _CONFORMANCE,
    "conformance.divergences": _CONFORMANCE,
    "op.unattributed_s": _TRACE,
    "trace.overhead": _TRACE,
    "trace.op_ms.untraced": _TRACE,
    "trace.op_ms.traced": _TRACE,
}
