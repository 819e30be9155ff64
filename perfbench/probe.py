"""The benchmark's one window onto program state it does not get back from
the calls it times: which engine tier ran, the cache counters, and the
cache locations.  Everything that reaches past the entry points the
workloads call lives here, so an API change touches one file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.queries import clear_compile_cache, compile_cache_stats
from repro.sim import (
    clear_kernel_cache,
    clear_native_cache,
    kernel_cache_stats,
    native_cache_stats,
)

#: Every tier the engine can run a batch on, fastest first.
TIERS = ("native", "native_lanes", "compiled", "scheduled", "fixpoint")


def isolate_caches(root: Path) -> None:
    """Point the artifact store and the native ``.so`` cache at fresh
    directories under ``root`` and drop every in-process compile, kernel
    and native cache, so nothing left by an earlier op, run or user is
    reused."""
    os.environ["REPRO_STORE_DIR"] = str(root / "store")
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(root / "native")
    from repro.core.store import reset_default_store
    reset_default_store()
    clear_compile_cache()
    clear_kernel_cache()
    clear_native_cache()


def counters() -> Dict[str, int]:
    """Process-wide cache counters, flattened."""
    native = native_cache_stats()
    kernel = kernel_cache_stats()
    compile_ = compile_cache_stats()
    return {
        "native.hits": native["hits"],
        "native.builds": native["misses"] - native["disk_hits"],
        "native.disk_hits": native["disk_hits"],
        "kernel.hits": kernel["hits"],
        "kernel.misses": kernel["misses"],
        "compile.hits": compile_["hits"],
        "compile.misses": compile_["misses"],
    }


def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def engine_cycles(harness) -> int:
    """Cycles the harness's engine ran in its last run, by its own
    counter."""
    return harness._simulator.cycle


def harness_tier(harness) -> Tuple[str, Optional[str]]:
    """``(tier, fallback reason)`` of the harness's last run."""
    simulator = harness._simulator
    if simulator.uses_native():
        return "native", None
    return _python_tier(simulator), simulator.native_fallback_reason


def engine_tier(engine, entry: str) -> str:
    """The tier a finished ``ScheduledEngine`` run entry executed on."""
    if entry in ("run_columns",):
        return "native"
    if entry in ("run_lane_columns",):
        return "native_lanes"
    if entry == "run_lanes" and engine.uses_native_lanes():
        return "native_lanes"
    if entry == "run_batch" and engine.uses_native():
        return "native"
    return _python_tier(engine)


def _python_tier(engine) -> str:
    if engine.uses_kernel():
        return "compiled"
    if engine.scheduled_everywhere():
        return "scheduled"
    return "fixpoint"
