"""The generic cycle-accurate test harness of Section 7.1."""

from .driver import (
    CycleAccurateHarness,
    HarnessReport,
    LatencyAudit,
    ResultColumns,
    StimulusColumns,
    Transaction,
    TransactionResult,
    audit_latency,
    harness_for,
)
from .fuzz import (
    DifferentialReport,
    differential_test,
    fuzz_against_golden,
    random_columns,
    random_transactions,
)
from .spec import InterfaceSpec, PortTiming, spec_from_signature

__all__ = [
    "CycleAccurateHarness", "HarnessReport", "LatencyAudit", "ResultColumns",
    "StimulusColumns", "Transaction", "TransactionResult", "audit_latency",
    "harness_for",
    "DifferentialReport", "differential_test", "fuzz_against_golden",
    "random_columns", "random_transactions",
    "InterfaceSpec", "PortTiming", "spec_from_signature",
]
