"""Conformance tooling: graph fuzzer, differential oracle, invariants,
and the serving test subjects.

This package is shipped library code, not test scaffolding: the pytest
suites, the ``python -m repro fuzz`` CLI, the CI smoke job, and the
engine's runtime debug validation (``REPRO_VALIDATE=1``) all call the
same entry points, so a failure found anywhere reproduces everywhere
from its seed.
"""

from repro.testing.generators import (
    FuzzCase,
    GeneratorConfig,
    case_rng,
    generate_cases,
    generate_graph,
)
from repro.testing.invariants import (
    assert_valid,
    check_execution,
    check_partition,
    check_placement,
    check_plan,
    check_task_order,
    validate_schedule,
)
from repro.testing.minimize import MinimizationResult, minimize_graph
from repro.testing.oracle import (
    DifferentialReport,
    ExecutorOutcome,
    run_differential,
)
from repro.testing.subjects import elementwise_chain, mixed_serving_opt
from repro.testing.fuzz import (
    FuzzFailure,
    FuzzReport,
    load_artifact,
    replay_case,
    run_campaign,
)

__all__ = [
    "FuzzCase",
    "GeneratorConfig",
    "case_rng",
    "generate_cases",
    "generate_graph",
    "assert_valid",
    "check_execution",
    "check_partition",
    "check_placement",
    "check_plan",
    "check_task_order",
    "validate_schedule",
    "MinimizationResult",
    "minimize_graph",
    "DifferentialReport",
    "ExecutorOutcome",
    "run_differential",
    "FuzzFailure",
    "FuzzReport",
    "load_artifact",
    "replay_case",
    "run_campaign",
    "elementwise_chain",
    "mixed_serving_opt",
]
