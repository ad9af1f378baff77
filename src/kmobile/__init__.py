"""Simulator and analysis toolkit for the k-mobile-server problem.

k identical servers move through Euclidean space with a per-step speed
limit and answer a stream of requests; serving costs distance, moving
costs distance times a weight D.  The package provides the online
algorithms (UMS, WMS and a matching-only baseline), the simulated
guidance algorithms they follow, adversarial instance generators with
offline certificates, a discretized offline optimum, and verifiers for
the per-step potential and containment inequalities the algorithms are
designed to satisfy.
"""

from kmobile.core import (
    ContractViolationError,
    InputError,
    KMobileError,
    Matching,
    ProblemParams,
    ResourceBudgetError,
    Trace,
    min_weight_matching,
    move_toward,
    read_trace,
    validate_trace,
    write_trace,
)

__all__ = [
    "ContractViolationError",
    "InputError",
    "KMobileError",
    "Matching",
    "ProblemParams",
    "ResourceBudgetError",
    "Trace",
    "min_weight_matching",
    "move_toward",
    "read_trace",
    "validate_trace",
    "write_trace",
]
