"""Shared exception types.

Four failure classes are kept distinct so callers can tell malformed data
apart from legitimate "no solution" answers:

* StructuralError: the input object itself is malformed (dimension mismatch,
  bad domain tag, value out of range, a negative LP right-hand side).
* PreconditionError: the object is well formed but violates a documented
  precondition of the operation (infeasible fractional point, set that is
  not a basis, missing grid multiplier).
* SizeGuardError: the input is too large for an exhaustive routine.
* InfeasibleMatchingError: no perfect matching avoiding the forbidden cells.

A linear program's right-hand side is nonnegative, so x = 0 is feasible and
infeasibility is not an answer the solver gives. Unboundedness is reported
through LPSolution.status, not through an exception, because it is an
ordinary answer for a solver.
"""


class StructuralError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class SizeGuardError(ValueError):
    pass


class InfeasibleMatchingError(RuntimeError):
    pass
