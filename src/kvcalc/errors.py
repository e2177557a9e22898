"""Exception hierarchy shared by all calculators.

UsageError maps to CLI exit code 1 (bad input), InvariantViolation to exit
code 2 (a claimed identity failed or a datum is internally inconsistent).
"""


class KVError(Exception):
    pass


class UsageError(KVError):
    pass


class SizeGuardError(UsageError):
    pass


class InvariantViolation(KVError):
    pass


class UniquenessError(InvariantViolation):
    """A minimum that is asserted unique turned out not to be."""
