"""Exception types shared across the package.

Every validation failure names the violated invariant and carries the
measured deviation, so callers (and the CLI) can report exactly what went
wrong without re-deriving it.
"""


class ProbrepError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimension(ProbrepError):
    """Hilbert-space dimension outside the supported range."""


class NotHermitian(ProbrepError):
    def __init__(self, deviation: float, what: str = "matrix"):
        self.deviation = float(deviation)
        super().__init__(f"{what} is not Hermitian: max |M - M^dag| = {deviation:.3e}")


class NotPositive(ProbrepError):
    def __init__(self, min_eigenvalue: float, what: str = "matrix"):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"{what} is not positive semidefinite: min eigenvalue = {min_eigenvalue:.3e}"
        )


class TraceNotOne(ProbrepError):
    def __init__(self, trace: float, tolerance: float):
        self.trace = float(trace)
        super().__init__(f"trace = {trace!r}, expected 1 within {tolerance}")


class SumNotIdentity(ProbrepError):
    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(f"POVM elements do not sum to identity: max deviation = {deviation:.3e}")


class DimensionOverflow(ProbrepError):
    def __init__(self, dim: int, cap: int):
        self.dim = dim
        self.cap = cap
        super().__init__(f"product dimension {dim} exceeds the dimension cap {cap}")


class DimensionMismatch(ProbrepError):
    """Operands live in different Hilbert-space dimensions."""


class BadRank(ProbrepError):
    """Requested rank outside 1..d."""


class SingularNormalizer(ProbrepError):
    def __init__(self, condition_number: float):
        self.condition_number = float(condition_number)
        super().__init__(
            f"POVM normalizer is numerically singular: condition number = {condition_number:.3e}"
        )


class NoConvergence(ProbrepError):
    """No restart of the fiducial search reached the gradient-norm target."""


class NotRankOne(ProbrepError):
    def __init__(self, index: int, second_eigenvalue: float):
        self.index = index
        self.second_eigenvalue = float(second_eigenvalue)
        super().__init__(
            f"reference element {index} is not rank 1: "
            f"second eigenvalue = {second_eigenvalue:.3e}"
        )


class NotInformationallyComplete(ProbrepError):
    def __init__(self, gram_rank: int, needed: int):
        self.gram_rank = gram_rank
        self.needed = needed
        super().__init__(
            f"reference elements span only a rank-{gram_rank} operator subspace, "
            f"need {needed}"
        )


class IllConditionedReference(ProbrepError):
    def __init__(self, condition_number: float, cap: float):
        self.condition_number = float(condition_number)
        super().__init__(
            f"reference transfer matrix is ill-conditioned: condition number "
            f"{condition_number:.3e}, limit {cap:g}"
        )


class WrongOutcomeCount(ProbrepError):
    def __init__(self, got: int, expected: int):
        self.got = got
        self.expected = expected
        super().__init__(f"reference measurement needs {expected} outcomes, got {got}")


class NotAValidState(ProbrepError):
    """Probability vector lies outside the quantum state space."""


class ShapeMismatch(ProbrepError):
    """Probability inputs are not shaped for the given reference."""


class TrialFailed(ProbrepError):
    """A random trial of a probability-rule check failed its validation.

    The error the trial raised is the cause (``__cause__``).
    """

    def __init__(self, trial: int, seed: int, cause: Exception):
        self.trial = trial
        self.seed = seed
        super().__init__(f"trial {trial} (seed {seed}): {cause}")


class WrongArity(ProbrepError):
    """CHSH needs two settings per side and two outcomes per measurement."""


class NotBipartite(ProbrepError):
    """State does not factor over the requested subsystem split."""


class WrongDimension(ProbrepError):
    """Measurement families have the wrong local dimension."""
