"""Exception types and the tolerance table shared across the package.

Every validation failure names the violated invariant, and one that reports
numbers (a MeasuredError) keeps each number its message prints as an
attribute, so callers (and the CLI) can report exactly what went wrong
without re-deriving it. The package's tolerance table sits here too:
this layer uses the standard library only, so `import probrep.cli`, which
runs no other layer, imports no numpy.
"""

import sys

#: Cap on Hilbert-space dimension (d^2 = 64 reference outcomes at most).
DIM_CAP = 8

# ---------------------------------------------------------------------------
# Every tolerance and threshold of the package. A "contract" is a chosen limit
# that inputs and results are held to; a "derived" entry follows from others.
# Each module imports its entries from here, under the same names.
# ---------------------------------------------------------------------------

#: contract: largest |A - A^dag| entry of a state, a POVM element or a POVM's sum - I.
HERMITIAN_TOL = 1e-10
#: contract: lowest eigenvalue of a positive operator, and the slack of a projector's 0 and 1.
EIGENVALUE_TOL = 1e-10
#: contract: largest |tr rho - 1| of a density operator.
TRACE_TOL = 1e-10
#: contract: largest |norm - 1| of a ket.
NORM_TOL = 1e-12
#: contract: lowest probability accepted; entries in [PROB_FLOOR, 0) are clipped to 0.
PROB_FLOOR = -1e-12
#: contract: largest |sum - 1| of a distribution or a conditional row.
PROB_SUM_TOL = 1e-10
#: contract: largest condition number of the normalizer S that _whiten inverts.
NORMALIZER_COND_CAP = 1e12
#: contract: largest distance of a certified SIC's overlaps from 1/(d+1) (sic.sic_search,
#: born.make_reference), and sic-search's default --tol.
CERT_TOL = 1e-8
#: contract: the tighter CERT_TOL every registry fiducial meets (sic.known_fiducial).
REGISTRY_CERT_TOL = 1e-10
#: contract: projected-gradient norm at which a sic_search restart has converged.
GRAD_TOL = 1e-10
#: contract: largest SIC residual at which a sic_search restart stops.
SEARCH_RESIDUAL_TARGET = 1e-12
#: contract: largest second eigenvalue of a rank-1 reference element (born.make_reference).
RANK_ONE_TOL = 1e-10
#: contract: singular values of a transfer matrix below this times its largest are zero
#: when its informationally-complete rank is counted (born.make_reference).
GRAM_RANK_FACTOR = 1e-10
#: contract: largest max_j |q_general(j) - tr(rho F_j)| born-check passes.
BORN_CHECK_TOL = 1e-9
#: derived: c of the forward-error bound max_j |q_general(j) - tr(rho F_j)| <= c eps cond(M)
#: (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 7): the largest
#: ratio, 0.152, over random references at d = 2..8, seeds 0..399, 300 born-check trials
#: each, with cond(M) >= 1e4, rounded up. Below 1e4 the deviation is the output's own
#: rounding, at most 6.2e-14.
BORN_ERROR_CONSTANT = 0.16
#: derived: largest cond(M) of a reference's transfer matrix M (born.make_reference); the
#: bound above then keeps every accepted reference within BORN_CHECK_TOL. eps is the
#: float64 machine epsilon, the double that numpy's finfo(float).eps also holds.
CONDITION_CAP = BORN_CHECK_TOL / (BORN_ERROR_CONSTANT * sys.float_info.epsilon)
#: contract: two steering ensembles whose largest fidelity exceeds 1 minus this share a state
#: (correlations.SteeringReport.no_steering).
NO_STEERING_TOL = 1e-9
#: contract: a conditional outcome of probability at or below this is left out of its
#: steering ensemble (correlations.steering_ensembles).
SUPPORT_CUT = 1e-12


class ProbrepError(Exception):
    """Base class for all package-specific errors."""


class MeasuredError(ProbrepError):
    """An error that reports numbers. A subclass declares FIELDS, the names of its
    arguments in the order its raise sites pass them, and MESSAGE, a format string
    over those names; every field is kept as an attribute of the same name."""

    FIELDS: tuple = ()
    MESSAGE: str = ""

    def __init__(self, *args, **kwargs):
        fields = dict(zip(self.FIELDS, args), **kwargs)
        if len(fields) != len(args) + len(kwargs) or set(fields) != set(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.FIELDS)}")
        vars(self).update(fields)
        super().__init__(self.MESSAGE.format(**fields))


class InvalidDimension(ProbrepError):
    """Hilbert-space dimension outside the supported range."""


class NotHermitian(MeasuredError):
    FIELDS = ("deviation", "what")
    MESSAGE = "{what} is not Hermitian: max |M - M^dag| = {deviation:.3e}"


class NotPositive(MeasuredError):
    FIELDS = ("min_eigenvalue", "what")
    MESSAGE = "{what} is not positive semidefinite: min eigenvalue = {min_eigenvalue:.3e}"


class TraceNotOne(MeasuredError):
    FIELDS = ("trace", "tolerance")
    MESSAGE = "trace = {trace!r}, expected 1 within {tolerance}"


class SumNotIdentity(MeasuredError):
    FIELDS = ("deviation",)
    MESSAGE = "POVM elements do not sum to identity: max deviation = {deviation:.3e}"


class DimensionOverflow(MeasuredError):
    FIELDS = ("dim", "cap")
    MESSAGE = "product dimension {dim} exceeds the dimension cap {cap}"


class DimensionMismatch(ProbrepError):
    """Operands live in different Hilbert-space dimensions."""


class BadRank(ProbrepError):
    """Requested rank outside 1..d."""


class SingularNormalizer(MeasuredError):
    FIELDS = ("condition_number",)
    MESSAGE = "POVM normalizer is numerically singular: condition number = {condition_number:.3e}"


class NoConvergence(ProbrepError):
    """No restart of the fiducial search reached the gradient-norm target."""


class NotRankOne(MeasuredError):
    FIELDS = ("index", "second_eigenvalue")
    MESSAGE = ("reference element {index} is not rank 1: "
               "second eigenvalue = {second_eigenvalue:.3e}")


class NotInformationallyComplete(MeasuredError):
    FIELDS = ("gram_rank", "needed")
    MESSAGE = "reference elements span only a rank-{gram_rank} operator subspace, need {needed}"


class IllConditionedReference(MeasuredError):
    FIELDS = ("condition_number", "cap")
    MESSAGE = ("reference transfer matrix is ill-conditioned: condition number "
               "{condition_number:.3e}, limit {cap:g}")


class WrongOutcomeCount(MeasuredError):
    FIELDS = ("got", "expected")
    MESSAGE = "reference measurement needs {expected} outcomes, got {got}"


class NotAValidState(ProbrepError):
    """Probability vector lies outside the quantum state space."""


class ShapeMismatch(ProbrepError):
    """Probability inputs are not shaped for the given reference."""


class TrialFailed(MeasuredError):
    """A random trial of a probability-rule check failed its validation.

    The error the trial raised is the cause (``__cause__``), and ``cause`` too.
    """

    FIELDS = ("trial", "seed", "cause")
    MESSAGE = "trial {trial} (seed {seed}): {cause}"


class WrongArity(ProbrepError):
    """CHSH needs two settings per side and two outcomes per measurement."""


class NotBipartite(ProbrepError):
    """State does not factor over the requested subsystem split."""


class WrongDimension(ProbrepError):
    """Measurement families have the wrong local dimension."""
