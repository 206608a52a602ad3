"""Exception hierarchy shared by all modules."""


class ClusterIntError(Exception):
    """Base class for all package errors."""


# -- polynomial kernel ------------------------------------------------------

class ZeroInput(ClusterIntError):
    """A nonzero function was required."""


class NonSquare(ClusterIntError):
    """Determinant of a non-square matrix."""


class EvaluationSingular(ClusterIntError):
    """A denominator vanished at every sampled evaluation point."""


class BadTruncation(ClusterIntError):
    """Truncation order below the minimum, or jets of different orders
    combined."""


class NotDivisible(ClusterIntError):
    """Exact polynomial division left a remainder."""


class BadVariableNames(ClusterIntError):
    """A variable list is empty, repeats a name or has a non-identifier."""


class MixedVariables(ClusterIntError):
    """Two objects over different variable sets were combined."""


class NegativePower(ClusterIntError):
    """A polynomial was raised to a negative power."""


class PolySyntaxError(ClusterIntError):
    """Text is not a polynomial in the canonical format over the variables."""


# -- Poisson layer ----------------------------------------------------------

class NotPoisson(ClusterIntError):
    """A bracket matrix is not square and skew, not linear, or not Jacobi."""


class NotVanishing(ClusterIntError):
    """The structure does not vanish at the requested base point, or an
    entry of a matrix exponentiated as a jet has a constant term."""


class NotRegular(ClusterIntError):
    """A structure entry has a pole at the requested base point."""


class DependentSystem(ClusterIntError):
    """The functions are not independent (Jacobian determinant is zero)."""


class InequalityViolated(ClusterIntError):
    """deg(mu^low) < rk(pi0)/2; signals an internal inconsistency."""


class NotLogCanonical(ClusterIntError):
    """A pair of functions fails the log-canonical bracket test."""


class CountShortfall(ClusterIntError):
    """Fewer independent functions were found than the magic number."""


class NotInvolutive(ClusterIntError):
    """A pair of selected lowest terms has a nonzero bracket under pi0."""


# -- type-A / family layers -------------------------------------------------

class NotPermutation(ClusterIntError):
    """A Weyl group element was given a tuple that is not a permutation."""


class DimensionMismatch(ClusterIntError):
    """Objects of different sizes were paired: weights of different
    ranks, a system whose function count differs from its variable
    count, matrices of incompatible shapes, or rows of different
    lengths."""


class NotReduced(ClusterIntError):
    """A word is not a reduced word of its permutation."""


class NonPolynomialStructure(ClusterIntError):
    """A pulled-back bracket failed to be polynomial."""


class WrongWord(ClusterIntError):
    """An operation requires one specific reduced word."""


class StructureViolated(ClusterIntError):
    """A Hamiltonian-flow structure hypothesis fails; carries (k, bracket)."""


class TruncationInsufficient(ClusterIntError):
    """Jet order hit the family's cap before the lowest term stabilized."""


class SizeOutOfRange(ClusterIntError):
    """A family was asked for a size or index it does not support."""


class SingularLocus(ClusterIntError):
    """A matrix, or a birational map at the input, has no inverse."""


class BadSeed(ClusterIntError):
    """A seed, mutation direction or frozen modification is malformed."""


class NotCasimir(ClusterIntError):
    """A claimed Casimir has a nonzero bracket with some coordinate."""
