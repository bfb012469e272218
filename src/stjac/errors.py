"""Exception types shared across the package."""


class StjacError(Exception):
    """Base class for all stjac-specific errors."""


class NotPrimeError(StjacError):
    """The given modulus is not a prime number."""


class EvenOrTooSmallError(StjacError):
    """The given prime must be odd and at least 3."""


class PrimeTooLargeError(StjacError):
    """The given prime exceeds the supported bound ffield.P_MAX."""


class NotCoprimeError(StjacError):
    """An embedding index must be coprime to the conductor."""


class DegenerateCharactersError(StjacError):
    """A Gauss/Jacobi identity check needs all involved characters nontrivial."""


class BadReductionError(StjacError):
    """The prime divides 2*d*c, so the reduced curve is not usable here."""


class NonIntegerResultError(StjacError):
    """A cyclotomic sum that must be a rational integer failed to reduce to one."""


class NoColumnsError(StjacError):
    """No characters contribute at this prime, so there is no matrix to build."""


class NotInKernelError(StjacError):
    """The vector to verify is not in the kernel of the carry matrix."""


class InconsistentAcrossPrimesError(StjacError):
    """Different sample primes produced different torus invariants."""


class RelationVerificationError(StjacError):
    """A kernel vector failed the exact character-relation check."""


class NoGenericPrimeError(StjacError):
    """Could not find enough fully split primes below the search bound."""


class OddInputError(StjacError):
    """This splitting step applies to even genus only."""


class EvenInputError(StjacError):
    """This splitting step applies to odd genus (at least 3) only."""
