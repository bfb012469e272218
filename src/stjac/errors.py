"""Exception types shared across the package.

An ``InputError`` means the caller asked for something outside the
supported range (the CLI exits 1).  Any other ``StjacError`` means the
mathematics failed a consistency check (the CLI exits 2).
"""


class StjacError(Exception):
    """Base class for all stjac-specific errors."""


class InputError(StjacError):
    """Base class for inputs outside the supported range."""


class NotPrimeError(InputError):
    """The given modulus is not a prime number."""


class EvenOrTooSmallError(InputError):
    """The given prime must be odd and at least 3."""


class PrimeTooLargeError(InputError):
    """The given prime exceeds the supported bound ffield.P_MAX."""


class NotCoprimeError(InputError):
    """A Galois or embedding index must be coprime to the conductor."""


class BadReductionError(InputError):
    """The prime divides 2*d*c, so the reduced curve is not usable here."""


class NonIntegerResultError(StjacError):
    """A cyclotomic sum that must be a rational integer failed to reduce to one."""


class NoColumnsError(InputError):
    """No characters contribute at this prime, so there is no matrix to build."""


class NotInKernelError(InputError):
    """The vector to verify is not in the kernel of the carry matrix."""


class InconsistentAcrossPrimesError(StjacError):
    """Different sample primes produced different torus invariants."""


class RelationVerificationError(StjacError):
    """A kernel vector failed the exact character-relation check."""


class NoGenericPrimeError(InputError):
    """Could not find enough fully split primes below the search bound."""


class EvenInputError(InputError):
    """This splitting step applies to odd genus (at least 3) only."""
