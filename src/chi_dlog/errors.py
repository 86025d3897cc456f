"""Exception types shared across the package."""


class ChiDlogError(Exception):
    """Base class for every error raised by this package."""


class NotCoprime(ChiDlogError):
    """The proposed generator shares a factor with the modulus."""


class NotAGenerator(ChiDlogError):
    """The element does not generate the requested group."""


class NotInGroup(ChiDlogError):
    """A label does not belong to the group."""


class NoInverse(ChiDlogError):
    """No modular inverse exists (gcd with the modulus is not 1)."""


class BadLabel(ChiDlogError):
    """A basis label is outside the register's range."""


class InvariantViolation(ChiDlogError):
    """A structural check of the simulation failed; the result cannot be trusted."""


class NotBijective(ChiDlogError):
    """A permutation table is not a bijection on basis indices."""


class DegenerateNorm(ChiDlogError):
    """Probability mass collapsed below the corruption threshold."""


class LayoutMismatch(ChiDlogError):
    """A register layout or buffer does not fit the operation, or two states disagree on it."""


class NotAProductState(ChiDlogError):
    """The joint state does not factor as remaining x expected."""


class WrongRegisterKind(ChiDlogError):
    """Operation applied to a register of the wrong kind."""


class UnverifiedChi(ChiDlogError):
    """The chi handle must be verified with power 1 before use."""


class RetryLimitExceeded(ChiDlogError):
    """Preparation retry cap hit; the configuration is likely broken."""


class CapExceeded(ChiDlogError):
    """A configured resource bound (state size, factorization cap) was hit."""


class ArtifactMismatch(ChiDlogError):
    """A serialized file does not match the requested configuration."""
