"""Exception types shared across the toolkit."""


class PTHamilError(Exception):
    """Base class for all toolkit errors."""


class ParseError(PTHamilError):
    """Input file or configuration could not be parsed."""


class ConvergenceFailure(PTHamilError):
    """The underlying eigenvalue iteration failed to converge."""


class NonDiagonalizable(PTHamilError):
    """Eigenvector matrix is numerically singular: at or near an exceptional point."""

    def __init__(self, condition, threshold):
        self.condition = float(condition)
        self.threshold = float(threshold)
        super().__init__(
            f"eigenvector matrix condition number {self.condition:.3e} exceeds "
            f"{self.threshold:.3e}: matrix is at or near an exceptional point"
        )


class UnpairedComplexEigenvalue(PTHamilError):
    """A complex eigenvalue has no conjugate partner, so no antilinear symmetry exists."""


class NotPTEigenstate(PTHamilError):
    """State is not an eigenstate of the antilinear operator."""


class InvalidFrame(PTHamilError):
    """Parity / time-reversal pair violates its structural constraints."""


class NotRealSpectrum(PTHamilError):
    """Operation requires an all-real spectrum."""


class NotRealPhase(PTHamilError):
    """Closed forms requested outside the real-eigenvalue parameter region."""


class NotCommuting(PTHamilError):
    """Parity does not intertwine the Hamiltonian with its adjoint."""


class CoefficientOverflow(PTHamilError):
    """Recurrence coefficient left the floating-point range."""

    def __init__(self, n, value):
        self.n = int(n)
        super().__init__(
            f"coefficient magnitude ~{value:.3e} exceeded the supported range at n={self.n}"
        )
