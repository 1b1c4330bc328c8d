"""Exception types shared across the package."""


class DesingError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(DesingError):
    """Lexical or syntactic error in the vector-field DSL, tagged with a position."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NotDivisible(DesingError):
    """Exact polynomial division left a remainder.

    During desingularization this signals inconsistent blow-up weights or a
    field that is not quasi-homogeneous for the weights supplied.
    """


class NotQuasiHomogeneous(DesingError):
    """No positive weight triple makes the field quasi-homogeneous."""


class AmbiguousWeights(DesingError):
    """The weight constraints admit a solution space of dimension >= 2."""

    def __init__(self, generators, suggestion=None):
        self.generators = [tuple(g) for g in generators]
        self.suggestion = suggestion
        msg = "weight constraints underdetermine (alpha, beta, k); generators: " + ", ".join(
            str(g) for g in self.generators
        )
        if suggestion is not None:
            msg += f"; minimal positive choice {suggestion}"
        super().__init__(msg)


class NameCollision(DesingError, ValueError):
    """A field variable or parameter reuses a name the blow-up introduces
    (a chart's radial or angular variable, or a quotient-ring variable)."""


class OutOfDomain(DesingError):
    """A chart transition was requested outside the overlap domain."""


class SingularAngle(DesingError):
    """A bridge map was evaluated at an angle where it is not defined."""


class UnboundParameter(DesingError):
    """A symbolic parameter was left without a rational binding."""


class DegenerateChart(DesingError):
    """The angular component vanishes identically on the divisor.

    The divisor then carries a whole line of equilibria instead of isolated
    points; callers that build reports catch this and record the chart as
    degenerate.
    """

    def __init__(self, chart):
        super().__init__(f"{chart}: angular component vanishes identically on the divisor")
        self.chart = chart


class NonFiniteField(DesingError):
    """The field evaluates to a non-finite vector at the initial point."""
