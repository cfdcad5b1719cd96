"""Exception types shared across the engine."""


class CubalError(Exception):
    """Base class for all engine errors."""


class MalformedModel(CubalError):
    """A table entry references an identifier that does not exist."""


class NotComposable(CubalError):
    """A composition was requested for a pair that does not meet face to face."""

    def __init__(self, direction, left, right):
        self.direction = direction
        self.left = left
        self.right = right
        super().__init__(f"not composable (+{direction}): {left!r} then {right!r}")


class NotAGroupoid(CubalError):
    """An inverse was requested in a model of kind 'category'."""


class FaceCompositionUndefined(CubalError):
    """A cube composition needs a square composite the model does not define."""


class NoThinFiller(CubalError):
    """No thin square matches the requested boundary."""


class MultipleThinFillers(CubalError):
    """More than one thin square matches a boundary; the thin structure is broken."""

    def __init__(self, shell, candidates):
        self.shell = shell
        self.candidates = tuple(candidates)
        super().__init__(f"shell {shell} has thin fillers {sorted(self.candidates)}")


# --- pasting DSL errors ---------------------------------------------------


class DslError(CubalError):
    """Base class for pasting-expression errors."""


class ParseError(DslError):
    def __init__(self, message, line, col):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, col {col})")


class RaggedArray(DslError):
    """Rows of an array literal have different lengths."""


class UnboundName(DslError):
    """An expression references a name missing from the environment."""


class SeamMismatch(DslError):
    """Two adjacent cells of an array disagree on their shared edge."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"seam mismatch at {position}: expected {expected!r}, found {found!r}"
        )


class UnsolvableSlot(DslError):
    """No thin square fits a placeholder slot."""

    def __init__(self, position, detail=""):
        self.position = position
        msg = f"no thin square fits slot at {position}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class AmbiguousSlot(DslError):
    """Several thin squares fit a placeholder slot; lists every candidate."""

    def __init__(self, position, candidates):
        self.position = position
        self.candidates = tuple(sorted(candidates))
        super().__init__(f"slot at {position} admits {list(self.candidates)}")


class StepMismatch(DslError):
    """Two consecutive steps of a derivation evaluate to different squares."""

    def __init__(self, index, left_value, right_value):
        self.index = index
        self.left_value = left_value
        self.right_value = right_value
        super().__init__(
            f"step {index} -> {index + 1}: {left_value!r} != {right_value!r}"
        )


# --- colimit errors -------------------------------------------------------


class InputMismatch(CubalError):
    """Parallel morphisms do not share source and target."""


class NotCoequalised(CubalError):
    """The test morphism does not equalise the given pair."""


class WellDefinednessFailure(CubalError):
    """A quotient class carries inconsistent images; indicates a closure bug."""
