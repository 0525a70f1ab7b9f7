"""Exception types shared across the package."""


class PreorderBcaError(Exception):
    """Base class for all package errors."""


class InvalidRelation(PreorderBcaError, ValueError):
    """A ground set, relation or total preorder failed its construction
    checks (size, distinct labels, row bits, reflexivity, block partition)."""


class GroundMismatch(PreorderBcaError):
    """Two relations were combined but live on different ground sets."""


class EmptySubset(PreorderBcaError):
    """An operation that needs a nonempty menu received the empty set."""


class EmptySequence(PreorderBcaError):
    """An operation that needs a nonempty sequence received an empty one."""


class NotTotal(PreorderBcaError):
    """A total preorder was required; carries one incomparable pair."""

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"relation is not total: elements {witness[0]} and "
                         f"{witness[1]} are incomparable")


class NotACompletion(PreorderBcaError):
    """The candidate does not complete the base relation."""


class TooLarge(PreorderBcaError):
    """A size guard rejected the input before an infeasible sweep started."""


class BadParameter(PreorderBcaError, ValueError):
    """An operation received a parameter outside its valid range or set."""


class DocumentError(PreorderBcaError):
    """A relation document failed to parse or violated its schema."""


class ViolationError(PreorderBcaError):
    """Validation failed; carries every transitivity witness.

    Each witness is ``("transitivity", i, j, k)``: i >= j and j >= k hold
    while i >= k does not.
    """

    def __init__(self, witnesses):
        self.witnesses = tuple(witnesses)
        head = ", ".join(repr(w) for w in self.witnesses[:3])
        more = "" if len(self.witnesses) <= 3 else f" (+{len(self.witnesses) - 3} more)"
        super().__init__(f"not a preorder: {head}{more}")
