"""Exception types shared across the package: one class for each thing a
caller can do about a failure.  Fix an argument (:class:`BadParameter`, whose
two subclasses carry witnesses), fix a document (:class:`DocumentError`),
raise a guard (:class:`TooLarge`), or catch everything
(:class:`PreorderBcaError`)."""


class PreorderBcaError(Exception):
    """Base class for all package errors."""


class BadParameter(PreorderBcaError, ValueError):
    """An argument has the wrong type or lies outside its valid range or set:
    a ground set, relation or total preorder that failed its construction
    checks, relations on different ground sets, an empty menu or sequence, a
    candidate that does not complete its base, or an out-of-range value."""


class NotTotal(BadParameter):
    """A total preorder was required; carries one incomparable pair."""

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"relation is not total: elements {witness[0]} and "
                         f"{witness[1]} are incomparable")


class TooLarge(PreorderBcaError):
    """A size guard rejected the input before an infeasible sweep started."""


class DocumentError(PreorderBcaError):
    """A relation document failed to parse or violated its schema."""


class ViolationError(BadParameter):
    """Validation failed; carries every transitivity witness.

    Each witness is ``("transitivity", i, j, k)``: i >= j and j >= k hold
    while i >= k does not.
    """

    def __init__(self, witnesses):
        self.witnesses = tuple(witnesses)
        head = ", ".join(repr(w) for w in self.witnesses[:3])
        more = "" if len(self.witnesses) <= 3 else f" (+{len(self.witnesses) - 3} more)"
        super().__init__(f"not a preorder: {head}{more}")
