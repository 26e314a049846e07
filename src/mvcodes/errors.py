"""Exception types shared across the package."""

__all__ = [
    "AlgebraError", "DuplicateWord", "EquivalenceBroken", "InvalidSize", "LengthMismatch", "MalformedTable",
    "NoEmbeddingFound", "NonSquare", "NotAPoset", "NotAnAlgebra", "NotAnOrderIso", "NotBounded", "NotCommutative",
    "ParseError", "SizeMismatch", "TooFewWords",
]


class AlgebraError(Exception):
    """Base class for every domain error raised by this package."""


class ParseError(AlgebraError):
    """A text input does not follow the documented file format."""


class MalformedTable(AlgebraError):
    """A Cayley table or unary map is not square / not closed over the carrier."""


class NotAnAlgebra(AlgebraError):
    """An operation required a verified algebra and verification failed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotBounded(NotAnAlgebra):
    """A BCK table has no greatest element behaving as the designated one."""


class NotCommutative(NotAnAlgebra):
    """A BCK table fails the commutativity identity y*(y*x) = x*(x*y)."""


class NotAPoset(AlgebraError):
    """A derived order relation breaks reflexivity, antisymmetry or transitivity."""

    def __init__(self, law, witness):
        super().__init__(f"{law} fails at {witness}")
        self.law = law
        self.witness = witness


class EquivalenceBroken(AlgebraError):
    """The four order characterisations disagree (input is not an MV algebra)."""


class LengthMismatch(AlgebraError):
    """Two codewords of different lengths were compared."""


class DuplicateWord(AlgebraError):
    """A block code was constructed with a repeated codeword."""


class TooFewWords(AlgebraError):
    """An operation needs at least two codewords."""


class InvalidSize(AlgebraError):
    """A carrier or search bound is out of the supported range."""


class SizeMismatch(AlgebraError):
    """Two structures of different cardinality were compared."""


class NotAnOrderIso(AlgebraError):
    """A relabelling map is not a bijection on the carrier."""


class NonSquare(AlgebraError):
    """A code matrix operation received a non-square code."""


class NoEmbeddingFound(AlgebraError):
    """The embedding search was exhausted without a host."""

    def __init__(self, max_order):
        super().__init__(f"no embedding found up to order {max_order}")
        self.max_order = max_order
