"""Exception hierarchy for the nagaotree package.

Every error carries enough context (element indices, addresses, levels) to
reconstruct the violating instance.
"""


class NagaoError(Exception):
    """Base class for all package errors."""


# -- algebra ----------------------------------------------------------------

class NotAssociative(NagaoError):
    def __init__(self, a, b, c):
        self.triple = (a, b, c)
        super().__init__(f"table is not associative at triple {(a, b, c)}")


class NoIdentity(NagaoError):
    pass


class NoInverse(NagaoError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotSubgroup(NagaoError):
    pass


class BadAction(NagaoError):
    pass


# -- datum ------------------------------------------------------------------

class IndexTooSmall(NagaoError):
    pass


class RootGroupTooSmall(NagaoError):
    pass


class BadSchedule(NagaoError):
    pass


class UnknownName(NagaoError):
    pass


# -- tree / horoballs -------------------------------------------------------

class NonCanonicalAddress(NagaoError):
    pass


class NotInTruncation(NagaoError):
    pass


class LevelZeroBase(NagaoError):
    pass


class LevelTooHigh(NagaoError):
    pass


# -- transporters -----------------------------------------------------------

class NotSameHorosphere(NagaoError):
    pass


class LevelMismatch(NagaoError):
    pass


class NotInGraph(NagaoError):
    pass


# -- extension --------------------------------------------------------------

class NotLevelPreserving(NagaoError):
    pass


class NotIsomorphism(NagaoError):
    pass


class TruncationExceeded(NagaoError):
    pass


class CannotExtendInTruncation(TruncationExceeded):
    pass


class TypeMismatch(NagaoError):
    pass
