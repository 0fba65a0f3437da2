"""Exception hierarchy shared across the package."""


class SciError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SciError):
    pass


class ZeroNorm(SciError):
    pass


class KinkTooClose(SciError):
    """A hinge argument lies too close to the max(0, .) kink for finite differences."""


class Diverged(SciError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss or parameters at epoch {epoch}")
        self.epoch = epoch


class DegenerateTriplet(SciError):
    pass


class TooFewPoints(SciError):
    pass


class BadSubspaceSplit(SciError):
    pass


class CorruptCode(SciError):
    pass


class DuplicateItem(SciError):
    pass


class CorruptFile(SciError):
    def __init__(self, offset: int, reason: str = ""):
        super().__init__(f"corrupt file at byte {offset}: {reason}")
        self.offset = offset


class CorruptIndex(CorruptFile):
    """A corrupt .scix index file."""


class DuplicateQrel(SciError):
    def __init__(self, line: int):
        super().__init__(f"duplicate (query, item) pair at line {line}")
        self.line = line


class ParseError(SciError):
    def __init__(self, line: int, reason: str = ""):
        super().__init__(f"parse error at line {line}: {reason}")
        self.line = line


class MismatchedCorpora(SciError):
    pass
