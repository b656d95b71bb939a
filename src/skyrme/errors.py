"""Exception hierarchy.

Every error class carries a distinct process exit code so the CLI can map
failures to grep-stable one-line diagnostics.  Codes 10 and 11 are retired
and are not reused: 10 was the partial-bracket domain of an earlier f4,
11 a group with no covering-group lift, which every supported group has.
"""


class SkyrmeError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(SkyrmeError):
    """Bad CLI arguments or config file."""

    exit_code = 2


class UnsupportedAlgebraError(SkyrmeError):
    """Requested family/rank outside the supported table."""

    exit_code = 3


class LogRangeError(SkyrmeError):
    """Group element outside the principal branch of the logarithm,
    or a lattice field too rough for unambiguous link logs / lifts.

    Raised by a range check, it says where: `value` is the worst
    |lambda - 1| (None when a log left the algebra's span) and `mask` marks
    every failing element of the batch.
    From link logs, `axis` (1-based, as in the message) and `site` name the
    worst link x -> x + e_axis, and `mask` has shape (3,) + lattice dims,
    indexed by axis - 1.  From the 1-d invariant's lift, `axis`, `site`
    and `value` name the refused link of the generator line through the
    base site, with no mask.  From the group check, `site` is the batch
    index of the worst matrix and `value` its deviation, with no mask.
    Errors from other checks leave these None.
    """

    exit_code = 4

    def __init__(self, message, *, axis=None, site=None, value=None, mask=None):
        super().__init__(message)
        self.axis = axis
        self.site = site
        self.value = value
        self.mask = mask


class FlatnessError(SkyrmeError):
    """Connection fails the flatness gate where a flat one is required.

    Raised by the developing-map gate, it says where: `corner` is the
    failing cube's corner site, `vertex` its cover vertex (None for a
    single cube), `residual` its curvature residual and `gate` the bound
    it exceeded.  Errors from other checks leave these None.
    """

    exit_code = 5

    def __init__(self, message, *, vertex=None, corner=None, residual=None, gate=None):
        super().__init__(message)
        self.vertex = vertex
        self.corner = corner
        self.residual = residual
        self.gate = gate


class AtlasError(SkyrmeError):
    """Developing-map atlas inconsistent (link constancy violated).

    Raised by the constancy gate, it says where: `site` and `axis`
    (1-based, as in the message) name the worst residual link
    x -> x + e_axis of the tree gauge, and `deviation` is its distance
    from 1, or on the seam from the base seam link.  Errors from other
    checks leave these None.
    """

    exit_code = 6

    def __init__(self, message, *, site=None, axis=None, deviation=None):
        super().__init__(message)
        self.site = site
        self.axis = axis
        self.deviation = deviation


class HolonomyMismatchError(SkyrmeError):
    """Two connections do not have the same holonomy representation."""

    exit_code = 7


class CertificationError(SkyrmeError):
    """Non-integral Killing trace or normalizing-constant table mismatch."""

    exit_code = 8


class SectorError(SkyrmeError):
    """Sector cannot be resolved or drifted during a run."""

    exit_code = 9


class FileFormatError(SkyrmeError):
    """Malformed SKYF/SKYA file."""

    exit_code = 12


class LineSearchError(SkyrmeError):
    """Backtracking found no acceptable step while the projected gradient
    was still above grad_tol.  The message counts the Armijo and the
    log-range rejections.  A descent whose projected gradient vanishes
    because every remaining direction would push a link past the log-range
    barrier does not raise this; it ends with termination "barrier"."""

    exit_code = 13


class GeneratorError(SkyrmeError):
    """Test-field generator precondition violated (e.g. axis does not close)."""

    exit_code = 14


class ConstructionError(SkyrmeError):
    """Internal consistency failure while building an algebra; fatal."""

    exit_code = 15
