"""Exception hierarchy shared by all hadl modules.

Everything derives from HadlError so callers (notably the CLI) can catch one
base class; each error also subclasses ValueError because every failure here
is ultimately a bad argument or bad input file. A class stands for one
contract a caller could act on, not for one raise site.
"""


class HadlError(ValueError):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(HadlError):
    """Array shapes are inconsistent with each other or with the declared
    lookback/horizon: a signal too short or of odd length for the Haar pairs."""


class InvalidConfigError(HadlError):
    """A config value cannot be parsed, is out of range or names nothing
    known (a key, split convention, synthetic kind, head kind or ablation
    axis), or a robustness sweep lacks the zero eta; names the key or value."""


class ParseError(HadlError):
    """A file's text is not what it should be: not UTF-8, a CSV that is not a
    table of finite numbers (a malformed, empty or non-finite cell, no data
    rows, other than the expected channels), or a malformed config line or
    a key listed twice; names the file and where."""


class SegmentTooShortError(HadlError):
    """Segment or window set too short: no window fits lookback + horizon."""


class ConstantChannelError(HadlError):
    """A channel has zero variance on the training segment; cannot z-score."""


class CorruptCheckpointError(HadlError):
    """Checkpoint meta fields have the wrong JSON type, or its arrays are
    missing, misnamed, misshapen, not float64 or not finite for the
    lookback, horizon and head its meta declares."""


class DivergedError(HadlError):
    """Training produced a non-finite train loss or validation MSE."""


class WorkerDiedError(HadlError):
    """A pool worker ended abruptly, say killed for memory, mid-grid."""


class ZeroBaselineError(HadlError):
    """Noise-free MSE is zero or negative; the NRR ratio is undefined."""


class EmptyInputError(HadlError):
    """Metric input is empty."""
