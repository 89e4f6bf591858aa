"""Exception hierarchy shared by all hadl modules.

Everything derives from HadlError so callers (notably the CLI) can catch one
base class; each error also subclasses ValueError because every failure here
is ultimately a bad argument or bad input file.
"""


class HadlError(ValueError):
    """Base class for all errors raised by this package."""


# -- transforms ---------------------------------------------------------------

class OddLengthError(HadlError):
    """Signal length must be even for the pairwise Haar filters."""


class TooShortError(HadlError):
    """Signal shorter than the two-tap filter support."""


class ShapeMismatchError(HadlError):
    """Array shapes are inconsistent with the declared lookback/horizon."""


# -- model --------------------------------------------------------------------

class CorruptCheckpointError(HadlError):
    """Checkpoint arrays are missing, misnamed, misshapen, not float64 or
    not finite for the lookback, horizon and head its meta declares."""


# -- optim --------------------------------------------------------------------

class EmptyDataError(HadlError):
    """Training or validation window set is empty."""


class DivergedError(HadlError):
    """Training produced a non-finite train loss or validation MSE."""


class InvalidConfigError(HadlError):
    """A config value cannot be parsed or is out of range; names the key."""


# -- data ---------------------------------------------------------------------

class ParseError(HadlError):
    """CSV cell could not be parsed; message names the row and column."""


class MissingValueError(HadlError):
    """CSV contains an empty or non-finite cell."""


class EmptyFileError(HadlError):
    """CSV has no data rows."""


class UnknownConventionError(HadlError):
    """Split convention name is not one of the supported ones."""


class ConstantChannelError(HadlError):
    """A channel has zero variance on the training segment; cannot z-score."""


class SegmentTooShortError(HadlError):
    """Segment shorter than lookback + horizon; no window fits."""


class UnknownKindError(HadlError):
    """Unsupported synthetic dataset kind."""


# -- metrics ------------------------------------------------------------------

class ZeroBaselineError(HadlError):
    """Noise-free MSE is zero or negative; the NRR ratio is undefined."""


class EmptyInputError(HadlError):
    """Metric input is empty."""


# -- cli ----------------------------------------------------------------------

class MissingZeroEtaError(HadlError):
    """Robustness sweep needs the noise-free baseline (eta = 0.0)."""


class UnknownAxisError(HadlError):
    """Unsupported ablation axis."""
