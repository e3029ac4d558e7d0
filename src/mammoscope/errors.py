"""Exception types raised across the pipeline.

Everything derives from :class:`MammoscopeError` so callers (and the CLI)
can distinguish pipeline failures from programming errors.
"""


class MammoscopeError(Exception):
    """Base class for all package-specific errors."""


# --- image I/O ---------------------------------------------------------


class MalformedHeaderError(MammoscopeError):
    """PGM header is unreadable: bad magic or a non-numeric token."""


class TruncatedDataError(MammoscopeError):
    """PGM payload holds fewer samples than width * height."""


class SampleOutOfRangeError(MammoscopeError):
    """A PGM sample exceeds the declared maxval."""


# --- geometry / preprocessing ------------------------------------------


class DimensionMismatchError(MammoscopeError):
    """Two rasters that must share dimensions do not."""


class DegenerateImageError(MammoscopeError):
    """Image cannot be intensity-normalized (max pixel <= 0)."""


# --- wavelet ------------------------------------------------------------


class OddLengthError(MammoscopeError):
    """Transform input has an odd extent; pad to even first."""


class SignalTooShortError(MammoscopeError):
    """Signal is shorter than the analysis filter."""


class TooManyLevelsError(MammoscopeError):
    """Requested decomposition depth exhausts the image extent."""


class MalformedDecompositionError(MammoscopeError):
    """Subband shapes are inconsistent; cannot invert."""


# --- features -----------------------------------------------------------


class EmptyMapError(MammoscopeError):
    """Statistic requested over an empty value map."""


class InsufficientDataError(MammoscopeError):
    """Not enough rows per class for the requested operation."""


class BadKError(MammoscopeError):
    """Requested feature count k is outside 1..n_features."""


# --- classifier ---------------------------------------------------------


class MissingClassError(MammoscopeError):
    """Training table has zero rows for one of the classes."""


class FeatureMismatchError(MammoscopeError):
    """Input feature names do not match the model's feature names."""


class UnknownVersionError(MammoscopeError):
    """Model file declares a format version this build does not read."""


class CorruptModelError(MammoscopeError):
    """A model, read or fitted, that cannot score rows."""


# --- evaluation ---------------------------------------------------------


class LengthMismatchError(MammoscopeError):
    """Prediction and truth sequences differ in length."""


class NoPositivesError(MammoscopeError):
    """Sensitivity undefined: no positive cases (tp + fn = 0)."""


class NoNegativesError(MammoscopeError):
    """Specificity undefined: no negative cases (tn + fp = 0)."""


class DegenerateLabelsError(MammoscopeError):
    """ROC undefined: truth contains only one class."""


class TooFewRowsError(MammoscopeError):
    """A class has fewer rows than the requested fold count."""


# --- configuration ------------------------------------------------------


class ConfigError(MammoscopeError):
    """Pipeline config file is missing, unreadable, or invalid."""
