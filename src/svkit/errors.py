"""Exception hierarchy. Every error carries the process exit code the CLI maps it to."""


class SvkitError(Exception):
    exit_code = 1


class ConfigError(SvkitError):
    """Bad flags, inconsistent settings, or invalid input data."""

    exit_code = 2


class DimensionError(ConfigError):
    """Array shape mismatch; the message names the offending axis."""


class ManifestError(ConfigError):
    """Unparseable or inconsistent manifest; the message carries the line number."""


class ProvenanceError(ConfigError):
    """Feature maps from different speakers where one speaker was required."""


class NoSpeechError(ConfigError):
    """Voice activity detection removed the entire signal."""


class SignalTooShortError(ConfigError):
    """Signal shorter than one analysis window / slice."""


class MetricError(ConfigError):
    """Score set lacks genuine or impostor trials, so no ROC can be computed."""


class FileFormatError(SvkitError):
    """I/O-level failure: unreadable or corrupt file."""

    exit_code = 3


class MalformedRiffError(FileFormatError):
    pass


class UnsupportedEncodingError(FileFormatError):
    pass


class EmptyAudioError(FileFormatError):
    pass


class CheckpointError(FileFormatError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedFileError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


class NumericError(SvkitError):
    """NaN or Inf where finite values are required."""

    exit_code = 4
