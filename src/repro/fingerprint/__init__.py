"""Fingerprint matrix machinery: matrices, masks and the time-stamped database."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "FingerprintMatrix": "repro.fingerprint.matrix",
        "FingerprintDatabase": "repro.fingerprint.database",
        "TimestampedFingerprint": "repro.fingerprint.database",
        "DecreaseClassification": "repro.fingerprint.masks",
        "classify_elements": "repro.fingerprint.masks",
    },
)
