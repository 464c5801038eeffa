"""Key formatting.

The paper's datasets use 16-byte keys; ``key_for`` produces exactly that.
"""

KEY_BYTES = 16


def key_for(index: int) -> bytes:
    """The canonical 16-byte key for record ``index``."""
    if index < 0:
        raise ValueError(f"key index must be >= 0, got {index}")
    return b"user%012d" % index


def keys_for(indices) -> list:
    """``key_for`` of every index, in order, checked once per column."""
    if indices and min(indices) < 0:
        bad = next(index for index in indices if index < 0)
        raise ValueError(f"key index must be >= 0, got {bad}")
    return [b"user%012d" % index for index in indices]
