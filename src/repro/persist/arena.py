"""Contiguous allocations on a simulated device.

MioDB allocates MemTables and PMTables as same-sized contiguous regions so
a whole MemTable can be flushed with a single ``memcpy`` (one-piece
flushing).  An :class:`Arena` represents one such region: it reserves
space on its device at creation and returns it when released.
"""


class Arena:
    """A fixed-size region of one device's space."""

    def __init__(self, device, size: int, label: str = "") -> None:
        if size < 0:
            raise ValueError(f"arena size must be >= 0, got {size}")
        self.device = device
        self.size = size
        self.label = label
        self.released = False
        device.allocate(size)

    def release(self) -> int:
        """Return the space to the device; idempotent."""
        if self.released:
            return 0
        self.device.release(self.size)
        self.released = True
        return self.size

    def grow(self, extra: int) -> None:
        """Extend the arena (used by the growing data repository)."""
        if extra < 0:
            raise ValueError(f"cannot grow by negative bytes: {extra}")
        if self.released:
            raise ValueError("cannot grow a released arena")
        self.device.allocate(extra)
        self.size += extra

    def shrink(self, nbytes: int) -> None:
        """Give back part of the arena (in-place garbage collection)."""
        if nbytes < 0 or nbytes > self.size:
            raise ValueError(f"cannot shrink {self.size}B arena by {nbytes}B")
        if self.released:
            raise ValueError("cannot shrink a released arena")
        self.device.release(nbytes)
        self.size -= nbytes

    def __repr__(self) -> str:
        state = "released" if self.released else "live"
        return f"Arena({self.label!r}, {self.size}B on {self.device.name}, {state})"

