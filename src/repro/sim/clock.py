"""Simulated clock.

The clock only moves forward.  Foreground operations advance it by the
simulated duration of the work they perform; stalls advance it to the
completion time of the background job being waited on.
"""


class SimClock:
    """A monotonically non-decreasing simulated clock, in seconds.

    ``now`` is a plain attribute; only :meth:`advance` and
    :meth:`advance_to` write it.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time.

        Negative and NaN durations are rejected: simulated work cannot
        take negative time, silently clamping would hide cost-model bugs,
        and a NaN would stay in the clock for good.
        """
        if not seconds >= 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds
        return self.now

    def advance_to(self, deadline: float) -> float:
        """Move the clock to ``deadline`` if it lies in the future.

        Advancing to a past instant is a no-op (the clock never rewinds),
        which is the natural semantics for "wait until job X is done":
        if it already finished, there is nothing to wait for.
        """
        if deadline > self.now:
            self.now = deadline
        return self.now

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.9f})"
