"""Cooperative crash injection for failure-recovery testing."""

from typing import Dict, Optional


class SimulatedCrash(Exception):
    """Raised at an armed crash point; tests catch it and run recovery."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class CrashInjector:
    """Arms named crash points with hit-count triggers.

    Store code calls :meth:`reach` at interesting instants (for example
    ``"flush.after_copy"``, ``"zero_copy.mid_merge"``).  Nothing happens
    unless a test armed that point; when armed, the Nth hit raises
    :class:`SimulatedCrash`.
    """

    def __init__(self) -> None:
        self._armed: Dict[str, int] = {}
        self._hits: Dict[str, int] = {}

    def arm(self, point: str, after_hits: int = 1) -> None:
        """Crash on the ``after_hits``-th time ``point`` is reached."""
        if after_hits < 1:
            raise ValueError(f"after_hits must be >= 1, got {after_hits}")
        self._armed[point] = after_hits

    # repro: allow[DEAD001, OPT001] fault-injection surface, driven by tests/
    def disarm(self, point: Optional[str] = None) -> None:
        """Disarm one point (or all points when ``point`` is ``None``)."""
        if point is None:
            self._armed.clear()
        else:
            self._armed.pop(point, None)

    def reach(self, point: str) -> None:
        """Record reaching ``point``; raise if its trigger fires."""
        self._hits[point] = self._hits.get(point, 0) + 1
        threshold = self._armed.get(point)
        if threshold is not None and self._hits[point] >= threshold:
            # Single-shot: a crash point fires once, then disarms, so the
            # recovery path does not immediately re-crash.
            del self._armed[point]
            raise SimulatedCrash(point)

    # repro: allow[DEAD001, OPT001] fault-injection surface, driven by tests/
    def rearm(self, point: str, after_hits: int = 1) -> None:
        """Arm ``point`` to fire ``after_hits`` reaches *from now*.

        :meth:`arm` counts cumulative hits since the injector was built,
        so reusing one injector across crash/recover cycles -- as the
        model checker does, one ``crash_and_recover`` step after another
        -- would need every threshold offset by the hits already taken.
        ``rearm`` zeroes the point's hit count first, giving the
        one-shot trigger a fresh fuse.
        """
        if after_hits < 1:
            raise ValueError(f"after_hits must be >= 1, got {after_hits}")
        self._hits.pop(point, None)
        self._armed[point] = after_hits

    # repro: allow[DEAD001] fault-injection surface, driven by tests/
    def hits(self, point: str) -> int:
        """How many times ``point`` has been reached."""
        return self._hits.get(point, 0)


class _PassiveInjector(CrashInjector):
    """The default injector: it can never be armed, so reaching a point
    records nothing; the hot crash points skip the call when their
    injector is this one."""

    def arm(self, point: str, after_hits: int = 1) -> None:
        raise TypeError(
            "the default crash injector is shared by every store and group "
            "that was not given one and cannot be armed; pass a CrashInjector"
        )

    rearm = arm

    def reach(self, point: str) -> None:
        pass


#: The injector of every store and replica group not given one explicitly.
PASSIVE_INJECTOR = _PassiveInjector()
