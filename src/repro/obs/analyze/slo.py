"""SLO monitors on the simulated clock: rolling windows and burn rates.

A :class:`SloObjective` states that at least ``target`` of operations
complete within ``threshold_s`` (e.g. 99.9% under 200us).  Monitoring
follows the multi-window burn-rate pattern: the *burn rate* over a
window is the observed bad fraction divided by the error budget
(``1 - target``); an alert fires when both a short and a long window
burn faster than the rule's factor, and resolves as soon as either
drops back to it or under.  The short window makes alerts recover
quickly; the long window keeps one latency spike from paging.
:meth:`BurnRateRule.fires` is the test here and in the flight recorder.

Everything is evaluated event-driven at sample completion times on the
simulated clock, so the alert log is a pure function of the workload:
replaying the same seed yields a byte-identical log.

:func:`rolling_series` additionally samples rolling-window p99 and
throughput on a fixed grid (the ``repro slo`` report body); an empty
window reports a ``None`` percentile (no data is not a zero latency).
"""

from typing import Dict, List, Optional, Tuple

from repro.sim.latency import percentile, window_slice

Sample = Tuple[float, float]  # (completion time, measured latency seconds)


class SloObjective:
    """``target`` of ops must complete within ``threshold_s``."""

    def __init__(self, name: str, threshold_s: float, target: float = 0.999):
        if not threshold_s > 0:  # NaN included
            raise ValueError(f"threshold_s must be positive, got {threshold_s}")
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {target}")
        self.name = name
        self.threshold_s = threshold_s
        self.target = target

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def burn(self, bad: int, total: int) -> float:
        """The burn rate: ``bad / total`` over the error budget."""
        return (bad / total) / self.error_budget

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "threshold_us": self.threshold_s * 1e6,
            "target": self.target,
        }


class BurnRateRule:
    """One (short window, long window, factor) alerting pair."""

    def __init__(self, short_s: float, long_s: float, factor: float):
        if not 0 < short_s <= long_s:
            raise ValueError(
                f"need 0 < short_s <= long_s, got {short_s}, {long_s}"
            )
        if not factor > 0:  # NaN included
            raise ValueError(f"factor must be positive, got {factor}")
        self.short_s = short_s
        self.long_s = long_s
        self.factor = factor

    def fires(self, burn_short: float, burn_long: float) -> bool:
        """Both lookbacks burn strictly faster than :attr:`factor`."""
        return burn_short > self.factor and burn_long > self.factor

    @property
    def label(self) -> str:
        return (
            f"{self.short_s * 1e3:.4g}ms/{self.long_s * 1e3:.4g}ms "
            f"x{self.factor:g}"
        )

    def as_dict(self) -> dict:
        return {
            "short_s": self.short_s,
            "long_s": self.long_s,
            "factor": self.factor,
        }


class SloMonitor:
    """Evaluates one objective's burn-rate rules over a sample stream."""

    def __init__(self, objective: SloObjective, rules: List[BurnRateRule]):
        if not rules:
            raise ValueError("at least one burn-rate rule is required")
        self.objective = objective
        self.rules = list(rules)

    def run(self, samples: List[Sample]) -> dict:
        """The deterministic alert log and compliance summary.

        ``samples`` must be sorted by completion time (simulated runs
        produce them that way).  Returns a report dict with per-rule
        fire/resolve transitions in one chronological ``alerts`` list.
        """
        times = [t for t, __ in samples]
        bad_prefix = [0] * (len(samples) + 1)
        for i, (__, latency) in enumerate(samples):
            bad = latency > self.objective.threshold_s
            bad_prefix[i + 1] = bad_prefix[i] + (1 if bad else 0)

        def burn(window_s: float, i: int) -> float:
            # Window (t - window_s, t] ending at sample i's completion.
            # The right end stays i + 1, not the window's: samples tied
            # at one instant are evaluated one at a time.
            left, __ = window_slice(times, times[i], window_s)
            total = (i + 1) - left
            if total <= 0:  # a window narrower than half an ulp of t
                return 0.0
            bad = bad_prefix[i + 1] - bad_prefix[left]
            return self.objective.burn(bad, total)

        alerts: List[dict] = []
        firing = [False] * len(self.rules)
        for i in range(len(samples)):
            for r, rule in enumerate(self.rules):
                burn_short = burn(rule.short_s, i)
                burn_long = burn(rule.long_s, i)
                should_fire = rule.fires(burn_short, burn_long)
                if should_fire != firing[r]:
                    firing[r] = should_fire
                    alerts.append(
                        {
                            "t_s": times[i],
                            "objective": self.objective.name,
                            "rule": rule.label,
                            "state": "fire" if should_fire else "resolve",
                            "burn_short": burn_short,
                            "burn_long": burn_long,
                        }
                    )
        total = len(samples)
        bad = bad_prefix[total]
        return {
            "objective": self.objective.as_dict(),
            "rules": [rule.as_dict() for rule in self.rules],
            "samples": total,
            "bad": bad,
            "compliance": (total - bad) / total if total else None,
            "alerts": alerts,
            "firing_at_end": [
                self.rules[r].label for r in range(len(self.rules)) if firing[r]
            ],
        }


#: Grid steps and percentile of :func:`rolling_series`.
SERIES_BINS = 20
SERIES_PERCENTILE = 99.0


def rolling_series(
    samples: List[Sample],
    end_s: float,
    window_s: float,
    min_kiops: Optional[float] = None,
) -> dict:
    """Rolling-window p99 and throughput on a fixed grid.

    One row per grid point: window sample count, throughput in KIOPS,
    and the window percentile in microseconds (``None`` for an empty
    window).  When ``min_kiops`` is given, rows whose window throughput
    undershoots it are listed as breaches (skipping the leading
    partial-window rows before the first sample).
    """
    if not window_s > 0:  # NaN included
        raise ValueError(f"window_s must be positive, got {window_s}")
    bins, p = SERIES_BINS, SERIES_PERCENTILE
    times = [t for t, __ in samples]
    rows: List[dict] = []
    breaches: List[dict] = []
    for i in range(bins + 1):
        edge = end_s * i / bins
        left, right = window_slice(times, edge, window_s)
        count = right - left
        kiops = count / window_s / 1e3
        window = sorted(latency for __, latency in samples[left:right])
        row: Dict[str, object] = {
            "t_s": edge,
            "count": count,
            "kiops": kiops,
            f"p{p:g}_us": percentile(window, p) * 1e6 if window else None,
        }
        rows.append(row)
        if (
            min_kiops is not None
            and kiops < min_kiops
            and times
            and edge >= times[0]
        ):
            breaches.append({"t_s": edge, "kiops": kiops})
    return {
        "window_s": window_s,
        "p": p,
        "rows": rows,
        "throughput_breaches": breaches,
    }
