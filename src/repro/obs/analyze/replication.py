"""Replication-phase analysis over the causal ``repl.*`` trace events.

Decomposes the replicated write path into its phases -- group-log
append, per-follower ship (link transfer), follower apply (replay), and
the leader's ack decision -- and derives two timelines:

- per-follower **lag** samples: each time a follower's apply completes,
  how many records the group log was ahead of it (measured against the
  log head at the moment the apply was scheduled, which is the exact
  deterministic quantity ``repl.lag_peak`` tracks);
- **straggler counts**: how often each follower was the member the ack
  policy actually waited for (the ``straggler`` named on each
  ``repl.ack`` span).

Everything is a pure function of the event stream, so documents built
here are byte-stable across runs of the same seed.
"""

from typing import Dict, List, Optional

from repro.obs.analyze.critical_path import failover_timelines
from repro.obs.events import (
    CAT_REPL_ACK,
    CAT_REPL_APPLY,
    CAT_REPL_ELECTION,
    CAT_REPL_SHIP,
)


def _member_key(track: str) -> str:
    """``"g<gid>:r<rid>"`` from a member track ``repl:g<gid>:r<rid>``."""
    return track.split(":", 1)[1] if ":" in track else track


def follower_lag_timeline(recorder) -> Dict[str, List[dict]]:
    """Per-follower lag samples, keyed ``"g<gid>:r<rid>"`` (sorted).

    One sample per completed apply: ``t_s`` is the apply span's end
    (when ``lsn`` became readable on the follower), ``lag`` is the
    group-log head minus that LSN at scheduling time.
    """
    head: Dict[str, int] = {}
    series: Dict[str, List[dict]] = {}
    for event in recorder.index().repl:
        args = event.args or {}
        if event.cat == CAT_REPL_SHIP and event.name == "append":
            head[event.track] = args.get("lsn", 0)
        elif event.cat == CAT_REPL_APPLY and event.name == "apply":
            group_track = event.track.rsplit(":r", 1)[0]
            lsn = args.get("lsn", 0)
            key = _member_key(event.track)
            series.setdefault(key, []).append({
                "t_s": event.end,
                "lsn": lsn,
                "lag": max(0, head.get(group_track, lsn) - lsn),
            })
    return {key: series[key] for key in sorted(series)}


def replication_summary(recorder) -> Optional[dict]:
    """The report's ``"replication"`` section, or None without repl events.

    Phase totals are simulated seconds of span duration per phase (ship
    and apply overlap across followers, so they are occupancy, not a
    serial decomposition); ``ack_s`` is the total client-visible ack
    wait.  Per-follower rows split ship/apply occupancy and count how
    often each follower was the quorum straggler.
    """
    events = recorder.index().repl
    if not events:
        return None
    phases = {"ship_s": 0.0, "apply_s": 0.0, "ack_s": 0.0, "election_s": 0.0}
    followers: Dict[str, dict] = {}
    stragglers: Dict[str, int] = {}
    appends = 0
    acks = 0

    def follower_row(key: str) -> dict:
        return followers.setdefault(
            key,
            {"ship_s": 0.0, "apply_s": 0.0, "shipped_records": 0,
             "applied_records": 0, "straggler_acks": 0},
        )

    for event in events:
        cat = event.cat
        args = event.args or {}
        if cat == CAT_REPL_SHIP:
            if event.name == "append":
                appends += 1
            elif event.dur is not None:
                phases["ship_s"] += event.dur
                row = follower_row(_member_key(event.track))
                row["ship_s"] += event.dur
                row["shipped_records"] += args.get("records", 0)
        elif cat == CAT_REPL_APPLY:
            if event.name == "apply" and event.dur is not None:
                phases["apply_s"] += event.dur
                row = follower_row(_member_key(event.track))
                row["apply_s"] += event.dur
                row["applied_records"] += args.get("records", 0)
        elif cat == CAT_REPL_ACK:
            if event.dur is not None:
                phases["ack_s"] += event.dur
                acks += 1
                straggler = args.get("straggler")
                if straggler is not None:
                    group = event.track.split(":", 1)[1]
                    key = f"{group}:r{straggler}"
                    stragglers[key] = stragglers.get(key, 0) + 1
                    follower_row(key)["straggler_acks"] += 1
        elif cat == CAT_REPL_ELECTION:
            if event.name == "elect" and event.dur is not None:
                phases["election_s"] += event.dur
    return {
        "phases": phases,
        "appends": appends,
        "acks": acks,
        "followers": {key: followers[key] for key in sorted(followers)},
        "stragglers": {key: stragglers[key] for key in sorted(stragglers)},
        "failovers": failover_timelines(recorder),
        "lag": follower_lag_timeline(recorder),
    }
