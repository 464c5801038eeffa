"""Command-line interface: ``python -m repro <command>`` (README, "CLI").

Every run is deterministic (simulated time); throughput and latency
numbers are directly comparable across stores and invocations, and
trace artifacts are byte-identical across runs with the same seed.

This package holds what two or more command families share.  Each family
module (``bench``, ``obs``, ``cluster``, ``check``) owns its subparsers,
its ``cmd_*`` bodies and the validators only it uses.  Every file a
command writes goes through :func:`_wrote`.
"""

import argparse
import pathlib
import sys
from typing import List

from repro.bench import STORE_NAMES, make_store
from repro.obs.export import document_json, write_artifact
from repro.persist.wal import parse_fsync_policy


def _stores_arg(value: str) -> List[str]:
    if value == "all":
        return list(STORE_NAMES)
    names = [v.strip() for v in value.split(",") if v.strip()]
    for name in names:
        if name not in STORE_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown store {name!r}; choose from {STORE_NAMES} or 'all'"
            )
    return names


def _number_arg(cast, accept, expected: str):
    """A ``type=`` callable: ``cast`` the text, then ``accept`` the number."""

    def parse(value: str):
        try:
            number = cast(value)
        except ValueError:
            number = None
        if number is None or not accept(number):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return number

    return parse


_positive_int = _number_arg(int, lambda n: n >= 1, "an integer >= 1")
_nonnegative_float = _number_arg(float, lambda x: x >= 0, "a number >= 0")
_nonnegative_int = _number_arg(int, lambda n: n >= 0, "an integer >= 0")


def _text_arg(valid, expected: str):
    """A ``type=`` callable that keeps the text, which the command parses:
    ``valid(text)`` must be truthy and raise no ``ValueError``."""
    check = _number_arg(valid, bool, expected)

    def parse(value: str) -> str:
        check(value)
        return value

    return parse


_fsync_policy_arg = _text_arg(
    parse_fsync_policy, "sync, batch:N (N >= 1) or interval:T (T > 0 seconds)"
)


# Flag groups shared between subcommands, as argparse ``parents=``.  Each
# call builds a fresh parent: a child's ``set_defaults`` rewrites the
# defaults of the (shared) action objects it inherited.


def _flags(parents=()) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _workload_flags(value_size: int, value_type) -> argparse.ArgumentParser:
    """What every workload-running subcommand takes."""
    flags = _flags()
    flags.add_argument(
        "--store", type=_stores_arg, default=["miodb"],
        help="store name, comma list, or 'all'",
    )
    flags.add_argument("--value-size", type=value_type, default=value_size)
    flags.add_argument("--ssd", action="store_true",
                       help="use the DRAM-NVM-SSD hierarchy")
    flags.add_argument("--seed", type=int, default=1)
    return flags


def _common_flags(fsync=False, batch=False,
                  value_type=_positive_int) -> argparse.ArgumentParser:
    flags = _flags([_workload_flags(4096, value_type)])
    flags.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome/Perfetto trace of each store's run to FILE "
             "(with multiple stores the store name is suffixed)",
    )
    if fsync:
        flags.add_argument("--fsync-policy", type=_fsync_policy_arg,
                           default="sync", metavar="POLICY",
                           help="WAL durability: sync, batch:N, or interval:T "
                                "(simulated seconds); default %(default)s")
    if batch:
        flags.add_argument(
            "--batch-size", type=_nonnegative_int, default=128, metavar="N",
            help="ops coalesced per multi_* call (wall-clock only; "
                 "0 = per-op loop, default %(default)s)",
        )
    return flags


def _live_flags() -> argparse.ArgumentParser:
    flags = _flags()
    flags.add_argument("--live", action="store_true",
                       help="attach the sampled live-telemetry plane "
                            "instead of full tracing")
    flags.add_argument("--slo-threshold-us", type=_nonnegative_float, default=0.0,
                       help="per-op latency SLO for burn-rate flight "
                            "triggers (0 = off)")
    flags.add_argument("--stall-alert-us", type=_nonnegative_float, default=0.0,
                       help="stall duration that triggers a flight dump "
                            "(0 = off)")
    flags.add_argument("--openmetrics", default=None, metavar="FILE",
                       help="write the OpenMetrics exposition document")
    flags.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="write flight-recorder dump JSON files here")
    return flags


def _live_overrides(args) -> dict:
    """``attach_live`` keyword options from the shared live flags."""
    overrides = {"seed": args.seed}
    if args.slo_threshold_us > 0:
        overrides["slo_threshold_s"] = args.slo_threshold_us * 1e-6
    if args.stall_alert_us > 0:
        overrides["stall_alert_s"] = args.stall_alert_us * 1e-6
    return overrides


def _trace_path(base: str, store_name: str, multi: bool) -> pathlib.Path:
    """Per-store (chaos: per-seed) path: ``trace.json`` -> ``trace-miodb.json``."""
    path = pathlib.Path(base)
    if not multi:
        return path
    return path.with_name(f"{path.stem}-{store_name}{path.suffix or '.json'}")


def _wrote(label: str, path, text, note: str = "") -> None:
    """The one door for every file a command writes: ``write_artifact``
    (missing parent directories are made), then ``# label: path`` on
    stderr.  A ``dict`` text is a directory of ``{file name: text}``,
    announced by count."""
    if isinstance(text, dict):
        pathlib.Path(path).mkdir(parents=True, exist_ok=True)
        for name, body in text.items():
            write_artifact(pathlib.Path(path, name), body)
        print(f"# {label}: {len(text)} in {path}", file=sys.stderr)
    else:
        print(f"# {label}: {write_artifact(path, text)}{note}", file=sys.stderr)


def _wrote_flight_dumps(recorders, labels, out_dir) -> None:
    """One JSON file per flight dump; deterministic names and bytes."""
    _wrote("flight dumps", out_dir, {
        f"flight-{label}-{i}-{doc['trigger']}.json": document_json(doc)
        for label, recorder in zip(labels, recorders)
        for i, doc in enumerate(recorder.flight.dumps)
    })


def build_parser() -> argparse.ArgumentParser:
    from repro.cli import bench, check, cluster, obs

    parser = argparse.ArgumentParser(
        prog="repro", description="MioDB reproduction workload runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The usage line lists commands in this order, ``info`` and ``diff`` last.
    for add in (bench.add_parsers, obs.add_parsers, cluster.add_parsers,
                check.add_parsers, bench.add_info_parser, obs.add_diff_parser):
        add(sub)
    return parser


def _refuse_store(parser, args) -> None:
    """``parser.error`` unless ``cluster`` / ``chaos`` got one store that a
    replica group accepts (when the run replicates)."""
    name = ",".join(args.store)
    if len(args.store) > 1:
        parser.error(f"argument --store: expected one store, got {name!r}")
    if args.command == "chaos" or args.followers > 0:
        from repro.replication.group import replication_refusal

        reason = replication_refusal(make_store(name)[0])
        if reason is not None:
            parser.error(
                f"argument --store: expected a replicable store, got "
                f"{name!r} (cannot be replicated: {reason})"
            )


#: Flags that do nothing without another one (``dest`` -> the one it needs).
_NEEDS = {
    "openmetrics": "live", "flight_dir": "live", "slo_threshold_us": "live",
    "stall_alert_us": "live", "live_refresh_us": "live", "analyze_json": "analyze",
}


def _refuse_idle_flags(parser, args) -> None:
    """``parser.error`` for a flag that does nothing without its partner,
    and for ``--live`` beside the full tracing it replaces."""
    for dest, needed in _NEEDS.items():
        value = getattr(args, dest, None)
        if value and not getattr(args, needed):
            parser.error(f"argument --{dest.replace('_', '-')}: expected with "
                         f"--{needed}, got {str(value)!r} without it")
    if getattr(args, "live", False):
        for dest in ("trace", "analyze"):
            if getattr(args, dest, None):
                parser.error(f"argument --live: expected no full tracing, "
                             f"got '--{dest}'")


# repro: allow[OPT001] tests drive the CLI in-process with an argv list
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _refuse_idle_flags(parser, args)
    if args.command in ("cluster", "chaos"):
        _refuse_store(parser, args)
    return args.func(args)
