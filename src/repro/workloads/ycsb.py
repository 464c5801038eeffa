"""YCSB core workloads A-F (Cooper et al., SoCC'10), as the paper runs
them: zipfian(0.99) request distribution, latest-distribution for D,
1 KB or 4 KB values, one million operations after an 80 GB load (both
scaled down in this reproduction).
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.kvstore.values import SizedValue
from repro.sim.rng import XorShiftRng
from repro.workloads.keys import keys_for
from repro.workloads.runner import Phase, RunResult, columns, issuer
from repro.workloads.zipfian import LatestGenerator, ScrambledZipfian


@dataclass
class YcsbSpec:
    """Operation mix of one YCSB workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"
    scan_length: int = 50


YCSB_WORKLOADS: Dict[str, YcsbSpec] = {
    "A": YcsbSpec("A", read=0.5, update=0.5),
    "B": YcsbSpec("B", read=0.95, update=0.05),
    "C": YcsbSpec("C", read=1.0),
    "D": YcsbSpec("D", read=0.95, insert=0.05, distribution="latest"),
    "E": YcsbSpec("E", scan=0.95, insert=0.05),
    "F": YcsbSpec("F", read=0.5, rmw=0.5),
}


def load_phase(
    store, n: int, value_size: int, seed: int = 11,
    batch_size: Optional[int] = None,
) -> RunResult:
    """YCSB Load: insert ``n`` records in hashed (random-looking) order."""
    order = list(range(n))
    XorShiftRng(seed).shuffle(order)
    issue = issuer(store, batch_size)
    with Phase("load", store.system) as phase:
        for ops in columns(n):
            issue.puts(
                keys_for(order[ops.start:ops.stop]),
                [SizedValue(("load", tag), value_size) for tag in ops],
            )
    return phase.result()


# Op kinds, in the order the mix thresholds test them.
READ, UPDATE, INSERT, SCAN, RMW = range(5)


def run_workload(
    store,
    spec: YcsbSpec,
    n_ops: int,
    record_count: int,
    value_size: int,
    seed: int = 23,
    check_reads: bool = False,
    batch_size: Optional[int] = None,
) -> RunResult:
    """Run ``n_ops`` operations of one YCSB workload against ``store``.

    ``record_count`` is the number of records loaded beforehand; inserts
    extend the key space past it.

    With a ``batch_size``, each run of consecutive same-kind operations
    (reads, or updates/inserts) goes through ``multi_get`` /
    ``multi_put`` in slices of up to that length; read-modify-write
    pairs go per op at any batch size (a one-key batch saves nothing).
    The draw sequence, op order, and every simulated number are
    unchanged; with ``check_reads`` a missed read is reported when its
    slice returns rather than instantly.

    The mix and chooser streams are independent forks, each private to
    the call, so each is drawn a column at a time: a column's mix draws
    say how many chooser draws it needs (one per op but inserts), and
    the ops go out run by run.  A spec whose draws all land on one kind
    draws no mix column at all.
    """
    rng = XorShiftRng(seed)
    latest = spec.distribution == "latest"
    if latest:
        chooser = LatestGenerator(record_count, rng.fork(1))
    else:
        chooser = ScrambledZipfian(record_count, rng.fork(3))
    thresholds = _mix_thresholds(spec)
    sole = _sole_kind(thresholds)
    t_read, t_update, t_insert, t_scan = thresholds
    issue = issuer(store, batch_size, check_reads)
    next_insert = record_count

    with Phase(f"ycsb-{spec.name}", store.system) as phase:
        for ops in columns(n_ops):
            count = len(ops)
            if sole is None:
                kinds = [
                    READ if u < t_read else UPDATE if u < t_update
                    else INSERT if u < t_insert else SCAN if u < t_scan else RMW
                    for u in rng.floats(count)
                ]
                runs = _runs(kinds)
                picks = count - kinds.count(INSERT)
            else:
                runs = [(sole, 0, count)]
                picks = 0 if sole == INSERT else count
            if latest:
                drawn = chooser.offsets(picks)
            else:
                drawn = keys_for(chooser.take(picks))
            at = 0  # the next unused chooser draw
            base = ops.start
            for kind, start, stop in runs:
                if kind == INSERT:
                    issue.puts(
                        keys_for(range(next_insert, next_insert + stop - start)),
                        [SizedValue(("ins", i), value_size)
                         for i in range(base + start, base + stop)],
                    )
                    next_insert += stop - start
                    if latest:
                        chooser.observe_insert(next_insert - 1)
                    continue
                end = at + stop - start
                if latest:
                    keys = keys_for(chooser.resolve(drawn[at:end]))
                else:
                    keys = drawn[at:end]
                at = end
                if kind == READ:
                    issue.gets(keys)
                elif kind == UPDATE:
                    issue.puts(keys, [
                        SizedValue(("upd", i), value_size)
                        for i in range(base + start, base + stop)
                    ])
                elif kind == SCAN:
                    for key in keys:
                        store.scan(key, spec.scan_length)
                else:  # read-modify-write: each get precedes its put
                    issue.rmws(keys, [
                        SizedValue(("rmw", i), value_size)
                        for i in range(base + start, base + stop)
                    ])
    return phase.result()


def _runs(kinds: list) -> list:
    """``(kind, start, stop)`` of each run of equal consecutive kinds."""
    runs = []
    start = 0
    kind = kinds[0]
    for i, each in enumerate(kinds):
        if each != kind:
            runs.append((kind, start, i))
            start, kind = i, each
    runs.append((kind, start, len(kinds)))
    return runs


def _sole_kind(thresholds) -> Optional[int]:
    """The kind every mix draw lands on, or None when draws differ.

    A draw ``u`` in ``[0, 1)`` is the first kind whose threshold exceeds
    it, else RMW.  Thresholds at or below 0 catch no draw, one at or
    above 1 catches every draw that reaches it.
    """
    for kind, threshold in enumerate(thresholds):
        if threshold > 0:
            return kind if threshold >= 1.0 else None
    return RMW


def _mix_thresholds(spec: YcsbSpec) -> tuple:
    total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"workload {spec.name} mix sums to {total}, expected 1")
    read_t = spec.read
    update_t = read_t + spec.update
    insert_t = update_t + spec.insert
    scan_t = insert_t + spec.scan
    return read_t, update_t, insert_t, scan_t
