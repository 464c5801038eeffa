"""YCSB core workloads A-F (Cooper et al., SoCC'10), as the paper runs
them: zipfian(0.99) request distribution, latest-distribution for D,
1 KB or 4 KB values, one million operations after an 80 GB load (both
scaled down in this reproduction).
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.kvstore.values import SizedValue
from repro.sim.rng import XorShiftRng
from repro.workloads.keys import key_for
from repro.workloads.runner import Phase, RunResult, check_batch_size, issue_puts
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
    items = (
        (key_for(index), SizedValue(("load", tag), value_size))
        for tag, index in enumerate(order)
    )
    with Phase("load", store.system) as phase:
        issue_puts(store, items, batch_size)
    return phase.result()


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

    With a ``batch_size``, runs of consecutive same-kind operations
    (reads, or updates/inserts) are coalesced through ``multi_get`` /
    ``multi_put`` up to that length.  The draw sequence, op order, and
    every simulated number are unchanged; with ``check_reads`` a missed
    read is reported when its batch flushes rather than instantly.
    """
    rng = XorShiftRng(seed)
    if spec.distribution == "latest":
        chooser = LatestGenerator(record_count, rng.fork(1))
    else:
        chooser = ScrambledZipfian(record_count, rng.fork(3))
    next_insert = record_count
    thresholds = _mix_thresholds(spec)
    if batch_size is None:
        read, write, flush = _per_op(store, check_reads)
    else:
        read, write, flush = _coalesced(store, check_reads, batch_size)

    with Phase(f"ycsb-{spec.name}", store.system) as phase:
        for op_index in range(n_ops):
            draw = rng.next_float()
            if draw < thresholds["read"]:
                read(key_for(chooser.next()))
            elif draw < thresholds["update"]:
                write(
                    key_for(chooser.next()),
                    SizedValue(("upd", op_index), value_size),
                )
            elif draw < thresholds["insert"]:
                write(
                    key_for(next_insert),
                    SizedValue(("ins", op_index), value_size),
                )
                if isinstance(chooser, LatestGenerator):
                    chooser.observe_insert(next_insert)
                next_insert += 1
            elif draw < thresholds["scan"]:
                flush()
                store.scan(key_for(chooser.next()), spec.scan_length)
            else:  # read-modify-write: the get must precede the put
                key = key_for(chooser.next())
                read(key)
                write(key, SizedValue(("rmw", op_index), value_size))
        flush()
    return phase.result()


def _per_op(store, check_reads: bool):
    """``(read, write, flush)`` issuing each op as the mix loop draws it."""

    def read(key: bytes) -> None:
        value, __ = store.get(key)
        if check_reads and value is None:
            raise AssertionError("YCSB read missed a loaded key")

    return read, store.put, lambda: None


def _coalesced(store, check_reads: bool, batch_size: int):
    """``(read, write, flush)`` buffering runs of consecutive same-kind ops.

    A run goes out through ``multi_get`` / ``multi_put`` when the kind
    changes, when it reaches ``batch_size``, or at ``flush()``, which the
    mix loop calls before a scan and at the end.
    """
    check_batch_size(batch_size)
    buffer: list = []
    buffer_kind: Optional[str] = None

    def flush() -> None:
        nonlocal buffer_kind
        if not buffer:
            return
        if buffer_kind == "get":
            for value, __ in store.multi_get(buffer):
                if check_reads and value is None:
                    raise AssertionError("YCSB read missed a loaded key")
        else:
            store.multi_put(buffer)
        buffer.clear()
        buffer_kind = None

    def enqueue(kind: str, item) -> None:
        nonlocal buffer_kind
        if buffer_kind != kind:
            flush()
            buffer_kind = kind
        buffer.append(item)
        if len(buffer) >= batch_size:
            flush()

    def read(key: bytes) -> None:
        enqueue("get", key)

    def write(key: bytes, value) -> None:
        enqueue("put", (key, value))

    return read, write, flush


def _mix_thresholds(spec: YcsbSpec) -> Dict[str, float]:
    total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"workload {spec.name} mix sums to {total}, expected 1")
    read_t = spec.read
    update_t = read_t + spec.update
    insert_t = update_t + spec.insert
    scan_t = insert_t + spec.scan
    return {"read": read_t, "update": update_t, "insert": insert_t, "scan": scan_t}
