"""The per-layer ledger, taken from outside the program.

Three instruments, none of which touches ``src/``:

- :class:`Spans` + :class:`SpanProxy`: workload -> phase -> store-call
  spans recorded by the benchmark's own files, kept in memory and written
  out when the child exits;
- :func:`profile_ledger`: a ``cProfile`` run bucketed by source path into
  the packages under ``src/repro`` (the layers) plus ``other``;
- :class:`ModelProxy` / :class:`DelayProxy`: the same forwarding proxy
  used for verification against a dict model and for the sensitivity
  self-test.

Importing this module imports nothing from ``repro``.
"""

import bisect
from typing import Callable, Dict, List, Optional, Tuple

#: The packages under ``src/repro`` that sit on a measured path.
LAYERS = (
    "workloads", "kvstore", "core", "baselines", "skiplist", "bloom",
    "sstable", "btree", "persist", "sim", "mem", "cluster", "replication",
    "obs", "bench",
)

#: Phase names a workload may open (each gets ``busy_s`` and ``ops``).
PHASES = (
    "fill", "overwrite", "delete", "quiesce", "readrandom", "ycsb-c", "seek",
    "ycsb-e", "load", "ycsb-a", "run-cluster", "traced", "analyze", "live",
)

#: The ``KVStore`` surface the proxies forward and time.
STORE_CALLS = (
    "put", "get", "delete", "scan", "multi_put", "multi_get", "multi_delete",
    "quiesce",
)

#: Store calls that also report a p99 of their host duration.
P99_CALLS = ("put", "get", "scan", "multi_put")


# ------------------------------------------------------------------ spans


class Spans:
    """In-memory span tree: rows of ``(parent, name, start, end)``.

    Row 0 is the workload; phases hang off it and store calls hang off
    the open phase.  A row's index is its identifier.
    """

    def __init__(self, workload: str, clock: Callable[[], float]) -> None:
        self.rows: List[Optional[Tuple[int, str, float, float]]] = [None]
        self.workload = workload
        #: ``calib.Sampler.wall``: host time without the sampler's own.
        self.clock = clock
        self.phase: Optional[int] = None
        self.phase_ops: Dict[str, int] = {}

    def run(self, phases) -> None:
        """Run ``[(name, ops, fn)]`` with one span per phase."""
        clock = self.clock
        begin = clock()
        for name, ops, fn in phases:
            self.phase = len(self.rows)
            self.rows.append(None)
            start = clock()
            fn()
            self.rows[self.phase] = (0, name, start, clock())
            self.phase = None
            self.phase_ops[name] = self.phase_ops.get(name, 0) + ops
        self.rows[0] = (-1, self.workload, begin, clock())

    def call(self, name: str, start: float, end: float) -> None:
        """One store call; recorded only while a phase is open."""
        if self.phase is not None:
            self.rows.append((self.phase, name, start, end))

    def metrics(self) -> Dict[str, float]:
        """``phase.*`` and ``kvstore.*`` per-layer metrics from the rows."""
        out: Dict[str, float] = {}
        for name in PHASES:
            out[f"phase.{name}.busy_s"] = 0.0
            out[f"phase.{name}.ops"] = self.phase_ops.get(name, 0)
        durations: Dict[str, List[float]] = {f: [] for f in STORE_CALLS}
        children = 0.0
        for parent, name, start, end in self.rows[1:]:
            if parent == 0:
                out[f"phase.{name}.busy_s"] += end - start
            else:
                durations[name].append(end - start)
                children += end - start
        for name, rows in durations.items():
            out[f"kvstore.{name}.busy_s"] = sum(rows)
            out[f"kvstore.{name}.calls"] = len(rows)
            if name in P99_CALLS:
                rows.sort()
                rank = max(0, -(-len(rows) * 99 // 100) - 1)
                out[f"kvstore.{name}.p99_us"] = rows[rank] * 1e6 if rows else 0.0
        phases = sum(out[f"phase.{name}.busy_s"] for name in PHASES)
        # Self time of the generators: a phase minus its store-call children.
        out["workloads.span_self_s"] = phases - children
        return out

    def document(self) -> dict:
        return {
            "workload": self.workload,
            "columns": ["id", "parent", "name", "start", "end"],
            "rows": [[i, *row] for i, row in enumerate(self.rows)],
        }


# ---------------------------------------------------------------- proxies


class StoreProxy:
    """Forwards the ``KVStore`` surface; subclasses observe each call.

    Everything outside :data:`STORE_CALLS` (``system``, ``items``,
    ``name``, a replica group's ``leader_idx`` ...) passes straight
    through to the wrapped object.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _call(self, name: str, fn: Callable, args, kwargs):
        return fn(*args, **kwargs)


def _forward(name: str):
    def method(self, *args, **kwargs):
        return self._call(name, getattr(self._inner, name), args, kwargs)

    method.__name__ = name
    return method


for _name in STORE_CALLS:
    setattr(StoreProxy, _name, _forward(_name))


class SpanProxy(StoreProxy):
    """Records one span per store call (traced run only)."""

    def __init__(self, inner, spans: Spans) -> None:
        super().__init__(inner)
        self._spans = spans

    def _call(self, name, fn, args, kwargs):
        clock = self._spans.clock
        start = clock()
        result = fn(*args, **kwargs)
        self._spans.call(name, start, clock())
        return result


class DelayProxy(StoreProxy):
    """Burns a fixed amount of work per operation before forwarding.

    The work is iterations of the calibration kernel, so the added cost
    is known in calibrated seconds whatever speed the box runs at.  A
    ``multi_*`` call carries ``len(items)`` operations and burns that
    many times the work, so the cost per foreground op is the same on
    batched and per-op paths.  With no work it is the plain forwarding
    proxy, which is the self-test's baseline.
    """

    def __init__(self, inner, burn: Callable[[int], object], per_op: int) -> None:
        super().__init__(inner)
        self._burn = burn
        self._per_op = per_op

    def _call(self, name, fn, args, kwargs):
        if self._per_op and name != "quiesce":
            n_ops = len(args[0]) if name.startswith("multi_") else 1
            self._burn(self._per_op * n_ops)
        return fn(*args, **kwargs)


class ModelProxy(StoreProxy):
    """Feeds a dict model and checks every read and scan against it."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.model: dict = {}
        self.attempted = 0
        self.failures: List[str] = []
        self._sorted_keys: Optional[List[bytes]] = None

    def _call(self, name, fn, args, kwargs):
        if name.startswith("multi_"):
            # The generators pass lists; a one-shot iterable would be
            # consumed by the store before the model saw it.
            args = (list(args[0]),)
        result = fn(*args, **kwargs)
        getattr(self, "_saw_" + name)(args, result)
        return result

    def _fail(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(what)
        else:
            self.failures[-1] = "... more failures"

    def _write(self, key, value) -> None:
        if key not in self.model:
            self._sorted_keys = None
        self.model[key] = value

    def _remove(self, key) -> None:
        if self.model.pop(key, None) is not None:
            self._sorted_keys = None

    def _read(self, key, value) -> None:
        self.attempted += 1
        if value != self.model.get(key):
            self._fail(f"get {key!r}: store {value!r} != model {self.model.get(key)!r}")

    def _saw_put(self, args, result) -> None:
        self._write(args[0], args[1])

    def _saw_delete(self, args, result) -> None:
        self._remove(args[0])

    def _saw_get(self, args, result) -> None:
        self._read(args[0], result[0])

    def _saw_multi_put(self, args, result) -> None:
        for key, value in args[0]:
            self._write(key, value)

    def _saw_multi_delete(self, args, result) -> None:
        for key in args[0]:
            self._remove(key)

    def _saw_multi_get(self, args, result) -> None:
        for key, (value, __) in zip(args[0], result):
            self._read(key, value)

    def _saw_quiesce(self, args, result) -> None:
        pass

    def _saw_scan(self, args, result) -> None:
        start_key, count = args
        pairs = result[0]
        self.attempted += 1
        keys = [key for key, __ in pairs]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            self._fail(f"scan {start_key!r}: keys not strictly ascending")
        if keys and keys[0] < start_key:
            self._fail(f"scan {start_key!r}: first key {keys[0]!r} below start")
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.model)
        at = bisect.bisect_left(self._sorted_keys, start_key)
        expect = [(k, self.model[k]) for k in self._sorted_keys[at:at + count]]
        if pairs != expect:
            self._fail(
                f"scan {start_key!r} x{count}: {len(pairs)} pairs differ "
                f"from the model's {len(expect)}"
            )


# --------------------------------------------------------- profile ledger


def profile_ledger(profiler, src_root: str, exclude: str) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` from a finished cProfile.

    ``exclude`` is the file of the calibration sampler, whose handler
    runs inside the profiled region and belongs to no layer.

    A Python function's self time goes to the layer its file lives in.
    A built-in's self time goes to the layer of the Python function
    that called it (``list.append`` inside the skiplist is skiplist
    time), read from cProfile's per-caller sub-entries; what no Python
    caller accounts for lands in ``other``.  By construction the
    buckets sum to the profiler's total self time.  ``calls`` counts
    calls of Python functions only, and is exact.
    """
    prefix = src_root.rstrip("/") + "/"

    def layer_of(code) -> str:
        if isinstance(code, str):
            return ""
        path = code.co_filename
        if path.startswith(prefix):
            head, sep, __ = path[len(prefix):].partition("/")
            if sep and head in LAYERS:
                return head
        return "other"

    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls = {layer: 0 for layer in LAYERS + ("other",)}
    builtin_total = 0.0
    builtin_claimed = 0.0
    for entry in profiler.getstats():
        layer = layer_of(entry.code)
        if not layer:
            builtin_total += entry.inlinetime
            continue
        excluded = entry.code.co_filename == exclude
        if not excluded:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                builtin_claimed += sub.inlinetime
                if not excluded:
                    self_s[layer] += sub.inlinetime
    self_s["other"] += builtin_total - builtin_claimed
    out: Dict[str, float] = {}
    for layer in LAYERS + ("other",):
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    return out
