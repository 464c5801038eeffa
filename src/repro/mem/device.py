"""Device model: latency + bandwidth cost, byte accounting, space usage."""

from repro.mem.costs import CpuCostModel


class DeviceProfile:
    """Performance characteristics of one memory/storage device.

    Latencies are per-operation setup costs in seconds; bandwidths are in
    bytes per second.  Sequential and random accesses are distinguished
    because the DRAM/NVM gap the paper leans on is largest for random
    writes (about 7x).  ``hop_latency`` is one dependent pointer chase to
    a node the device holds (a skip-list hop).
    """

    __slots__ = (
        "name",
        "read_latency",
        "write_latency",
        "seq_read_bw",
        "seq_write_bw",
        "rand_read_bw",
        "rand_write_bw",
        "hop_latency",
        "persistent",
    )

    def __init__(
        self,
        name: str,
        read_latency: float,
        write_latency: float,
        seq_read_bw: float,
        seq_write_bw: float,
        rand_read_bw: float,
        rand_write_bw: float,
        hop_latency: float,
        persistent: bool,
    ) -> None:
        self.name = name
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.seq_read_bw = seq_read_bw
        self.seq_write_bw = seq_write_bw
        self.rand_read_bw = rand_read_bw
        self.rand_write_bw = rand_write_bw
        self.hop_latency = hop_latency
        self.persistent = persistent

    def read_time(self, nbytes: int, sequential: bool) -> float:
        """Seconds to read ``nbytes`` in one operation."""
        bw = self.seq_read_bw if sequential else self.rand_read_bw
        return self.read_latency + nbytes / bw

    def __repr__(self) -> str:
        return f"DeviceProfile({self.name!r})"


class Device:
    """One simulated device: charges time and counts traffic and usage.

    ``clock`` is the simulated clock of the machine the device belongs
    to; space changes are stamped with its current time, so no caller
    passes one.
    """

    def __init__(self, profile: DeviceProfile, clock) -> None:
        self._profile = profile
        self.clock = clock
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.bytes_in_use = 0
        self.peak_bytes_in_use = 0
        # Time-weighted usage integral, for average-usage reporting.
        self._usage_area = 0.0
        self._usage_last_t = 0.0
        #: Attached TraceRecorder, or None (set by system.attach_tracing).
        self.obs = None
        #: The recorder charges go to tagged ``job=True`` while
        #: ``system.job_scope()`` prices a background job, else None.
        self.job_obs = None
        # One search hop: the chase plus one key compare.
        self._search_hop = profile.hop_latency + CpuCostModel.COMPARE_COST

    @property
    def profile(self) -> DeviceProfile:
        """The prices this device charges, fixed when it is built."""
        return self._profile

    @property
    def name(self) -> str:
        """The profile name, e.g. ``"dram"``, ``"nvm"``, ``"ssd"``."""
        return self._profile.name

    # ----------------------------------------------------- pointer chases

    def hop_time(self) -> float:
        """Seconds to follow one skip-list pointer to a node on this device."""
        return self._profile.hop_latency

    def search_time(self, hops: int) -> float:
        """Seconds for a skip-list search that followed ``hops`` pointers
        on this device, one key compare per hop."""
        return hops * self._search_hop

    # ------------------------------------------------------------------ I/O

    def read(self, nbytes: int, sequential: bool = True) -> float:
        """Account a read and return its simulated duration in seconds."""
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        self.bytes_read += nbytes
        self.read_ops += 1
        seconds = self._profile.read_time(nbytes, sequential)
        if self.job_obs is not None or self.obs is not None:
            self._transfer("read", nbytes, sequential, seconds)
        return seconds

    def seq_read_rate(self):
        """``(latency, bandwidth)``: a sequential read of ``n`` bytes costs
        ``latency + n / bandwidth``, as :meth:`read` charges it."""
        profile = self._profile
        return profile.read_latency, profile.seq_read_bw

    def add_reads(self, nbytes: int, ops: int) -> None:
        """Count ``ops`` reads of ``nbytes`` in total whose time a caller charged.

        The scan kernel charges every read itself (at the
        :meth:`seq_read_rate` snapshot, its transfer event at the charge)
        and commits its totals for this device here, once per scan.
        """
        if nbytes < 0 or ops < 0:
            raise ValueError(f"negative read totals: {nbytes} bytes in {ops} ops")
        self.bytes_read += nbytes
        self.read_ops += ops

    def write(self, nbytes: int, sequential: bool = True) -> float:
        """Account a write and return its simulated duration in seconds."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        self.bytes_written += nbytes
        self.write_ops += 1
        profile = self._profile
        seconds = profile.write_latency + nbytes / (
            profile.seq_write_bw if sequential else profile.rand_write_bw
        )
        if self.job_obs is not None or self.obs is not None:
            self._transfer("write", nbytes, sequential, seconds)
        return seconds

    def log_write(self, nbytes: int) -> float:
        """``allocate(nbytes)`` then ``write(nbytes, sequential=True)``: a
        log append that occupies new space, priced in one call."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        self._integrate_usage()
        self.bytes_in_use += nbytes
        if self.bytes_in_use > self.peak_bytes_in_use:
            self.peak_bytes_in_use = self.bytes_in_use
        self.bytes_written += nbytes
        self.write_ops += 1
        profile = self._profile
        seconds = profile.write_latency + nbytes / profile.seq_write_bw
        if self.job_obs is not None or self.obs is not None:
            self._transfer("write", nbytes, True, seconds)
        return seconds

    def insert_write(self, hops: int, nbytes: int) -> float:
        """``search_time(max(hops, 1)) + write(nbytes, sequential=False)``:
        a skip-list insert's descent and its node write, priced in one
        call."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        self.bytes_written += nbytes
        self.write_ops += 1
        profile = self._profile
        seconds = profile.write_latency + nbytes / profile.rand_write_bw
        if self.job_obs is not None or self.obs is not None:
            self._transfer("write", nbytes, False, seconds)
        return (hops if hops > 1 else 1) * self._search_hop + seconds

    def _transfer(self, op: str, nbytes: int, sequential: bool, seconds: float) -> None:
        """Send one charge to the job recorder when a background job is
        being priced, else to the attached recorder."""
        if self.job_obs is not None:
            self.job_obs.transfer(self._profile.name, op, nbytes, sequential, seconds, True)
        else:
            self.obs.transfer(self._profile.name, op, nbytes, sequential, seconds)

    def write_words(self, count: int, seconds: float) -> float:
        """``seconds`` plus ``count`` separate 8-byte random writes.

        N latencies plus the bytes: one ``8 * count``-byte write (one op),
        then ``count - 1`` latencies, each added onto the running sum in
        that order (float addition does not associate).
        """
        if count:
            seconds += self.write(8 * count, sequential=False)
            seconds += (count - 1) * self._profile.write_latency
        return seconds

    # ---------------------------------------------------------------- space

    def allocate(self, nbytes: int) -> None:
        """Account ``nbytes`` of live space on this device."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        self._integrate_usage()
        self.bytes_in_use += nbytes
        if self.bytes_in_use > self.peak_bytes_in_use:
            self.peak_bytes_in_use = self.bytes_in_use

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of live space to the device."""
        if nbytes < 0:
            raise ValueError(f"negative release: {nbytes}")
        if nbytes > self.bytes_in_use:
            raise ValueError(f"device {self.name} released more than allocated")
        self._integrate_usage()
        self.bytes_in_use -= nbytes

    def _integrate_usage(self) -> None:
        now = self.clock.now
        if now > self._usage_last_t:
            self._usage_area += self.bytes_in_use * (now - self._usage_last_t)
            self._usage_last_t = now

    def average_usage(self) -> float:
        """Time-weighted average of live bytes from t=0 to the clock's now."""
        self._integrate_usage()
        if self._usage_last_t <= 0:
            return float(self.bytes_in_use)
        return self._usage_area / self._usage_last_t

    def __repr__(self) -> str:
        return (
            f"Device({self.name!r}, written={self.bytes_written}, "
            f"read={self.bytes_read}, in_use={self.bytes_in_use})"
        )
