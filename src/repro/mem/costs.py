"""CPU-side cost model.

Device models charge for bytes moved; this model charges for the CPU work
around them: serializing KV pairs into SSTable blocks, deserializing them
back (the cost the paper measures at 50-59% of read time for the
baselines), key comparisons, and hashing.  A skip-list hop is a dependent
pointer chase priced by the device holding the node
(``Device.search_time``), which is why the paper stages writes in DRAM.
"""

GB = 1 << 30
NS = 1e-9


#: Nominal key size the bloom build cost hashes per key.
_KEY_BYTES = 16


class CpuCostModel:
    """CPU costs, all in seconds (or bytes per second).

    The six class constants are the calibration table
    (docs/cost_model.md); every figure was produced with these values.
    """

    SERIALIZE_BW = 1.2 * GB
    DESERIALIZE_BW = 0.9 * GB
    COMPARE_COST = 10 * NS
    BLOOM_BASE_COST = 150 * NS
    BLOOM_PROBE_COST = 15 * NS
    HASH_BW = 3.0 * GB

    def serialize_time(self, nbytes: int) -> float:
        """CPU seconds to encode ``nbytes`` of KV data into block format."""
        return nbytes / self.SERIALIZE_BW

    def deserialize_time(self, nbytes: int) -> float:
        """CPU seconds to decode ``nbytes`` of block data back into KVs."""
        return nbytes / self.DESERIALIZE_BW

    def bloom_build_time(self, nkeys: int) -> float:
        """Cost of hashing ``nkeys`` keys into a bloom filter."""
        return nkeys * _KEY_BYTES / self.HASH_BW

    def bloom_probe_time(self, probes: int = 1) -> float:
        """Cost of one membership test that evaluated ``probes`` hashes.

        One base fetch (the filter's cache lines, typically NVM-resident)
        plus a small per-hash cost; misses short-circuit after ~2 hashes,
        "maybe" answers evaluate all k.
        """
        return self.BLOOM_BASE_COST + probes * self.BLOOM_PROBE_COST
