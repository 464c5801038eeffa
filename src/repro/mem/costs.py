"""CPU-side cost model.

Device models charge for bytes moved; this model charges for the CPU work
around them: serializing KV pairs into SSTable blocks, deserializing them
back (the cost the paper measures at 50-59% of read time for the
baselines), skip-list traversal hops, and key comparisons.

Hop costs differ per device because a skip-list hop is a dependent pointer
chase -- its cost is dominated by the access latency of the medium holding
the node, which is exactly why the paper stages writes in DRAM.
"""

GB = 1 << 30
NS = 1e-9


#: Nominal key size the bloom build cost hashes per key.
_KEY_BYTES = 16


class CpuCostModel:
    """CPU costs, all in seconds (or bytes per second).

    The eight class constants are the calibration table
    (docs/cost_model.md); every figure was produced with these values.
    """

    SERIALIZE_BW = 1.2 * GB
    DESERIALIZE_BW = 0.9 * GB
    DRAM_HOP = 25 * NS
    NVM_HOP = 120 * NS
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

    def hop_time(self, device_name: str) -> float:
        """CPU+latency cost of following one skip-list pointer."""
        if device_name == "dram":
            return self.DRAM_HOP
        return self.NVM_HOP

    def hop_cost(self, device_name: str) -> float:
        """Search cost per hop (pointer chase plus one key compare)."""
        return self.hop_time(device_name) + self.COMPARE_COST

    def skiplist_search_time(self, device_name: str, hops: int) -> float:
        """Cost of a search that followed ``hops`` pointers."""
        return hops * self.hop_cost(device_name)

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
