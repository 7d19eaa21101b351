package trace

// ShardKey hashes a BlockID into a well-distributed 32-bit key for
// deterministic per-block partitioning (the ingest sampler keeps or drops
// whole blocks by it). Block IDs are small sequential integers, so a plain
// modulo would put neighbouring allocations in neighbouring partitions and
// make the distribution depend on allocation order; the finalizer scrambles
// the bits first.
func ShardKey(b BlockID) uint32 {
	// MurmurHash3 fmix32.
	x := uint32(b)
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Shard maps a BlockID onto one of n partitions. n must be positive.
func Shard(b BlockID, n int) int {
	return int(ShardKey(b) % uint32(n))
}
