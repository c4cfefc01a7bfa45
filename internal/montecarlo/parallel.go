package montecarlo

// Sharding plan: a simulation budget is cut into independent chunks, each
// driven by its own index-derived RNG stream (rng.Derived(seed, chunk)).
// The plan is a pure function of the budget — never of the worker count —
// so the merged result is bit-for-bit identical for any number of workers,
// including 1. Chunks target a pool-friendly count while staying large
// enough that the per-chunk warm-up transient (each chunk starts with an
// empty FIFO rather than a stationary one) stays statistically negligible.
const (
	// targetChunks is the sharding granularity: enough chunks that pools of
	// any practical width load-balance, few enough that per-chunk overhead
	// and warm-up bias vanish.
	targetChunks = 64
	// minLossChunkPeriods floors the chunk size so tiny budgets are not
	// atomized (the warm-up transient is tens of windows per chunk).
	minLossChunkPeriods = 4096
)

// chunkSizes cuts total into deterministic shard sizes of at least minChunk,
// independent of worker count.
func chunkSizes(total, minChunk int) []int {
	chunk := (total + targetChunks - 1) / targetChunks
	if chunk < minChunk {
		chunk = minChunk
	}
	n := (total + chunk - 1) / chunk
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = chunk
	}
	sizes[n-1] = total - (n-1)*chunk
	return sizes
}

// merge accumulates o into r (same configuration, so equal slice lengths).
func (r *LossResult) merge(o LossResult) {
	for i := range o.PerPosition {
		r.PerPosition[i].Insertions += o.PerPosition[i].Insertions
		r.PerPosition[i].Evicted += o.PerPosition[i].Evicted
		r.PerPosition[i].Mitigated += o.PerPosition[i].Mitigated
	}
	for i := range o.StartOccupancy {
		r.StartOccupancy[i] += o.StartOccupancy[i]
	}
}
