package baseline

import (
	"fmt"

	"pride/internal/tracker"
)

// Graphene implements Park et al.'s Misra-Gries frequent-item tracker
// (MICRO 2020), the counter-based "optimal-class" design that Mithril and
// ProTRR build on (Section II-E, Table XI).
//
// A table of (row, counter) pairs plus a spillover counter maintains, per
// Misra-Gries, an underestimate of every row's activation count with bounded
// error. When a tracked row's estimated count reaches the mitigation
// threshold, the row is mitigated IMMEDIATELY (Graphene issues its own
// refreshes) and its counter rewinds.
//
// With enough entries (ACTs-per-tREFW / threshold) Graphene never misses an
// aggressor — but that is exactly the storage the paper's Table XI shows
// ballooning at low thresholds, and counter-based mitigation-at-threshold is
// what victim-sharing attacks exploit (Section VI): each aggressor can
// legally reach threshold-1 activations, so a victim shared by k aggressors
// absorbs k*(threshold-1) hammers without any refresh.
type Graphene struct {
	entries   int
	threshold int
	rowBits   int

	rows    []int
	counts  []int
	valid   []bool
	spill   int
	pending []tracker.Mitigation
}

var (
	_ tracker.Tracker            = (*Graphene)(nil)
	_ tracker.ImmediateMitigator = (*Graphene)(nil)
)

// NewGraphene returns a Graphene tracker that mitigates any row whose
// estimated count reaches threshold. entries should be at least
// ACTsPerTREFW/threshold for the no-miss guarantee; smaller tables degrade
// gracefully (higher estimation error).
func NewGraphene(entries, threshold, rowBits int) *Graphene {
	if entries <= 0 {
		panic(fmt.Sprintf("baseline: Graphene entries must be positive, got %d", entries))
	}
	if threshold <= 1 {
		panic(fmt.Sprintf("baseline: Graphene threshold must be > 1, got %d", threshold))
	}
	return &Graphene{
		entries:   entries,
		threshold: threshold,
		rowBits:   rowBits,
		rows:      make([]int, entries),
		counts:    make([]int, entries),
		valid:     make([]bool, entries),
	}
}

// Name implements tracker.Tracker.
func (g *Graphene) Name() string { return "Graphene" }

// OnActivate applies the Misra-Gries update and queues an immediate
// mitigation when a row's estimate reaches the threshold.
func (g *Graphene) OnActivate(row int) {
	minIdx, minCount := -1, int(^uint(0)>>1)
	for i := 0; i < g.entries; i++ {
		if !g.valid[i] {
			g.rows[i] = row
			g.counts[i] = g.spill + 1
			g.valid[i] = true
			g.checkThreshold(i)
			return
		}
		if g.rows[i] == row {
			g.counts[i]++
			g.checkThreshold(i)
			return
		}
		if g.counts[i] < minCount {
			minIdx, minCount = i, g.counts[i]
		}
	}
	// Misra-Gries miss on a full table: bump the spillover; if it reaches
	// the minimum tracked count, the new row takes that entry with count
	// spill+1 (the classic swap that preserves the error bound).
	g.spill++
	if g.spill >= minCount {
		g.rows[minIdx] = row
		g.counts[minIdx] = g.spill + 1
		g.checkThreshold(minIdx)
	}
}

// checkThreshold queues a mitigation and rewinds the counter when entry i
// crosses the mitigation threshold.
func (g *Graphene) checkThreshold(i int) {
	if g.counts[i] >= g.threshold {
		g.pending = append(g.pending, tracker.Mitigation{Row: g.rows[i], Level: 1})
		// Rewind: the row restarts counting (Graphene resets to the
		// spillover floor so the estimate stays an overcount of spill).
		g.counts[i] = g.spill
	}
}

// DrainImmediate implements tracker.ImmediateMitigator. The returned slice is
// reused: it is valid only until the next OnActivate.
func (g *Graphene) DrainImmediate() []tracker.Mitigation {
	out := g.pending
	g.pending = g.pending[:0]
	return out
}

// OnMitigate implements tracker.Tracker; Graphene mitigates inline, so the
// refresh hook does nothing.
func (g *Graphene) OnMitigate() (tracker.Mitigation, bool) {
	return tracker.Mitigation{}, false
}

// Occupancy implements tracker.Tracker.
func (g *Graphene) Occupancy() int {
	n := 0
	for _, v := range g.valid {
		if v {
			n++
		}
	}
	return n
}

// StorageBits implements tracker.Tracker: row + counter wide enough to
// represent 0..threshold + valid bit, plus the spillover counter.
func (g *Graphene) StorageBits() int {
	cb := tracker.CounterBits(g.threshold)
	return g.entries*(g.rowBits+cb+1) + cb
}

// Reset implements tracker.Tracker.
func (g *Graphene) Reset() {
	for i := range g.valid {
		g.valid[i] = false
		g.counts[i] = 0
	}
	g.spill = 0
	g.pending = nil
}
