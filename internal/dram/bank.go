package dram

import (
	"fmt"

	"pride/internal/guard"
)

// Flip records a Rowhammer failure: a victim row crossed the device's
// Rowhammer threshold without an intervening refresh.
type Flip struct {
	// Row is the victim row that flipped.
	Row int
	// Hammers is the disturbance count at the moment of the flip.
	Hammers int
	// ACTIndex is the global activation index at which the flip occurred.
	ACTIndex uint64
}

// Stats aggregates the activity counters a Bank maintains; the energy model
// and the experiment harnesses both consume them.
type Stats struct {
	// DemandACTs counts activations issued by the memory controller.
	DemandACTs uint64
	// MitigativeACTs counts activations performed internally by victim
	// refreshes (each refreshed row is one activation).
	MitigativeACTs uint64
	// Mitigations counts mitigation operations (one per tracker pop).
	Mitigations uint64
	// PeriodicRefreshes counts rows refreshed by the regular REF stream.
	PeriodicRefreshes uint64
	// Flips counts Rowhammer failures observed.
	Flips uint64
}

// Bank is a behavioural model of one DRAM bank: per-row disturbance
// accounting with a configurable blast radius and Rowhammer threshold.
//
// Activations of row r disturb rows r±1..r±BlastRadius. Refreshing a row
// resets its disturbance count, and — because a refresh is internally an
// activation of that row — disturbs *its* neighbours in turn. This is the
// physical mechanism behind transitive attacks such as Half-Double
// (Section IV-E, Figure 10), and the model reproduces it faithfully.
type Bank struct {
	params Params
	trh    int

	// hammers[r] counts disturbances to row r since r was last refreshed.
	hammers []int
	// actRun[r] counts activations of row r since a mitigation last
	// targeted r (the paper's "attack round" length for r, Section III-A).
	actRun []int
	// flipped[r] marks rows already reported as failed, so one sustained
	// over-threshold run yields one Flip.
	flipped []bool

	// maxDisturbance is the paper's Fig 15 metric: the maximum number of
	// activations any row received before a mitigation ended its round.
	maxDisturbance int
	// maxHammers is the peak disturbance any victim row accumulated.
	maxHammers int

	refreshCursor int
	actIndex      uint64
	stats         Stats
	flips         []Flip
	// flipScratch is HammerN's reusable candidate buffer (≤ 2·BlastRadius
	// entries), kept on the bank so bursts stay allocation-free.
	flipScratch []Flip
	// cplan caches HammerCycle's compiled group schedule, keyed on the
	// group slice's identity. Depends only on params and the group, never
	// on disturbance state, so it survives Reset.
	cplan *cyclePlan

	// onFlip, when non-nil, is invoked for every failure as it happens.
	onFlip func(Flip)

	// selfCheck enables runtime invariant guards (flip-accounting
	// consistency, activation-run bounds). Not part of Params so enabling
	// it never perturbs checkpoint keys. Survives Reset.
	selfCheck bool
}

// NewBank returns a bank with the given parameters and device Rowhammer
// threshold trh (the number of disturbances a victim tolerates before
// flipping). trh <= 0 disables failure detection, which is useful when only
// disturbance metrics are wanted.
func NewBank(p Params, trh int) (*Bank, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Bank{
		params:  p,
		trh:     trh,
		hammers: make([]int, p.RowsPerBank),
		actRun:  make([]int, p.RowsPerBank),
		flipped: make([]bool, p.RowsPerBank),
	}, nil
}

// MustNewBank is NewBank for callers with compile-time-correct parameters.
func MustNewBank(p Params, trh int) *Bank {
	b, err := NewBank(p, trh)
	if err != nil {
		panic(err)
	}
	return b
}

// Params returns the bank's timing/structural parameters.
func (b *Bank) Params() Params { return b.params }

// Rows returns the number of rows in the bank.
func (b *Bank) Rows() int { return b.params.RowsPerBank }

// OnFlip registers fn to be called for each Rowhammer failure.
func (b *Bank) OnFlip(fn func(Flip)) { b.onFlip = fn }

// SetSelfCheck enables or disables the bank's runtime invariant guards.
func (b *Bank) SetSelfCheck(on bool) { b.selfCheck = on }

// Activate issues a demand activation to row: the one-row case of
// ActivateRows. It returns the row's activation-run length so callers can
// track disturbance without re-reading state.
func (b *Bank) Activate(row int) int {
	b.mustValidRow(row)
	one := [1]int32{int32(row)}
	b.ActivateRows(one[:])
	return b.actRun[row]
}

// ActivateRows issues one demand activation per row, in order. An
// activation senses and restores the row's own cells, so the activated
// row's disturbance count resets — this is why PrIDE's multi-level
// mitigation never needs to refresh the aggressor row itself (Section
// IV-E: "the aggressor row A does not need to be refreshed") — and every
// row within the blast radius takes one disturbance. The ACT index,
// maxima and demand count live in locals for the whole loop and are
// written back before a flip is reported and at the end, so callers and
// OnFlip observers see exactly the state per-row activation would leave.
// A row out of range panics after the rows before it took effect.
func (b *Bank) ActivateRows(rows []int32) {
	// Slicing the arrays to one length lets the compiler drop their bounds
	// checks once row is known to be in range.
	nrows, radius, trh := len(b.hammers), b.params.BlastRadius, b.trh
	hammers, actRun, flipped := b.hammers, b.actRun[:nrows], b.flipped[:nrows]
	idx, demand := b.actIndex, b.stats.DemandACTs
	maxRun, maxHam := b.maxDisturbance, b.maxHammers
	check := b.selfCheck
	for i, r := range rows {
		row := int(r)
		if uint(row) >= uint(nrows) {
			b.commit(idx, demand+uint64(i), maxRun, maxHam)
			panic(fmt.Sprintf("dram: row %d out of range [0,%d)", row, nrows))
		}
		idx++
		hammers[row] = 0
		flipped[row] = false
		run := actRun[row] + 1
		actRun[row] = run
		if run > maxRun {
			maxRun = run
		}
		if check && uint64(run) > idx {
			guard.Failf("dram.bank", "actrun-bound", "row %d run %d exceeds global ACT index %d", row, run, idx)
		}
		for d := 1; d <= radius; d++ {
			// Victims below, then above: the order same-ACT flips are
			// reported in.
			if v := row - d; v >= 0 {
				h := hammers[v] + 1
				hammers[v] = h
				if h > maxHam {
					maxHam = h
				}
				if h >= trh && trh > 0 && !flipped[v] {
					b.commit(idx, demand+uint64(i)+1, maxRun, maxHam)
					b.flip(v)
				}
			}
			if v := row + d; v < nrows {
				h := hammers[v] + 1
				hammers[v] = h
				if h > maxHam {
					maxHam = h
				}
				if h >= trh && trh > 0 && !flipped[v] {
					b.commit(idx, demand+uint64(i)+1, maxRun, maxHam)
					b.flip(v)
				}
			}
		}
	}
	b.commit(idx, demand+uint64(len(rows)), maxRun, maxHam)
}

// commit writes ActivateRows' loop locals back to the bank.
func (b *Bank) commit(idx, demand uint64, maxRun, maxHam int) {
	b.actIndex, b.stats.DemandACTs = idx, demand
	b.maxDisturbance, b.maxHammers = maxRun, maxHam
}

// HammerN issues n consecutive demand activations to row in closed form.
// It is ACT-for-ACT equivalent to calling Activate(row) n times — counters,
// disturbance state, maxima, and the Flip records (victim, hammer count,
// and global ACT index, in the same order) all match the stepped path — but
// costs O(BlastRadius) instead of O(n·BlastRadius). The event-driven
// engines use it to retire a whole hammer burst between cadence boundaries
// in one call. It returns the row's activation-run length after the burst.
func (b *Bank) HammerN(row, n int) int {
	b.mustValidRow(row)
	if n < 0 {
		panic(fmt.Sprintf("dram: HammerN(%d, %d)", row, n))
	}
	if n == 0 {
		return b.actRun[row]
	}
	startIndex := b.actIndex
	b.actIndex += uint64(n)
	b.stats.DemandACTs += uint64(n)
	// Each activation resets the activated row's own disturbance state, so
	// only the final reset is observable.
	b.hammers[row] = 0
	b.flipped[row] = false
	// actRun grows monotonically through the burst; the final value
	// dominates every intermediate maximum.
	b.actRun[row] += n
	if b.actRun[row] > b.maxDisturbance {
		b.maxDisturbance = b.actRun[row]
	}
	// Victims within the blast radius each take n disturbances. A victim
	// whose count crosses the threshold flips exactly once, at the k-th
	// activation of the burst (1-based) where its count first reaches trh;
	// the stepped path orders same-ACT flips by the d-loop visit order, so
	// candidates are collected in that order and stable-sorted by k.
	b.flipScratch = b.flipScratch[:0]
	for d := 1; d <= b.params.BlastRadius; d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || v >= len(b.hammers) {
				continue
			}
			start := b.hammers[v]
			b.hammers[v] = start + n
			if b.hammers[v] > b.maxHammers {
				b.maxHammers = b.hammers[v]
			}
			if b.trh > 0 && b.hammers[v] >= b.trh && !b.flipped[v] {
				k := b.trh - start
				if k < 1 {
					k = 1 // already over threshold: flips on the first ACT
				}
				if b.selfCheck && k > n {
					guard.Failf("dram.bank", "flip-accounting", "burst flip of row %d at intra-burst ACT %d > burst length %d", v, k, n)
				}
				b.flipped[v] = true
				b.flipScratch = append(b.flipScratch, Flip{
					Row:      v,
					Hammers:  start + k,
					ACTIndex: startIndex + uint64(k),
				})
			}
		}
	}
	// Stable insertion sort by ACT index (at most 2·BlastRadius entries).
	for i := 1; i < len(b.flipScratch); i++ {
		for j := i; j > 0 && b.flipScratch[j].ACTIndex < b.flipScratch[j-1].ACTIndex; j-- {
			b.flipScratch[j], b.flipScratch[j-1] = b.flipScratch[j-1], b.flipScratch[j]
		}
	}
	for _, f := range b.flipScratch {
		b.flips = append(b.flips, f)
		b.stats.Flips++
		if b.onFlip != nil {
			b.onFlip(f)
		}
	}
	return b.actRun[row]
}

// disturbNeighbors increments the hammer count of every row within the blast
// radius of row and detects threshold crossings: the disturbance of a
// refresh, which activates the row internally but is no demand ACT.
func (b *Bank) disturbNeighbors(row int) {
	for d := 1; d <= b.params.BlastRadius; d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || v >= len(b.hammers) {
				continue
			}
			b.hammers[v]++
			if b.hammers[v] > b.maxHammers {
				b.maxHammers = b.hammers[v]
			}
			if b.trh > 0 && b.hammers[v] >= b.trh && !b.flipped[v] {
				b.flip(v)
			}
		}
	}
}

// flip records victim v's first threshold crossing at the current ACT
// index. The count steps by one per disturbance, so the crossing lands
// exactly on the threshold.
func (b *Bank) flip(v int) {
	if b.selfCheck && b.hammers[v] > b.trh {
		guard.Failf("dram.bank", "flip-accounting", "row %d first crossed threshold at %d > trh %d", v, b.hammers[v], b.trh)
	}
	b.flipped[v] = true
	f := Flip{Row: v, Hammers: b.hammers[v], ACTIndex: b.actIndex}
	b.flips = append(b.flips, f)
	b.stats.Flips++
	if b.onFlip != nil {
		b.onFlip(f)
	}
}

// refreshRow resets row's disturbance state. A refresh is internally an
// activation of the row, so it disturbs the row's own neighbours; that is
// the "silent activation" transitive attacks exploit.
func (b *Bank) refreshRow(row int) {
	if row < 0 || row >= len(b.hammers) {
		return // refreshes beyond the array edge are harmless no-ops
	}
	b.hammers[row] = 0
	b.flipped[row] = false
	b.disturbNeighbors(row)
}

// Mitigate performs a victim refresh for aggressor row at the given
// mitigation level: rows row-level*R.. and row+level*R.. within one blast
// radius band at distance level are refreshed (Section IV-E: level m
// refreshes the m-th neighbours). Level 1 is the ordinary victim refresh.
// It returns the number of rows refreshed.
func (b *Bank) Mitigate(row, level int) int {
	b.mustValidRow(row)
	if level < 1 {
		panic(fmt.Sprintf("dram: mitigation level must be >= 1, got %d", level))
	}
	b.stats.Mitigations++
	refreshed := 0
	r := b.params.BlastRadius
	// Level m refreshes the band of rows at distances ((m-1)*R, m*R] on
	// each side: for R=1 that is exactly rows row±m.
	for d := (level-1)*r + 1; d <= level*r; d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || v >= len(b.hammers) {
				continue
			}
			b.refreshRow(v)
			b.stats.MitigativeACTs++
			refreshed++
		}
	}
	// A mitigation targeting row ends row's attack round (Section III-A).
	if level == 1 {
		b.actRun[row] = 0
	}
	return refreshed
}

// StepRefresh models one REF command's worth of periodic refresh: the next
// RowsPerBank/TREFIsPerTREFW rows in sequence are refreshed. Periodic
// refreshes reset hammer counts but, as genuine row activations, also
// disturb neighbours.
func (b *Bank) StepRefresh() {
	n := b.params.RowsPerBank / b.params.TREFIsPerTREFW()
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		row := b.refreshCursor
		b.refreshCursor = (b.refreshCursor + 1) % b.params.RowsPerBank
		b.refreshRow(row)
		b.stats.PeriodicRefreshes++
	}
}

// HammerCount returns the current disturbance count of row.
func (b *Bank) HammerCount(row int) int {
	b.mustValidRow(row)
	return b.hammers[row]
}

// ActivationRun returns the length of row's current attack round.
func (b *Bank) ActivationRun(row int) int {
	b.mustValidRow(row)
	return b.actRun[row]
}

// MaxDisturbance returns the maximum activations any row received before a
// mitigation ended its round (Fig 15's metric).
func (b *Bank) MaxDisturbance() int { return b.maxDisturbance }

// MaxHammers returns the peak disturbance any victim accumulated.
func (b *Bank) MaxHammers() int { return b.maxHammers }

// Flips returns all recorded failures in occurrence order.
func (b *Bank) Flips() []Flip { return b.flips }

// Stats returns a copy of the bank's activity counters.
func (b *Bank) Stats() Stats { return b.stats }

// Reset clears all disturbance state and statistics, keeping parameters.
func (b *Bank) Reset() {
	clear(b.hammers)
	clear(b.actRun)
	clear(b.flipped)
	b.maxDisturbance = 0
	b.maxHammers = 0
	b.refreshCursor = 0
	b.actIndex = 0
	b.stats = Stats{}
	b.flips = nil
}

func (b *Bank) mustValidRow(row int) {
	if row < 0 || row >= b.params.RowsPerBank {
		panic(fmt.Sprintf("dram: row %d out of range [0,%d)", row, b.params.RowsPerBank))
	}
}
