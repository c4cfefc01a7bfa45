// MINT — the Minimalist In-DRAM Tracker (arXiv:2407.16038, same author
// cluster as PrIDE) — is the logical endpoint of the probabilistic-tracker
// line: a SINGLE tracking slot and a schedule instead of per-ACT coin flips.
//
// At the start of each mitigation interval (the W activations between
// consecutive mitigation opportunities) MINT draws one target position X
// uniformly from [1, W]. The X-th activation of the interval is captured
// into the slot; at the interval's end the captured row is mitigated and a
// fresh X is drawn for the next interval. Every activation therefore has
// exactly probability 1/W of being selected, yet the tracker makes no
// per-ACT draws at all — selection is decided before the interval begins,
// independent of which rows are accessed. That keeps MINT
// pattern-oblivious like PrIDE (the analytic bound of Eq. 4 applies with
// p = 1/W) while shrinking storage to a single row register plus two
// ceil(log2 W)-bit counters.
//
// Differences from PrIDE worth keeping in mind when reading the shootout
// table: MINT has no transitive protection (every mitigation is level 1),
// its tardiness is one window (W) instead of N*W, and it has zero retention
// loss — the slot is always mitigated before it can be displaced.
package tracker

import (
	"fmt"

	"pride/internal/guard"
	"pride/internal/rng"
)

// MINTStatistics counts MINT's decisions for analysis.
type MINTStatistics struct {
	// Activations is the number of demand ACTs observed.
	Activations uint64
	// Captures counts activations selected into the slot.
	Captures uint64
	// Mitigations counts captured rows handed to the mitigation engine.
	Mitigations uint64
	// EmptyIntervals counts mitigation opportunities where the interval
	// held fewer activations than the target position (nothing captured).
	EmptyIntervals uint64
}

// MINT is the single-slot interval tracker. The position counter saturates
// at W: once the interval's target position has passed (captured or not),
// further activations in an over-long interval cannot change the slot, which
// is exactly the behaviour of a hardware counter sized for one tREFI.
type MINT struct {
	w       int
	rowBits int
	rng     *rng.Stream

	pos       int // activations observed this interval, saturating at w
	target    int // 1-based position selected for capture this interval
	slotRow   int
	slotValid bool

	selfCheck bool
	stats     MINTStatistics
}

var (
	_ Tracker           = (*MINT)(nil)
	_ ScheduledAdvancer = (*MINT)(nil)
	_ SelfChecker       = (*MINT)(nil)
)

// NewMINT returns a MINT tracker for a mitigation window of w activations
// (w = 79 for DDR5 with one mitigation per tREFI), drawing its per-interval
// target positions from r. rowBits sizes the slot's row register for storage
// accounting. It panics on an invalid configuration.
func NewMINT(w, rowBits int, r *rng.Stream) *MINT {
	if w < 1 {
		panic(fmt.Sprintf("mint: window must be >= 1, got %d", w))
	}
	if rowBits < 1 {
		panic(fmt.Sprintf("mint: rowBits must be >= 1, got %d", rowBits))
	}
	if r == nil {
		panic("mint: nil rng stream")
	}
	m := &MINT{w: w, rowBits: rowBits, rng: r}
	m.drawTarget()
	return m
}

// drawTarget selects the next interval's capture position uniformly from
// [1, w]. A single raw draw with a modulo fold (negligible bias at 64 bits)
// rather than rejection sampling, so rigged constant test sources terminate.
func (m *MINT) drawTarget() {
	m.target = 1 + int(m.rng.Uint64()%uint64(m.w))
}

// Name implements Tracker.
func (m *MINT) Name() string { return "MINT" }

// SetSelfCheck implements SelfChecker.
func (m *MINT) SetSelfCheck(on bool) { m.selfCheck = on }

// OnActivate observes one demand activation: if it sits at the interval's
// selected position, it is captured into the slot. No draws.
func (m *MINT) OnActivate(row int) {
	m.stats.Activations++
	if m.pos >= m.w {
		return // interval over-ran the window; the schedule has passed
	}
	m.pos++
	if m.pos == m.target {
		m.slotRow = row
		m.slotValid = true
		m.stats.Captures++
	}
}

// OnMitigate ends the interval: the captured row (if any) is mitigated at
// level 1, the position counter resets, and the next interval's target is
// drawn — the one draw MINT makes per mitigation opportunity.
func (m *MINT) OnMitigate() (Mitigation, bool) {
	out, ok := Mitigation{}, false
	if m.slotValid {
		out, ok = Mitigation{Row: m.slotRow, Level: 1}, true
		m.slotValid = false
		m.stats.Mitigations++
	} else {
		m.stats.EmptyIntervals++
	}
	m.pos = 0
	m.drawTarget()
	return out, ok
}

// SupportsSkipAhead implements ScheduledAdvancer: MINT's selection is fixed
// before the interval begins, so it is unconditionally pattern-independent.
func (m *MINT) SupportsSkipAhead() bool { return true }

// NextInsert implements ScheduledAdvancer: the distance to the scheduled
// capture, or ok=false once the interval's slot has passed.
func (m *MINT) NextInsert() (int, bool) {
	if m.pos >= m.target {
		return 0, false
	}
	return m.target - m.pos - 1, true
}

// AdvanceIdle implements ScheduledAdvancer: n activations that do not reach
// the scheduled position. The fast-forward is a saturating counter add.
func (m *MINT) AdvanceIdle(n int) {
	if n < 0 {
		panic(fmt.Sprintf("mint: AdvanceIdle(%d)", n))
	}
	m.stats.Activations += uint64(n)
	if m.selfCheck && m.pos < m.target && m.pos+n >= m.target {
		guard.Failf("mint", "schedule-crossed",
			"AdvanceIdle(%d) from position %d crosses the scheduled slot %d", n, m.pos, m.target)
	}
	m.pos += n
	if m.pos > m.w {
		m.pos = m.w
	}
}

// ActivateInsert implements ScheduledAdvancer: the activation at the
// scheduled position, captured without a draw.
func (m *MINT) ActivateInsert(row int) {
	m.stats.Activations++
	if m.selfCheck && m.pos+1 != m.target {
		guard.Failf("mint", "schedule-position",
			"ActivateInsert at position %d, schedule says %d", m.pos+1, m.target)
	}
	if m.pos < m.w {
		m.pos++
	}
	m.slotRow = row
	m.slotValid = true
	m.stats.Captures++
}

// Occupancy implements Tracker.
func (m *MINT) Occupancy() int {
	if m.slotValid {
		return 1
	}
	return 0
}

// Snapshot returns the slot contents oldest-first (at most one entry), for
// the conformance suite's FIFO-order property.
func (m *MINT) Snapshot() []Mitigation {
	if !m.slotValid {
		return nil
	}
	return []Mitigation{{Row: m.slotRow, Level: 1}}
}

// StorageBits implements Tracker, itemized against the paper's bit budget:
// the row register (rowBits) with its valid bit, the interval position
// counter (0..W, ceil(log2(W+1)) bits), and the target-position register
// (1..W, ceil(log2 W) bits). For rowBits=17 and W=79 this is 32 bits —
// versus PrIDE's 85 and the kilobit-scale counter tables.
func (m *MINT) StorageBits() int {
	return m.rowBits + 1 + CounterBits(m.w) + CounterBits(m.w-1)
}

// Stats returns a copy of the decision counters.
func (m *MINT) Stats() MINTStatistics { return m.stats }

// Reset implements Tracker: the slot and interval position clear, and a
// fresh target is drawn from the stream (the schedule cannot rewind — like
// hardware, a reset starts a new interval rather than replaying an old one).
func (m *MINT) Reset() {
	m.pos = 0
	m.slotValid = false
	m.stats = MINTStatistics{}
	m.drawTarget()
}
