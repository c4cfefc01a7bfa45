// Package baseline implements the Rowhammer trackers the paper compares
// PrIDE against: PARA at the memory controller (PARA-MC), PARA co-designed
// with RFM (PARFM), and the in-DRAM trackers DSAC, PRoHIT and a TRR-style
// deterministic sampler. Graphene, the counter-based tracker, backs the
// victim-sharing weakness of Section VI (Fig 13).
//
// Every implementation follows the published description of the scheme; the
// counter-driven ones deliberately retain the access-pattern-dependent
// policy decisions that Section II-G identifies as their root vulnerability,
// because reproducing Fig 15 requires their weaknesses to be faithful.
package baseline

import (
	"fmt"

	"pride/internal/rng"
	"pride/internal/tracker"
)

// PARA is Kim et al.'s probabilistic mitigation at the memory controller:
// on each activation, with probability p, the row's neighbours are refreshed
// immediately. It keeps no state at all, which makes it pattern-independent
// but — lacking DRAM adjacency knowledge and visibility into mitigative
// refreshes — vulnerable to transitive attacks (Section IV-G).
type PARA struct {
	p       float64
	pT      rng.Threshold
	rng     *rng.Stream
	pending []tracker.Mitigation
	acts    uint64
}

var (
	_ tracker.Tracker            = (*PARA)(nil)
	_ tracker.SkipAdvancer       = (*PARA)(nil)
	_ tracker.IdleMitigator      = (*PARA)(nil)
	_ tracker.ImmediateMitigator = (*PARA)(nil)
)

// NewPARA returns a PARA instance with refresh probability p.
func NewPARA(p float64, r *rng.Stream) *PARA {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("baseline: PARA probability must be in (0,1], got %v", p))
	}
	if r == nil {
		panic("baseline: nil rng stream")
	}
	return &PARA{p: p, pT: rng.NewThreshold(p), rng: r}
}

// Name implements tracker.Tracker.
func (p *PARA) Name() string { return "PARA-MC" }

// OnActivate samples the activation; selected rows are mitigated
// immediately (drained by the simulator after this call).
func (p *PARA) OnActivate(row int) {
	p.acts++
	if p.rng.BernoulliT(p.pT) {
		p.pending = append(p.pending, tracker.Mitigation{Row: row, Level: 1})
	}
}

// SupportsSkipAhead implements tracker.SkipAdvancer: PARA is stateless, so
// its sampling decision is unconditionally pattern-independent.
func (p *PARA) SupportsSkipAhead() bool { return true }

// InsertionProb implements tracker.SkipAdvancer, returning the
// lattice-rounded sampling probability (matching BernoulliT's firing rate).
func (p *PARA) InsertionProb() float64 { return p.pT.Prob() }

// AdvanceIdle implements tracker.SkipAdvancer: n activations whose sampling
// draws all failed change nothing but the activation count.
func (p *PARA) AdvanceIdle(n int) {
	if n < 0 {
		panic(fmt.Sprintf("baseline: AdvanceIdle(%d)", n))
	}
	p.acts += uint64(n)
}

// ActivateInsert implements tracker.SkipAdvancer: one activation whose
// sampling draw succeeded queues an immediate mitigation, consuming no
// draws.
func (p *PARA) ActivateInsert(row int) {
	p.acts++
	p.pending = append(p.pending, tracker.Mitigation{Row: row, Level: 1})
}

// DrainImmediate implements tracker.ImmediateMitigator. The returned slice is
// reused: it is valid only until the next OnActivate.
func (p *PARA) DrainImmediate() []tracker.Mitigation {
	out := p.pending
	p.pending = p.pending[:0]
	return out
}

// OnMitigate implements tracker.Tracker; PARA performs nothing at refresh.
func (p *PARA) OnMitigate() (tracker.Mitigation, bool) {
	return tracker.Mitigation{}, false
}

// AdvanceIdleMitigations implements tracker.IdleMitigator: PARA does
// nothing at refresh opportunities, so retiring n of them in bulk is a
// no-op (n is validated for contract symmetry).
func (p *PARA) AdvanceIdleMitigations(n int) {
	if n < 0 {
		panic(fmt.Sprintf("baseline: AdvanceIdleMitigations(%d)", n))
	}
}

// Occupancy implements tracker.Tracker; PARA tracks nothing.
func (p *PARA) Occupancy() int { return len(p.pending) }

// StorageBits implements tracker.Tracker: PARA only needs its RNG.
func (p *PARA) StorageBits() int { return 0 }

// Reset implements tracker.Tracker.
func (p *PARA) Reset() {
	p.pending = nil
	p.acts = 0
}

// PARFM is PARA co-designed with RFM per Mithril (Section V-C): every
// activated address since the last mitigation is buffered; at each
// mitigation opportunity one buffered entry is chosen uniformly at random,
// mitigated, and the whole buffer is cleared for the next epoch. It needs a
// buffer as large as the mitigation window (79 entries for DDR5, 166 for
// DDR4) and remains vulnerable to transitive attacks.
type PARFM struct {
	capacity int
	rowBits  int
	rng      *rng.Stream
	buf      []int
}

var _ tracker.Tracker = (*PARFM)(nil)

// NewPARFM returns a PARFM with the given buffer capacity (the mitigation
// window W).
func NewPARFM(capacity, rowBits int, r *rng.Stream) *PARFM {
	if capacity <= 0 {
		panic(fmt.Sprintf("baseline: PARFM capacity must be positive, got %d", capacity))
	}
	if r == nil {
		panic("baseline: nil rng stream")
	}
	return &PARFM{capacity: capacity, rowBits: rowBits, rng: r, buf: make([]int, 0, capacity)}
}

// Name implements tracker.Tracker.
func (p *PARFM) Name() string { return "PARFM" }

// OnActivate buffers every activated address (dropping extras beyond the
// epoch capacity, which cannot happen when capacity == W).
func (p *PARFM) OnActivate(row int) {
	if len(p.buf) < p.capacity {
		p.buf = append(p.buf, row)
	}
}

// OnMitigate picks a uniformly random buffered address, then clears the
// buffer for the next epoch.
func (p *PARFM) OnMitigate() (tracker.Mitigation, bool) {
	if len(p.buf) == 0 {
		return tracker.Mitigation{}, false
	}
	row := p.buf[p.rng.Intn(len(p.buf))]
	p.buf = p.buf[:0]
	return tracker.Mitigation{Row: row, Level: 1}, true
}

// Occupancy implements tracker.Tracker.
func (p *PARFM) Occupancy() int { return len(p.buf) }

// StorageBits implements tracker.Tracker.
func (p *PARFM) StorageBits() int { return p.capacity * p.rowBits }

// Reset implements tracker.Tracker.
func (p *PARFM) Reset() { p.buf = p.buf[:0] }
