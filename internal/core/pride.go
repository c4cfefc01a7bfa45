// Package core implements PrIDE, the paper's primary contribution: a
// Probabilistic In-DRAM tracker consisting of an N-entry FIFO buffer with
// probabilistic insertion (Section IV).
//
// PrIDE's three policies are all access-pattern independent:
//
//   - Insertion: every activation enters the buffer with probability p,
//     regardless of the buffer's contents (requirements R1 and R2 of
//     Section IV-B: invalid entries and duplicate hits do not change the
//     decision).
//   - Eviction: FIFO — inserting into a full buffer evicts the oldest entry.
//   - Mitigation: FIFO — each mitigation opportunity pops the oldest entry.
//
// Because no decision depends on which addresses are accessed, the failure
// probability of any attack round can be bounded analytically; the companion
// package internal/analytic computes those bounds.
//
// The default configuration matches the paper: 4 entries, p = 1/(W+1) = 1/80,
// and multi-level mitigation for transitive-attack protection (Section IV-E).
package core

import (
	"fmt"

	"pride/internal/guard"
	"pride/internal/rng"
	"pride/internal/tracker"
)

// Policy selects the eviction/mitigation victim. The paper's PrIDE uses
// FIFO for both; Random is provided for the Section VIII ablation (PROTEAS
// explored random policies — also access-pattern independent, but with a
// higher loss probability and unbounded tardiness).
type Policy int

const (
	// FIFO selects the oldest entry (PrIDE's choice).
	FIFO Policy = iota
	// Random selects a uniformly random valid entry.
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes a PrIDE tracker.
type Config struct {
	// Entries is the FIFO buffer size N (paper default: 4).
	Entries int
	// InsertionProb is the sampling probability p. The paper uses
	// 1/(W+1) = 1/80 with transitive protection, 1/W = 1/79 without,
	// and 1/17, 1/41 for the RFM16/RFM40 co-designs.
	InsertionProb float64
	// TransitiveProtection enables multi-level mitigation: a mitigated
	// row is re-inserted with probability p at level+1 (Section IV-E).
	TransitiveProtection bool
	// MaxLevel caps the mitigation level; the paper's entries carry a
	// 3-bit level, so the cap is 7. Levels beyond the cap are dropped
	// rather than wrapped.
	MaxLevel int
	// Eviction and Mitigation select the victim policies; both default
	// to FIFO (PrIDE). Setting either to Random yields the PROTEAS-style
	// ablation variant.
	Eviction   Policy
	Mitigation Policy
	// RowBits is the row-address width, used only for storage accounting
	// (17 bits for the paper's 128K-row banks).
	RowBits int

	// The following two switches deliberately VIOLATE requirements R1/R2
	// of Section IV-B. They exist only so tests and ablation benchmarks
	// can demonstrate why the requirements matter; never enable them in
	// a real configuration.

	// InsecureAlwaysInsertIfInvalid inserts unconditionally whenever the
	// buffer has an invalid entry (violates R1).
	InsecureAlwaysInsertIfInvalid bool
	// InsecureSkipDuplicates suppresses insertion when the row is already
	// tracked (violates R2).
	InsecureSkipDuplicates bool

	// SelfCheck enables runtime invariant guards on the FIFO structure
	// (occupancy and pointer bounds, entry-level ranges). A violated guard
	// panics with a guard.Violation. Off by default; the checks are integer
	// compares, enabled by the -selfcheck campaign flag.
	SelfCheck bool
}

// DefaultConfig returns the paper's default PrIDE configuration for a
// mitigation window of w activations (w = 79 for DDR5 with one mitigation
// per tREFI): 4 entries, p = 1/(w+1), transitive protection on.
func DefaultConfig(w int) Config {
	return Config{
		Entries:              4,
		InsertionProb:        1.0 / float64(w+1),
		TransitiveProtection: true,
		MaxLevel:             7,
		Eviction:             FIFO,
		Mitigation:           FIFO,
		RowBits:              17,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("pride: Entries must be positive, got %d", c.Entries)
	case c.InsertionProb <= 0 || c.InsertionProb > 1:
		return fmt.Errorf("pride: InsertionProb must be in (0,1], got %v", c.InsertionProb)
	case c.MaxLevel < 1:
		return fmt.Errorf("pride: MaxLevel must be >= 1, got %d", c.MaxLevel)
	case c.RowBits <= 0:
		return fmt.Errorf("pride: RowBits must be positive, got %d", c.RowBits)
	case c.Eviction != FIFO && c.Eviction != Random:
		return fmt.Errorf("pride: unknown eviction policy %v", c.Eviction)
	case c.Mitigation != FIFO && c.Mitigation != Random:
		return fmt.Errorf("pride: unknown mitigation policy %v", c.Mitigation)
	}
	return nil
}

// EventKind labels the tracker events an Observer can watch.
type EventKind int

const (
	// EventInsert fires when an entry enters the FIFO.
	EventInsert EventKind = iota
	// EventEvict fires when an entry is displaced without mitigation —
	// the raw material of Tracker Retention Failures.
	EventEvict
	// EventMitigate fires when an entry is popped for mitigation.
	EventMitigate
)

// String returns the event name.
func (k EventKind) String() string {
	switch k {
	case EventInsert:
		return "insert"
	case EventEvict:
		return "evict"
	case EventMitigate:
		return "mitigate"
	default:
		return "unknown"
	}
}

// entry is one FIFO slot: a row address and its 3-bit mitigation level.
type entry struct {
	row   int
	level int
}

// PrIDE is the probabilistic in-DRAM tracker (Figure 5). The FIFO is a
// circular buffer: ptr points at the oldest entry and occ counts the valid
// entries; the newest entry lives at (ptr+occ-1) mod N.
type PrIDE struct {
	cfg Config
	rng *rng.Stream
	// insertT is cfg.InsertionProb precomputed as an integer acceptance
	// threshold, so the per-ACT sampling decision is one raw draw plus an
	// integer compare (bit-identical to the float compare it replaces).
	insertT rng.Threshold

	buf []entry
	ptr int
	occ int

	stats    Statistics
	observer func(EventKind, int)
}

// Statistics counts the tracker's decisions for analysis and energy
// accounting.
type Statistics struct {
	// Activations is the number of demand ACTs observed.
	Activations uint64
	// Insertions counts successful buffer insertions (including
	// re-insertions from transitive protection).
	Insertions uint64
	// Evictions counts entries lost to FIFO (or random) eviction without
	// mitigation — the raw material of Tracker Retention Failures.
	Evictions uint64
	// Mitigations counts entries popped for mitigation.
	Mitigations uint64
	// Reinsertion counts transitive-protection re-insertions.
	Reinsertions uint64
	// IdleMitigations counts mitigation opportunities with an empty buffer.
	IdleMitigations uint64
}

var (
	_ tracker.Tracker        = (*PrIDE)(nil)
	_ tracker.SkipAdvancer   = (*PrIDE)(nil)
	_ tracker.IdleMitigator  = (*PrIDE)(nil)
	_ tracker.BatchActivator = (*PrIDE)(nil)
)

// New returns a PrIDE tracker with the given configuration, drawing
// randomness from the provided stream. It panics on an invalid
// configuration: tracker construction happens at experiment setup time,
// where a loud failure is the correct behaviour.
func New(cfg Config, r *rng.Stream) *PrIDE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if r == nil {
		panic("pride: nil rng stream")
	}
	return &PrIDE{
		cfg:     cfg,
		rng:     r,
		insertT: rng.NewThreshold(cfg.InsertionProb),
		buf:     make([]entry, cfg.Entries),
	}
}

// Name implements tracker.Tracker.
func (p *PrIDE) Name() string {
	if p.cfg.Eviction == Random || p.cfg.Mitigation == Random {
		return fmt.Sprintf("PrIDE(evict=%v,mitigate=%v)", p.cfg.Eviction, p.cfg.Mitigation)
	}
	return "PrIDE"
}

// Config returns the tracker's configuration.
func (p *PrIDE) Config() Config { return p.cfg }

// SetSelfCheck implements tracker.SelfChecker: it toggles the FIFO
// invariant guards at runtime, so campaign layers can enable them from one
// flag without reconstructing the tracker.
func (p *PrIDE) SetSelfCheck(on bool) { p.cfg.SelfCheck = on }

// check verifies the FIFO structural invariants: occupancy within
// [0, Entries], head pointer within [0, Entries). Called from the mutating
// operations when SelfCheck is on.
func (p *PrIDE) check(op string) {
	if p.occ < 0 || p.occ > p.cfg.Entries {
		guard.Failf("pride", "fifo-occupancy", "%s: occ %d outside [0,%d]", op, p.occ, p.cfg.Entries)
	}
	if p.ptr < 0 || p.ptr >= p.cfg.Entries {
		guard.Failf("pride", "fifo-pointer", "%s: ptr %d outside [0,%d)", op, p.ptr, p.cfg.Entries)
	}
}

// Observe registers fn to be called for every insert/evict/mitigate event
// with the affected row. The hardware has no such port; it exists for the
// loss-probability measurements of Fig 18 and for tests. Pass nil to
// detach.
func (p *PrIDE) Observe(fn func(kind EventKind, row int)) { p.observer = fn }

// emit notifies the observer, if any.
func (p *PrIDE) emit(kind EventKind, row int) {
	if p.observer != nil {
		p.observer(kind, row)
	}
}

// OnActivate observes a demand activation: the row is sampled for insertion
// with probability p, independent of the buffer state (R1, R2).
func (p *PrIDE) OnActivate(row int) {
	p.stats.Activations++

	insert := p.rng.BernoulliT(p.insertT)

	// Deliberate R1 violation for the ablation: always insert when the
	// buffer has room. This couples the insertion decision to buffer
	// state, inflating occupancy and thrashing (higher TRF).
	if p.cfg.InsecureAlwaysInsertIfInvalid && p.occ < p.cfg.Entries {
		insert = true
	}
	if !insert {
		return
	}
	// Deliberate R2 violation for the ablation: skip duplicates. The
	// existing entry may then be evicted with no replacement in flight.
	if p.cfg.InsecureSkipDuplicates && p.contains(row) {
		return
	}
	p.insert(entry{row: row, level: 1})
}

// OnActivateRows implements tracker.BatchActivator: the per-ACT insertion
// draws of rows run through one rng.Stream.FirstT loop that stops at each
// success, so the draws, and any eviction draw an insertion makes, come in
// exactly OnActivate's order. The insecure R1/R2 switches couple the
// decision to buffer state and keep the per-row path.
func (p *PrIDE) OnActivateRows(rows []int32) {
	if !p.SupportsSkipAhead() {
		for _, r := range rows {
			p.OnActivate(int(r))
		}
		return
	}
	for {
		i := p.rng.FirstT(p.insertT, len(rows))
		if i == len(rows) {
			p.stats.Activations += uint64(i)
			return
		}
		p.stats.Activations += uint64(i + 1)
		p.insert(entry{row: int(rows[i]), level: 1})
		rows = rows[i+1:]
	}
}

// SupportsSkipAhead implements tracker.SkipAdvancer. The insecure R1/R2
// ablation switches couple the insertion decision to buffer state, which
// breaks the i.i.d.-Bernoulli premise of geometric gap sampling; those
// configurations must run on the exact per-ACT engine.
func (p *PrIDE) SupportsSkipAhead() bool {
	return !p.cfg.InsecureAlwaysInsertIfInvalid && !p.cfg.InsecureSkipDuplicates
}

// InsertionProb implements tracker.SkipAdvancer. It returns the threshold's
// lattice-rounded probability rather than the raw configuration value so the
// gap sampler and the exact engine's BernoulliT fire at identical rates.
func (p *PrIDE) InsertionProb() float64 { return p.insertT.Prob() }

// AdvanceIdle implements tracker.SkipAdvancer: n activations whose insertion
// draws all failed. A failed draw changes nothing but the activation count,
// so the fast-forward is a single counter add. Consumes no draws.
func (p *PrIDE) AdvanceIdle(n int) {
	if n < 0 {
		panic(fmt.Sprintf("pride: AdvanceIdle(%d)", n))
	}
	p.stats.Activations += uint64(n)
}

// ActivateInsert implements tracker.SkipAdvancer: one activation whose
// insertion draw succeeded. Consumes no draws — the caller's geometric gap
// draw already decided this insertion.
func (p *PrIDE) ActivateInsert(row int) {
	p.stats.Activations++
	p.insert(entry{row: row, level: 1})
}

// AdvanceIdleMitigations implements tracker.IdleMitigator: n mitigation
// opportunities that each found the buffer empty. An empty pop returns
// before any draw, policy decision, or observer event (see OnMitigate), so
// the fast-forward is a single counter add. Consumes no draws.
func (p *PrIDE) AdvanceIdleMitigations(n int) {
	if n < 0 {
		panic(fmt.Sprintf("pride: AdvanceIdleMitigations(%d)", n))
	}
	p.stats.IdleMitigations += uint64(n)
}

// insert places e at the FIFO tail, evicting per the eviction policy when
// the buffer is full.
func (p *PrIDE) insert(e entry) {
	if p.cfg.SelfCheck && (e.level < 1 || e.level > p.cfg.MaxLevel) {
		guard.Failf("pride", "entry-level", "insert: level %d outside [1,%d]", e.level, p.cfg.MaxLevel)
	}
	if p.occ == p.cfg.Entries {
		p.evict()
	}
	p.buf[(p.ptr+p.occ)%p.cfg.Entries] = e
	p.occ++
	p.stats.Insertions++
	if p.cfg.SelfCheck {
		p.check("insert")
	}
	p.emit(EventInsert, e.row)
}

// evict removes one entry without mitigation.
func (p *PrIDE) evict() {
	if p.cfg.SelfCheck && p.occ <= 0 {
		guard.Failf("pride", "fifo-occupancy", "evict: occ %d, nothing to evict", p.occ)
	}
	switch p.cfg.Eviction {
	case FIFO:
		p.emit(EventEvict, p.buf[p.ptr].row)
		p.ptr = (p.ptr + 1) % p.cfg.Entries
	case Random:
		k := p.rng.Intn(p.occ)
		p.emit(EventEvict, p.buf[(p.ptr+k)%p.cfg.Entries].row)
		p.removeAt(k)
	}
	p.occ--
	p.stats.Evictions++
}

// removeAt removes the k-th oldest entry (0 = head) while preserving the
// queue order of the survivors: entries older than the victim shift one slot
// toward the tail, then the head pointer advances past the vacated slot. N
// is at most a handful of entries, so the shift is a few struct copies. The
// caller decrements occ.
func (p *PrIDE) removeAt(k int) {
	n := p.cfg.Entries
	for i := k; i > 0; i-- {
		p.buf[(p.ptr+i)%n] = p.buf[(p.ptr+i-1)%n]
	}
	p.ptr = (p.ptr + 1) % n
}

// OnMitigate pops one entry per the mitigation policy. With transitive
// protection, the mitigated row is re-inserted with probability p at
// level+1, giving the mitigative activations themselves a chance of being
// mitigated (Section IV-E).
func (p *PrIDE) OnMitigate() (tracker.Mitigation, bool) {
	if p.occ == 0 {
		p.stats.IdleMitigations++
		return tracker.Mitigation{}, false
	}
	var e entry
	switch p.cfg.Mitigation {
	case FIFO:
		e = p.buf[p.ptr]
		p.ptr = (p.ptr + 1) % p.cfg.Entries
	case Random:
		k := p.rng.Intn(p.occ)
		e = p.buf[(p.ptr+k)%p.cfg.Entries]
		p.removeAt(k)
	}
	p.occ--
	p.stats.Mitigations++
	if p.cfg.SelfCheck {
		p.check("mitigate")
		if e.level < 1 || e.level > p.cfg.MaxLevel {
			guard.Failf("pride", "entry-level", "mitigate: popped level %d outside [1,%d]", e.level, p.cfg.MaxLevel)
		}
	}
	p.emit(EventMitigate, e.row)

	if p.cfg.TransitiveProtection && e.level < p.cfg.MaxLevel {
		if p.rng.BernoulliT(p.insertT) {
			p.insert(entry{row: e.row, level: e.level + 1})
			p.stats.Reinsertions++
		}
	}
	return tracker.Mitigation{Row: e.row, Level: e.level}, true
}

// Occupancy implements tracker.Tracker.
func (p *PrIDE) Occupancy() int { return p.occ }

// Contains reports whether row is currently tracked. Exposed for tests and
// analysis; the hardware would have no such read port.
func (p *PrIDE) Contains(row int) bool { return p.contains(row) }

func (p *PrIDE) contains(row int) bool {
	for i := 0; i < p.occ; i++ {
		if p.buf[(p.ptr+i)%p.cfg.Entries].row == row {
			return true
		}
	}
	return false
}

// Snapshot returns the queue contents oldest-first, as (row, level) pairs.
func (p *PrIDE) Snapshot() []tracker.Mitigation {
	out := make([]tracker.Mitigation, 0, p.occ)
	for i := 0; i < p.occ; i++ {
		e := p.buf[(p.ptr+i)%p.cfg.Entries]
		out = append(out, tracker.Mitigation{Row: e.row, Level: e.level})
	}
	return out
}

// StorageBits implements tracker.Tracker: N entries of (rowBits + 3-bit
// level), plus the PTR register (indexes 0..N-1, ceil(log2 N) bits) and the
// Occ register (counts 0..N inclusive, so ceil(log2(N+1)) bits — one more
// value than PTR, and for non-power-of-two N often the same width). Both are
// negligible; we count them anyway for honesty.
func (p *PrIDE) StorageBits() int {
	perEntry := p.cfg.RowBits + 3
	regBits := ceilLog2(p.cfg.Entries) + ceilLog2(p.cfg.Entries+1)
	return p.cfg.Entries*perEntry + regBits
}

// Stats returns a copy of the decision counters.
func (p *PrIDE) Stats() Statistics { return p.stats }

// Reset implements tracker.Tracker.
func (p *PrIDE) Reset() {
	p.ptr = 0
	p.occ = 0
	p.stats = Statistics{}
}

func ceilLog2(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}
