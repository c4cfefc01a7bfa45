// MOAT (arXiv:2407.09995) secures the JEDEC PRAC framework with exactly one
// tracked row: every DRAM row carries an in-mat activation counter, and the
// tracker is just a register holding the hottest row currently above an
// internal threshold.
//
// Two thresholds drive it:
//
//   - ATI (threshold-internal): a row whose counter reaches ATI becomes the
//     pending mitigation candidate; the highest-count such row is mitigated
//     at the next mitigation opportunity (REF, or RFM when co-designed) and
//     its counter resets. This is the normal, zero-slowdown path.
//   - ATO (threshold-outstanding): a row whose counter reaches ATO raises
//     the PRAC ALERT — the controller back-pressures traffic and the row is
//     mitigated IMMEDIATELY (modelled via the ImmediateMitigator drain, the
//     same mechanism PARA uses). ATO is therefore a hard cap: no row can
//     ever accumulate more than ATO activations between mitigations, which
//     makes MOAT's analytic threshold simply TRH* = ATO, deterministically.
//
// MOAT is fully deterministic — no RNG — so it does NOT implement the
// skip-ahead contract: the event engines must take the exact per-ACT path
// (a pattern-dependent counter compare cannot be fast-forwarded), and a
// fallback test pins that the event engine's answer is bit-identical to the
// exact engine's.
//
// Storage accounting: the per-row counters live in the DRAM mats per PRAC,
// not in SRAM, so StorageBits counts only the tracker-side registers (the
// pending row and its valid bit). DRAMCounterBits reports the in-mat cost
// separately for the shootout table's footnote.
package tracker

import "fmt"

// Default MOAT thresholds: ATO=128 is the paper's headline configuration
// (TRH* = 128, far below any deployed device's threshold), with the internal
// threshold at 32 so the common case is handled by regular REFs and ALERT
// back-off stays rare.
const (
	DefaultMOATATI = 32
	DefaultMOATATO = 128
)

// MOATStatistics counts MOAT's decisions for analysis.
type MOATStatistics struct {
	// Activations is the number of demand ACTs observed.
	Activations uint64
	// Alerts counts ATO crossings (immediate mitigations).
	Alerts uint64
	// Mitigations counts pending rows mitigated at opportunities.
	Mitigations uint64
}

// MOAT is the per-row-counter tracker.
type MOAT struct {
	rows    int
	rowBits int
	ati     int
	ato     int

	counts []int32
	// hot is the number of rows currently at or above ATI — the backlog the
	// mitigation opportunities drain, reported as Occupancy.
	hot int

	pendingRow   int
	pendingValid bool
	alerts       []Mitigation

	stats MOATStatistics
}

var (
	_ Tracker            = (*MOAT)(nil)
	_ ImmediateMitigator = (*MOAT)(nil)
)

// NewMOAT returns a MOAT tracker over a bank of the given row count, with
// internal threshold ati and alert threshold ato. It panics on an invalid
// configuration.
func NewMOAT(rows, rowBits, ati, ato int) *MOAT {
	if rows < 1 {
		panic(fmt.Sprintf("moat: rows must be >= 1, got %d", rows))
	}
	if rowBits < 1 || 1<<rowBits < rows {
		panic(fmt.Sprintf("moat: %d row bits cannot address %d rows", rowBits, rows))
	}
	if ati < 1 {
		panic(fmt.Sprintf("moat: ATI must be >= 1, got %d", ati))
	}
	if ato <= ati {
		panic(fmt.Sprintf("moat: ATO (%d) must exceed ATI (%d)", ato, ati))
	}
	return &MOAT{rows: rows, rowBits: rowBits, ati: ati, ato: ato, counts: make([]int32, rows)}
}

// Name implements Tracker.
func (m *MOAT) Name() string { return "MOAT" }

// OnActivate bumps the row's counter. Crossing ATI makes the row the
// pending candidate if it is now the hottest; crossing ATO queues an
// immediate ALERT mitigation and resets the counter.
func (m *MOAT) OnActivate(row int) {
	m.stats.Activations++
	c := m.counts[row] + 1
	m.counts[row] = c
	switch {
	case int(c) >= m.ato:
		m.alerts = append(m.alerts, Mitigation{Row: row, Level: 1})
		m.counts[row] = 0
		m.hot--
		m.stats.Alerts++
		if m.pendingValid && m.pendingRow == row {
			m.pendingValid = false
		}
	case int(c) >= m.ati:
		if int(c) == m.ati {
			m.hot++
		}
		if !m.pendingValid || (row != m.pendingRow && c > m.counts[m.pendingRow]) {
			m.pendingRow = row
			m.pendingValid = true
		}
	}
}

// DrainImmediate implements ImmediateMitigator, returning and clearing the
// ALERT mitigations. The returned slice is reused: it is valid only until
// the next OnActivate.
func (m *MOAT) DrainImmediate() []Mitigation {
	out := m.alerts
	m.alerts = m.alerts[:0]
	return out
}

// OnMitigate mitigates the pending (hottest ATI-crossing) row, resetting its
// counter. Candidates are re-established by subsequent activations, matching
// the hardware's update-on-ACT register.
func (m *MOAT) OnMitigate() (Mitigation, bool) {
	if !m.pendingValid {
		return Mitigation{}, false
	}
	row := m.pendingRow
	m.pendingValid = false
	m.counts[row] = 0
	m.hot--
	m.stats.Mitigations++
	return Mitigation{Row: row, Level: 1}, true
}

// Occupancy implements Tracker: the number of rows at or above ATI awaiting
// mitigation.
func (m *MOAT) Occupancy() int { return m.hot }

// StorageBits implements Tracker: only the SRAM-side registers — the pending
// row register and its valid bit. The per-row counters are in-DRAM (PRAC),
// accounted by DRAMCounterBits.
func (m *MOAT) StorageBits() int { return m.rowBits + 1 }

// DRAMCounterBits returns the in-mat counter cost: one 0..ATO-1 counter per
// row (the counter resets upon reaching ATO, so ATO itself is never stored).
func (m *MOAT) DRAMCounterBits() int { return m.rows * CounterBits(m.ato-1) }

// Stats returns a copy of the decision counters.
func (m *MOAT) Stats() MOATStatistics { return m.stats }

// Reset implements Tracker.
func (m *MOAT) Reset() {
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.hot = 0
	m.pendingValid = false
	m.alerts = m.alerts[:0]
	m.stats = MOATStatistics{}
}
