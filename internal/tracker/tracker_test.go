package tracker_test

import (
	"testing"

	"pride/internal/baseline"
	"pride/internal/core"
	"pride/internal/rng"
	"pride/internal/tracker"
	"pride/internal/tracker/trackertest"
)

// TestConformance runs the shared tracker contract suite against PrIDE and
// every baseline, so the comparison experiments can swap any of them behind
// the tracker.Tracker interface without scheme-specific caveats.
func TestConformance(t *testing.T) {
	const w = 79 // DDR5 activations per tREFI, the paper's default window

	specs := []trackertest.Spec{
		{
			Name: "PrIDE",
			New: func(seed uint64) tracker.Tracker {
				return core.New(core.DefaultConfig(w), rng.New(seed))
			},
			MaxOccupancy: core.DefaultConfig(w).Entries,
			// PrIDE's eviction and mitigation policies are both FIFO, so its
			// queue snapshot must obey the FIFO-order property.
			Snapshot: func(tr tracker.Tracker) []tracker.Mitigation {
				return tr.(*core.PrIDE).Snapshot()
			},
		},
		{
			Name: "PARA",
			New: func(seed uint64) tracker.Tracker {
				return baseline.NewPARA(1.0/float64(w+1), rng.New(seed))
			},
			// PARA keeps no per-row state; its only occupancy is the
			// pending-mitigation list the suite drains, so no capacity bound.
			AllowZeroStorage: true,
		},
		{
			Name: "PAR-FM",
			New: func(seed uint64) tracker.Tracker {
				return baseline.NewPARFM(w, 17, rng.New(seed))
			},
			MaxOccupancy: w,
		},
		{
			Name: "TRR",
			New: func(uint64) tracker.Tracker {
				return baseline.NewTRR(baseline.DefaultTRREntries, 17)
			},
			MaxOccupancy: baseline.DefaultTRREntries,
		},
		{
			Name: "DSAC",
			New: func(seed uint64) tracker.Tracker {
				return baseline.NewDSAC(baseline.DefaultDSACEntries, 17, rng.New(seed))
			},
			MaxOccupancy: baseline.DefaultDSACEntries,
		},
		{
			Name: "PRoHIT",
			New: func(seed uint64) tracker.Tracker {
				return baseline.NewPRoHIT(baseline.DefaultPRoHITEntries, 17,
					baseline.DefaultPRoHITInsertProb, baseline.DefaultPRoHITPromoteProb, rng.New(seed))
			},
			MaxOccupancy: baseline.DefaultPRoHITEntries,
		},
		{
			Name: "Graphene",
			New: func(uint64) tracker.Tracker {
				return baseline.NewGraphene(64, 32, 17)
			},
			MaxOccupancy: 64,
		},
		{
			Name: "MINT",
			New: func(seed uint64) tracker.Tracker {
				return tracker.NewMINT(w, 17, rng.New(seed))
			},
			MaxOccupancy: 1,
			// A single slot is trivially FIFO: the snapshot is empty or one
			// entry, and mitigation always takes it.
			Snapshot: func(tr tracker.Tracker) []tracker.Mitigation {
				return tr.(*tracker.MINT).Snapshot()
			},
		},
		{
			Name: "MOAT",
			New: func(uint64) tracker.Tracker {
				return tracker.NewMOAT(trackertest.Rows, 10,
					tracker.DefaultMOATATI, tracker.DefaultMOATATO)
			},
			// Occupancy counts rows at or above ATI; in the worst case every
			// row in the driven space is hot at once.
			MaxOccupancy: trackertest.Rows,
		},
	}

	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			trackertest.RunConformance(t, s)
		})
	}
}

// TestSkipAhead runs the skip-ahead equivalence suite against the trackers
// the event-driven engines fast-forward: (AdvanceIdle; ActivateInsert) must
// be state-equivalent to the stepped OnActivate path, draw-free. Only
// FIFO-policy trackers may be registered here (the suite's rigged constant
// sources would spin a Random-policy Intn forever).
func TestSkipAhead(t *testing.T) {
	const w = 79

	specs := []trackertest.SkipSpec{
		{
			Name: "PrIDE",
			New: func(r *rng.Stream) tracker.SkipAdvancer {
				return core.New(core.DefaultConfig(w), r)
			},
			Snapshot: func(tr tracker.Tracker) []tracker.Mitigation {
				return tr.(*core.PrIDE).Snapshot()
			},
			Prob: core.DefaultConfig(w).InsertionProb,
		},
		{
			// Without transitive protection OnMitigate never draws,
			// covering the pop-only mitigation path.
			Name: "PrIDE-NoTransitive",
			New: func(r *rng.Stream) tracker.SkipAdvancer {
				cfg := core.DefaultConfig(w)
				cfg.TransitiveProtection = false
				cfg.InsertionProb = 1.0 / float64(w)
				return core.New(cfg, r)
			},
			Snapshot: func(tr tracker.Tracker) []tracker.Mitigation {
				return tr.(*core.PrIDE).Snapshot()
			},
			Prob: 1.0 / float64(w),
		},
		{
			Name: "PARA",
			New: func(r *rng.Stream) tracker.SkipAdvancer {
				return baseline.NewPARA(1.0/float64(w+1), r)
			},
			Prob: 1.0 / float64(w+1),
		},
	}

	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			trackertest.RunSkipAhead(t, s)
		})
	}
}

// TestOnActivateRows runs the batch equivalence property against every
// tracker.BatchActivator: one OnActivateRows call per block must draw once
// per row and end where per-row OnActivate ends.
func TestOnActivateRows(t *testing.T) {
	const w = 79
	pride := func(mut func(*core.Config)) func(r *rng.Stream) tracker.BatchActivator {
		return func(r *rng.Stream) tracker.BatchActivator {
			cfg := core.DefaultConfig(w)
			mut(&cfg)
			return core.New(cfg, r)
		}
	}
	snapshot := func(tr tracker.Tracker) []tracker.Mitigation { return tr.(*core.PrIDE).Snapshot() }
	stats := func(tr tracker.Tracker) any { return tr.(*core.PrIDE).Stats() }
	for _, s := range []trackertest.BatchSpec{
		{Name: "PrIDE", New: pride(func(*core.Config) {})},
		{Name: "PrIDE-RFM16", New: pride(func(c *core.Config) { *c = core.RFMConfig(core.RFM16) })},
		// p = 1/4: most blocks insert and evict many times.
		{Name: "PrIDE-p1/4", New: pride(func(c *core.Config) { c.InsertionProb = 0.25 })},
		{Name: "PrIDE-InsecureR1", New: pride(func(c *core.Config) { c.InsecureAlwaysInsertIfInvalid = true })},
		{Name: "PrIDE-InsecureR2", New: pride(func(c *core.Config) { c.InsecureSkipDuplicates = true; c.InsertionProb = 0.25 })},
	} {
		s.Snapshot, s.Stats = snapshot, stats
		t.Run(s.Name, func(t *testing.T) {
			trackertest.RunBatch(t, s)
		})
	}
}

// TestScheduled runs the scheduled skip-ahead equivalence suite against
// MINT, the one tracker that pre-commits its insertion positions: following
// NextInsert must be bit-identical to stepping every activation.
func TestScheduled(t *testing.T) {
	const w = 79

	trackertest.RunScheduled(t, trackertest.ScheduledSpec{
		Name: "MINT",
		New: func(r *rng.Stream) tracker.ScheduledAdvancer {
			return tracker.NewMINT(w, 17, r)
		},
		Snapshot: func(tr tracker.Tracker) []tracker.Mitigation {
			return tr.(*tracker.MINT).Snapshot()
		},
		Window: w,
	})
}

// TestStorageAudit recomputes each tracker's claimed StorageBits from its
// declared hardware fields, pinning the bit budgets the shootout table and
// the paper comparisons cite. A drift here means either the implementation
// silently grew its hardware cost or the documented budget went stale.
func TestStorageAudit(t *testing.T) {
	const w = 79

	trackertest.RunStorageAudit(t, []trackertest.StorageSpec{
		{
			// The paper's 85-bit budget: four 20-bit entries (17-bit row +
			// 3-bit level) plus the FIFO's PTR and Occ registers.
			Name: "PrIDE",
			New: func() tracker.Tracker {
				return core.New(core.DefaultConfig(w), rng.New(1))
			},
			Fields: []trackertest.StorageField{
				{Name: "entry row register", Bits: 17, Count: 4},
				{Name: "entry level field", Bits: 3, Count: 4},
				{Name: "PTR register", Bits: 2},
				{Name: "Occ register", Bits: 3},
			},
		},
		{
			// MINT's minimalist budget: one slot plus two window counters.
			Name: "MINT",
			New: func() tracker.Tracker {
				return tracker.NewMINT(w, 17, rng.New(1))
			},
			Fields: []trackertest.StorageField{
				{Name: "slot row register", Bits: 17},
				{Name: "slot valid bit", Bits: 1},
				{Name: "interval position counter", Bits: 7}, // 0..79
				{Name: "target position register", Bits: 7},  // 1..79
			},
		},
		{
			// MOAT's SRAM side is just the pending-row register; the per-row
			// activation counters live in the DRAM mats (PRAC) and are
			// accounted separately by DRAMCounterBits.
			Name: "MOAT",
			New: func() tracker.Tracker {
				return tracker.NewMOAT(trackertest.Rows, 10,
					tracker.DefaultMOATATI, tracker.DefaultMOATATO)
			},
			Fields: []trackertest.StorageField{
				{Name: "pending row register", Bits: 10},
				{Name: "pending valid bit", Bits: 1},
			},
		},
		{
			Name: "PAR-FM",
			New: func() tracker.Tracker {
				return baseline.NewPARFM(w, 17, rng.New(1))
			},
			Fields: []trackertest.StorageField{
				{Name: "address buffer", Bits: 17, Count: w},
			},
		},
	})
}

// TestMOATDRAMCounterBits pins the in-mat counter budget MOAT's shootout row
// footnotes: one 7-bit counter (0..127) per row.
func TestMOATDRAMCounterBits(t *testing.T) {
	m := tracker.NewMOAT(8192, 13, tracker.DefaultMOATATI, tracker.DefaultMOATATO)
	if got, want := m.DRAMCounterBits(), 8192*7; got != want {
		t.Fatalf("DRAMCounterBits() = %d, want %d (8192 rows x 7-bit PRAC counters)", got, want)
	}
}

func TestCounterBits(t *testing.T) {
	// A counter holding 0..max needs ceil(log2(max+1)) bits, not
	// bits.Len(max)+1: a threshold-32 counter needs 6 bits, not 7.
	cases := []struct{ max, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{15, 4}, {16, 5}, {32, 6}, {1000, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := tracker.CounterBits(c.max); got != c.want {
			t.Errorf("CounterBits(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

// TestSkipAheadGatedOnInsecureAblations pins the safety interlock: the R1/R2
// ablation switches couple insertion to buffer state, so those
// configurations must refuse skip-ahead and run on the exact engine.
func TestSkipAheadGatedOnInsecureAblations(t *testing.T) {
	const w = 79
	base := core.DefaultConfig(w)
	if !core.New(base, rng.New(1)).SupportsSkipAhead() {
		t.Fatal("secure default config reports SupportsSkipAhead() = false")
	}
	r1 := base
	r1.InsecureAlwaysInsertIfInvalid = true
	if core.New(r1, rng.New(1)).SupportsSkipAhead() {
		t.Fatal("InsecureAlwaysInsertIfInvalid config reports SupportsSkipAhead() = true")
	}
	r2 := base
	r2.InsecureSkipDuplicates = true
	if core.New(r2, rng.New(1)).SupportsSkipAhead() {
		t.Fatal("InsecureSkipDuplicates config reports SupportsSkipAhead() = true")
	}
}
