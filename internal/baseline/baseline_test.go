package baseline

import (
	"math"
	"testing"

	"pride/internal/rng"
	"pride/internal/tracker"
)

func TestPARASamplingRate(t *testing.T) {
	const p = 1.0 / 80
	para := NewPARA(p, rng.New(1))
	const n = 400000
	mitigations := 0
	for i := 0; i < n; i++ {
		para.OnActivate(i % 1000)
		mitigations += len(para.DrainImmediate())
	}
	got := float64(mitigations) / n
	tol := 5 * math.Sqrt(p*(1-p)/n)
	if math.Abs(got-p) > tol {
		t.Fatalf("PARA mitigation rate %v, want %v", got, p)
	}
}

func TestPARAMitigatesActivatedRow(t *testing.T) {
	para := NewPARA(1, rng.New(2)) // p=1: every ACT mitigated
	para.OnActivate(42)
	ms := para.DrainImmediate()
	if len(ms) != 1 || ms[0].Row != 42 || ms[0].Level != 1 {
		t.Fatalf("mitigations = %+v, want [{42 1}]", ms)
	}
	// Drain clears.
	if len(para.DrainImmediate()) != 0 {
		t.Fatal("drain did not clear pending mitigations")
	}
	if m, ok := para.OnMitigate(); ok {
		t.Fatalf("PARA must not mitigate at refresh, got %+v", m)
	}
}

func TestPARAPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPARA(0, rng.New(1)) },
		func() { NewPARA(1.5, rng.New(1)) },
		func() { NewPARA(0.5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPARFMBuffersEpochAndClears(t *testing.T) {
	p := NewPARFM(79, 17, rng.New(5))
	for i := 0; i < 50; i++ {
		p.OnActivate(i)
	}
	if p.Occupancy() != 50 {
		t.Fatalf("occupancy = %d, want 50", p.Occupancy())
	}
	m, ok := p.OnMitigate()
	if !ok || m.Row < 0 || m.Row >= 50 {
		t.Fatalf("mitigation = %+v ok=%v, want a buffered row", m, ok)
	}
	if p.Occupancy() != 0 {
		t.Fatal("PARFM must clear its buffer after mitigation")
	}
}

func TestPARFMUniformSelection(t *testing.T) {
	p := NewPARFM(4, 17, rng.New(6))
	counts := map[int]int{}
	const trials = 40000
	for i := 0; i < trials; i++ {
		for r := 0; r < 4; r++ {
			p.OnActivate(r)
		}
		m, _ := p.OnMitigate()
		counts[m.Row]++
	}
	for r := 0; r < 4; r++ {
		got := float64(counts[r]) / trials
		if math.Abs(got-0.25) > 0.02 {
			t.Fatalf("row %d selected %v, want ~0.25", r, got)
		}
	}
}

func TestDSACHitIncrementAndMaxMitigation(t *testing.T) {
	d := NewDSAC(4, 17, rng.New(7))
	for i := 0; i < 10; i++ {
		d.OnActivate(100)
	}
	d.OnActivate(200)
	m, ok := d.OnMitigate()
	if !ok || m.Row != 100 {
		t.Fatalf("mitigation = %+v, want max-counter row 100", m)
	}
	// Retired entry is gone; next mitigation takes row 200.
	m, ok = d.OnMitigate()
	if !ok || m.Row != 200 {
		t.Fatalf("second mitigation = %+v, want row 200", m)
	}
}

func TestDSACDecoyAttackSuppressesInsertion(t *testing.T) {
	// The paper's core claim about counter-driven insertion: an attacker
	// who fills the table with high-count decoys makes a fresh aggressor's
	// insertion probability 1/(minCount+1) ~ 0, so the aggressor hammers
	// freely between refreshes.
	tracked := func(d *DSAC, row int) bool {
		for j := 0; j < d.entries; j++ {
			if d.valid[j] && d.rows[j] == row {
				return true
			}
		}
		return false
	}
	const trials, hammers = 200, 100
	seed := rng.New(8)
	trackedWithDecoys := 0
	for trial := 0; trial < trials; trial++ {
		d := NewDSAC(4, 17, seed.Fork())
		for decoy := 0; decoy < 4; decoy++ {
			for i := 0; i < 1000; i++ {
				d.OnActivate(1000 + decoy)
			}
		}
		// Aggressor hammers: each miss inserts with probability ~1/1001.
		for i := 0; i < hammers; i++ {
			d.OnActivate(7)
		}
		if tracked(d, 7) {
			trackedWithDecoys++
		}
	}
	// Expected tracking probability ~ 1-(1-1/1001)^100 ~ 9.5%; a fresh
	// table tracks the aggressor on its first activation, always.
	if got := float64(trackedWithDecoys) / trials; got > 0.25 {
		t.Fatalf("aggressor tracked in %.0f%% of trials despite decoys; suppression failed", got*100)
	}
	fresh := NewDSAC(4, 17, seed.Fork())
	fresh.OnActivate(7)
	if !tracked(fresh, 7) {
		t.Fatal("fresh table must track the aggressor immediately")
	}
}

func TestPRoHITPromoteAndMitigate(t *testing.T) {
	p := NewPRoHIT(4, 17, 1, 1, rng.New(9)) // deterministic promote/insert
	p.OnActivate(1)
	p.OnActivate(2)
	p.OnActivate(2) // promotes 2 above 1
	m, ok := p.OnMitigate()
	if !ok || m.Row != 2 {
		t.Fatalf("top-ranked mitigation = %+v, want row 2", m)
	}
}

func TestPRoHITMissReplacesBottom(t *testing.T) {
	p := NewPRoHIT(2, 17, 1, 1, rng.New(10))
	p.OnActivate(1)
	p.OnActivate(2)
	p.OnActivate(3) // replaces bottom (row 2)
	m1, _ := p.OnMitigate()
	m2, _ := p.OnMitigate()
	if m1.Row != 1 || m2.Row != 3 {
		t.Fatalf("mitigations = %d,%d, want 1,3", m1.Row, m2.Row)
	}
}

func TestTRRespassBreaksTRR(t *testing.T) {
	// TRRespass: hammer more rows than the tracker has entries. With a
	// full table and non-decayed counters, extra aggressors are never
	// inserted, so they take unbounded activations without mitigation.
	trr := NewTRR(4, 17)
	mitigated := map[int]int{}
	const aggressors = 12
	for round := 0; round < 1000; round++ {
		for a := 0; a < aggressors; a++ {
			trr.OnActivate(a)
		}
		if round%6 == 5 { // one refresh per ~79 ACTs
			if m, ok := trr.OnMitigate(); ok {
				mitigated[m.Row]++
			}
		}
	}
	never := 0
	for a := 4; a < aggressors; a++ {
		if mitigated[a] == 0 {
			never++
		}
	}
	if never == 0 {
		t.Fatal("TRRespass pattern failed: every aggressor got mitigated at least once")
	}
}

func TestTRRTracksSingleAggressor(t *testing.T) {
	// TRR is fine against the naive single-row pattern.
	trr := NewTRR(4, 17)
	for i := 0; i < 100; i++ {
		trr.OnActivate(55)
	}
	m, ok := trr.OnMitigate()
	if !ok || m.Row != 55 {
		t.Fatalf("mitigation = %+v, want row 55", m)
	}
}

func TestGrapheneMitigatesAtThreshold(t *testing.T) {
	g := NewGraphene(8, 10, 17)
	for i := 0; i < 9; i++ {
		g.OnActivate(5)
		if ms := g.DrainImmediate(); len(ms) != 0 {
			t.Fatalf("mitigation before threshold at activation %d", i+1)
		}
	}
	g.OnActivate(5)
	ms := g.DrainImmediate()
	if len(ms) != 1 || ms[0].Row != 5 {
		t.Fatalf("mitigations = %+v, want row 5 at threshold", ms)
	}
}

func TestGrapheneNoMissGuarantee(t *testing.T) {
	// Misra-Gries with entries >= totalACTs/threshold: no row can reach
	// threshold activations untracked. Hammer 20 rows round-robin.
	const threshold = 50
	const total = 2000
	g := NewGraphene(total/threshold, threshold, 17)
	perRow := map[int]int{}
	mitigated := map[int]bool{}
	for i := 0; i < total; i++ {
		row := i % 20
		g.OnActivate(row)
		perRow[row]++
		for _, m := range g.DrainImmediate() {
			mitigated[m.Row] = true
		}
	}
	for row, acts := range perRow {
		if acts >= threshold && !mitigated[row] {
			t.Fatalf("row %d reached %d activations without mitigation", row, acts)
		}
	}
}

func TestGrapheneVictimSharingWeakness(t *testing.T) {
	// Section VI: two aggressors each staying at threshold-1 never trigger
	// a counter-based mitigation, so their shared victim absorbs
	// 2*(threshold-1) hammers.
	const threshold = 100
	g := NewGraphene(16, threshold, 17)
	for i := 0; i < threshold-1; i++ {
		g.OnActivate(10) // aggressor B
		g.OnActivate(12) // aggressor D; victim C=11 shared
	}
	if ms := g.DrainImmediate(); len(ms) != 0 {
		t.Fatalf("counter-based tracker mitigated below threshold: %+v", ms)
	}
	// The shared victim has now absorbed 2*(threshold-1) hammers without
	// any refresh — exactly the attack PrIDE's probabilistic mitigation
	// is immune to (tested in the sim package).
}

func TestStorageBitsSane(t *testing.T) {
	trackers := []tracker.Tracker{
		NewPARA(0.5, rng.New(1)),
		NewPARFM(79, 17, rng.New(1)),
		NewDSAC(20, 17, rng.New(1)),
		NewPRoHIT(4, 17, 0.5, 0.5, rng.New(1)),
		NewTRR(16, 17),
		NewGraphene(325, 2000, 17),
	}
	for _, tr := range trackers {
		if tr.StorageBits() < 0 {
			t.Errorf("%s: negative storage", tr.Name())
		}
	}
	// PARFM's buffer (79 x 17b) dwarfs PrIDE's 4 x 20b (Section V-C).
	found := false
	for _, tr := range trackers {
		if tr.Name() != "PARFM" {
			continue
		}
		found = true
		if got := tr.StorageBits(); got < 79*17 {
			t.Errorf("PARFM storage = %d bits, want >= %d", got, 79*17)
		}
	}
	if !found {
		t.Error("no tracker named PARFM in the list")
	}
}

func TestResetAll(t *testing.T) {
	rs := rng.New(11)
	trackers := []tracker.Tracker{
		NewPARA(0.9, rs.Fork()),
		NewPARFM(79, 17, rs.Fork()),
		NewDSAC(20, 17, rs.Fork()),
		NewPRoHIT(4, 17, 0.9, 0.9, rs.Fork()),
		NewTRR(16, 17),
		NewGraphene(16, 100, 17),
	}
	for _, tr := range trackers {
		for i := 0; i < 200; i++ {
			tr.OnActivate(i % 7)
		}
		if im, ok := tr.(tracker.ImmediateMitigator); ok {
			im.DrainImmediate()
		}
		tr.Reset()
		if got := tr.Occupancy(); got != 0 {
			t.Errorf("%s: occupancy %d after Reset", tr.Name(), got)
		}
		if m, ok := tr.OnMitigate(); ok {
			t.Errorf("%s: mitigation %+v after Reset", tr.Name(), m)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"PARFM cap":       func() { NewPARFM(0, 17, rng.New(1)) },
		"PARFM rng":       func() { NewPARFM(79, 17, nil) },
		"DSAC entries":    func() { NewDSAC(0, 17, rng.New(1)) },
		"DSAC rng":        func() { NewDSAC(20, 17, nil) },
		"PRoHIT entries":  func() { NewPRoHIT(0, 17, 0.5, 0.5, rng.New(1)) },
		"PRoHIT probs":    func() { NewPRoHIT(4, 17, 0, 0.5, rng.New(1)) },
		"TRR entries":     func() { NewTRR(0, 17) },
		"Graphene thresh": func() { NewGraphene(4, 1, 17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
