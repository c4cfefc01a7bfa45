package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pride/internal/rng"
	"pride/internal/tracker"
)

func newTest(cfg Config, seed uint64) *PrIDE {
	return New(cfg, rng.New(seed))
}

func simpleConfig(n int, p float64) Config {
	return Config{
		Entries:       n,
		InsertionProb: p,
		MaxLevel:      7,
		RowBits:       17,
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(79)
	if cfg.Entries != 4 {
		t.Fatalf("default entries = %d, want 4", cfg.Entries)
	}
	if got, want := cfg.InsertionProb, 1.0/80; math.Abs(got-want) > 1e-15 {
		t.Fatalf("default p = %v, want 1/80", got)
	}
	if !cfg.TransitiveProtection {
		t.Fatal("default must enable transitive protection")
	}
	if cfg.MaxLevel != 7 {
		t.Fatalf("MaxLevel = %d, want 7 (3-bit level field)", cfg.MaxLevel)
	}
}

func TestRFMConfigs(t *testing.T) {
	if got, want := RFMConfig(RFM16).InsertionProb, 1.0/17; math.Abs(got-want) > 1e-15 {
		t.Fatalf("RFM16 p = %v, want 1/17", got)
	}
	if got, want := RFMConfig(RFM40).InsertionProb, 1.0/41; math.Abs(got-want) > 1e-15 {
		t.Fatalf("RFM40 p = %v, want 1/41", got)
	}
	if RFMConfig(RFM16).Entries != 4 {
		t.Fatal("RFM co-design must keep the 4-entry FIFO unmodified")
	}
}

func TestStorageBitsMatchesPaperBudget(t *testing.T) {
	// Section VII-D: 4 entries x 20 bits (17-bit row + 3-bit level) = 80
	// bits = 10 bytes per bank, plus two tiny registers.
	p := newTest(DefaultConfig(79), 1)
	bits := p.StorageBits()
	if bits < 80 || bits > 88 {
		t.Fatalf("StorageBits = %d, want 80 (10 bytes) + small registers", bits)
	}
}

func TestInsertionIsProbabilistic(t *testing.T) {
	const pIns = 1.0 / 80
	pr := newTest(simpleConfig(4, pIns), 2)
	const n = 400000
	for i := 0; i < n; i++ {
		pr.OnActivate(i % 997)
	}
	got := float64(pr.Stats().Insertions) / n
	tol := 5 * math.Sqrt(pIns*(1-pIns)/n)
	if math.Abs(got-pIns) > tol {
		t.Fatalf("insertion rate = %v, want %v +- %v", got, pIns, tol)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	pr := newTest(simpleConfig(4, 1), 3) // p=1: every ACT inserts
	for _, r := range []int{10, 20, 30} {
		pr.OnActivate(r)
	}
	if pr.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", pr.Occupancy())
	}
	want := []int{10, 20, 30}
	for _, w := range want {
		m, ok := pr.OnMitigate()
		if !ok {
			t.Fatal("mitigation returned nothing")
		}
		if m.Row != w {
			t.Fatalf("mitigated %d, want %d (FIFO order)", m.Row, w)
		}
		if m.Level != 1 {
			t.Fatalf("demand insertion level = %d, want 1", m.Level)
		}
	}
	if _, ok := pr.OnMitigate(); ok {
		t.Fatal("mitigation from empty buffer")
	}
}

func TestFIFOEvictionDropsOldest(t *testing.T) {
	pr := newTest(simpleConfig(2, 1), 4)
	pr.OnActivate(1)
	pr.OnActivate(2)
	pr.OnActivate(3) // evicts 1
	if pr.Contains(1) {
		t.Fatal("oldest entry not evicted")
	}
	m, _ := pr.OnMitigate()
	if m.Row != 2 {
		t.Fatalf("oldest surviving entry = %d, want 2", m.Row)
	}
	if pr.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", pr.Stats().Evictions)
	}
}

func TestDuplicatesAreInserted(t *testing.T) {
	// Requirement R2: a matching entry must not suppress insertion.
	pr := newTest(simpleConfig(4, 1), 5)
	pr.OnActivate(42)
	pr.OnActivate(42)
	if pr.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2 duplicate entries (R2)", pr.Occupancy())
	}
}

func TestInsecureSkipDuplicatesViolatesR2(t *testing.T) {
	cfg := simpleConfig(4, 1)
	cfg.InsecureSkipDuplicates = true
	pr := New(cfg, rng.New(6))
	pr.OnActivate(42)
	pr.OnActivate(42)
	if pr.Occupancy() != 1 {
		t.Fatalf("insecure variant occupancy = %d, want 1", pr.Occupancy())
	}
}

func TestInsecureAlwaysInsertViolatesR1(t *testing.T) {
	cfg := simpleConfig(4, 1e-12) // essentially never sample
	cfg.InsecureAlwaysInsertIfInvalid = true
	pr := New(cfg, rng.New(7))
	pr.OnActivate(1)
	pr.OnActivate(2)
	if pr.Occupancy() != 2 {
		t.Fatalf("R1-violating variant should have inserted both, occupancy = %d", pr.Occupancy())
	}
	// The secure tracker with the same (tiny) p inserts nothing.
	sec := newTest(simpleConfig(4, 1e-12), 7)
	sec.OnActivate(1)
	sec.OnActivate(2)
	if sec.Occupancy() != 0 {
		t.Fatalf("secure tracker sampled at p=1e-12, occupancy = %d", sec.Occupancy())
	}
}

func TestTransitiveReinsertionIncrementsLevel(t *testing.T) {
	cfg := simpleConfig(4, 1)
	cfg.TransitiveProtection = true
	pr := New(cfg, rng.New(8))
	pr.OnActivate(99)
	m1, _ := pr.OnMitigate() // re-inserts at level 2 (p=1)
	if m1.Level != 1 {
		t.Fatalf("first mitigation level = %d, want 1", m1.Level)
	}
	m2, ok := pr.OnMitigate()
	if !ok {
		t.Fatal("re-inserted entry missing")
	}
	if m2.Row != 99 || m2.Level != 2 {
		t.Fatalf("re-inserted mitigation = %+v, want row 99 level 2", m2)
	}
	if pr.Stats().Reinsertions != 2 { // m2's pop re-inserted at level 3 too
		t.Fatalf("reinsertions = %d, want 2", pr.Stats().Reinsertions)
	}
}

func TestTransitiveLevelCapped(t *testing.T) {
	cfg := simpleConfig(4, 1)
	cfg.TransitiveProtection = true
	cfg.MaxLevel = 3
	pr := New(cfg, rng.New(9))
	pr.OnActivate(5)
	levels := []int{}
	for {
		m, ok := pr.OnMitigate()
		if !ok {
			break
		}
		levels = append(levels, m.Level)
		if len(levels) > 10 {
			t.Fatal("level cap not enforced: unbounded re-insertion")
		}
	}
	want := []int{1, 2, 3}
	if len(levels) != len(want) {
		t.Fatalf("mitigation levels = %v, want %v", levels, want)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("mitigation levels = %v, want %v", levels, want)
		}
	}
}

func TestNoTransitiveReinsertionWhenDisabled(t *testing.T) {
	pr := newTest(simpleConfig(4, 1), 10)
	pr.OnActivate(5)
	pr.OnMitigate()
	if pr.Occupancy() != 0 {
		t.Fatal("re-insertion happened with transitive protection disabled")
	}
}

// The core security property (Figure 1c, Section IV-A): the tracker's
// decisions must not depend on WHICH addresses are accessed. With a fixed
// seed, any two address sequences of the same length must produce identical
// insertion/eviction/mitigation DECISION sequences (only the stored
// addresses differ).
func TestPatternIndependenceProperty(t *testing.T) {
	check := func(seed uint64, addrsA, addrsB []uint16) bool {
		n := len(addrsA)
		if len(addrsB) < n {
			n = len(addrsB)
		}
		if n == 0 {
			return true
		}
		cfg := DefaultConfig(79)
		pa := New(cfg, rng.New(seed))
		pb := New(cfg, rng.New(seed))
		for i := 0; i < n; i++ {
			pa.OnActivate(int(addrsA[i]))
			pb.OnActivate(int(addrsB[i]))
			if pa.Occupancy() != pb.Occupancy() {
				return false
			}
			if i%17 == 0 {
				_, okA := pa.OnMitigate()
				_, okB := pb.OnMitigate()
				if okA != okB || pa.Occupancy() != pb.Occupancy() {
					return false
				}
			}
		}
		sa, sb := pa.Stats(), pb.Stats()
		return sa == sb
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy is always within [0, N] and matches Snapshot length.
func TestOccupancyBoundsProperty(t *testing.T) {
	check := func(seed uint64, ops []byte) bool {
		cfg := simpleConfig(3, 0.3)
		cfg.TransitiveProtection = true
		pr := New(cfg, rng.New(seed))
		for _, op := range ops {
			if op%5 == 0 {
				pr.OnMitigate()
			} else {
				pr.OnActivate(int(op))
			}
			occ := pr.Occupancy()
			if occ < 0 || occ > 3 || occ != len(pr.Snapshot()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: insertions - evictions - mitigated-pops == occupancy.
func TestFlowConservationProperty(t *testing.T) {
	check := func(seed uint64, ops []byte) bool {
		cfg := simpleConfig(4, 0.5)
		cfg.TransitiveProtection = true
		pr := New(cfg, rng.New(seed))
		for _, op := range ops {
			if op%7 == 0 {
				pr.OnMitigate()
			} else {
				pr.OnActivate(int(op) * 3)
			}
		}
		s := pr.Stats()
		return int(s.Insertions)-int(s.Evictions)-int(s.Mitigations) == pr.Occupancy()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPoliciesStillPatternIndependent(t *testing.T) {
	// The PROTEAS-style ablation: Random eviction/mitigation is also
	// pattern independent (Section VIII), just worse quantitatively.
	cfg := simpleConfig(4, 0.5)
	cfg.Eviction = Random
	cfg.Mitigation = Random
	pa := New(cfg, rng.New(77))
	pb := New(cfg, rng.New(77))
	for i := 0; i < 5000; i++ {
		pa.OnActivate(i % 3)
		pb.OnActivate(i % 1009)
		if i%11 == 0 {
			_, okA := pa.OnMitigate()
			_, okB := pb.OnMitigate()
			if okA != okB {
				t.Fatal("random-policy decisions diverged across patterns")
			}
		}
		if pa.Occupancy() != pb.Occupancy() {
			t.Fatal("random-policy occupancy diverged across patterns")
		}
	}
}

func TestRandomMitigationDrainsAllEntries(t *testing.T) {
	cfg := simpleConfig(4, 1)
	cfg.Mitigation = Random
	pr := New(cfg, rng.New(12))
	rows := map[int]bool{}
	for _, r := range []int{1, 2, 3, 4} {
		pr.OnActivate(r)
	}
	for i := 0; i < 4; i++ {
		m, ok := pr.OnMitigate()
		if !ok {
			t.Fatal("buffer drained early")
		}
		rows[m.Row] = true
	}
	if len(rows) != 4 {
		t.Fatalf("random mitigation returned duplicate rows: %v", rows)
	}
}

// minusOne reports whether got equals want with exactly the one entry whose
// row is victim removed, relative order of all survivors preserved.
func minusOne(want, got []tracker.Mitigation, victim int) bool {
	if len(got) != len(want)-1 {
		return false
	}
	i := 0
	removed := false
	for _, e := range want {
		if !removed && e.Row == victim {
			removed = true
			continue
		}
		if i >= len(got) || got[i] != e {
			return false
		}
		i++
	}
	return removed && i == len(got)
}

func TestRandomMitigationPreservesSurvivorOrder(t *testing.T) {
	// Regression: the old compaction moved the head entry into the victim's
	// slot, reordering the FIFO survivors; removal must keep queue order.
	for seed := uint64(0); seed < 50; seed++ {
		cfg := simpleConfig(4, 1)
		cfg.Mitigation = Random
		pr := New(cfg, rng.New(seed))
		for _, r := range []int{10, 20, 30, 40} {
			pr.OnActivate(r)
		}
		for pr.Occupancy() > 0 {
			before := pr.Snapshot()
			m, ok := pr.OnMitigate()
			if !ok {
				t.Fatal("buffer drained early")
			}
			after := pr.Snapshot()
			if !minusOne(before, after, m.Row) {
				t.Fatalf("seed %d: mitigating row %d from %v left %v; survivor order not preserved",
					seed, m.Row, before, after)
			}
		}
	}
}

func TestRandomEvictionPreservesSurvivorOrder(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		cfg := simpleConfig(4, 1)
		cfg.Eviction = Random
		pr := New(cfg, rng.New(seed))
		var evicted []int
		pr.Observe(func(kind EventKind, row int) {
			if kind == EventEvict {
				evicted = append(evicted, row)
			}
		})
		for _, r := range []int{10, 20, 30, 40} {
			pr.OnActivate(r)
		}
		// Each further insert (p=1) evicts one uniform victim; survivors
		// must keep their queue order with the new row appended.
		for next := 50; next < 150; next += 10 {
			before := pr.Snapshot()
			evicted = evicted[:0]
			pr.OnActivate(next)
			after := pr.Snapshot()
			if len(evicted) != 1 {
				t.Fatalf("seed %d: expected exactly one eviction, got %v", seed, evicted)
			}
			if len(after) == 0 || after[len(after)-1].Row != next {
				t.Fatalf("seed %d: new row %d not at the tail: %v", seed, next, after)
			}
			if !minusOne(before, after[:len(after)-1], evicted[0]) {
				t.Fatalf("seed %d: evicting row %d from %v left %v; survivor order not preserved",
					seed, evicted[0], before, after)
			}
		}
	}
}

func TestStorageBitsHandComputed(t *testing.T) {
	// N*(rowBits+3) payload, plus PTR (ceil(log2 N) bits, indexes 0..N-1)
	// and Occ (ceil(log2(N+1)) bits, counts 0..N inclusive).
	cases := []struct {
		entries, rowBits, want int
	}{
		{1, 17, 1*20 + 0 + 1}, // PTR degenerate, Occ in {0,1}
		{2, 10, 2*13 + 1 + 2}, // Occ counts 0..2: two bits
		{3, 17, 3*20 + 2 + 2}, // non-power-of-two: Occ 0..3 fits 2 bits
		{4, 17, 4*20 + 2 + 3}, // paper default: 85 bits, not 86
		{5, 8, 5*11 + 3 + 3},  // Occ 0..5 fits 3 bits
		{8, 17, 8*20 + 3 + 4}, // Occ 0..8 needs 4 bits
		{16, 17, 16*20 + 4 + 5},
	}
	for _, c := range cases {
		cfg := simpleConfig(c.entries, 0.5)
		cfg.RowBits = c.rowBits
		got := newTest(cfg, 1).StorageBits()
		if got != c.want {
			t.Errorf("StorageBits(N=%d, rowBits=%d) = %d, want %d",
				c.entries, c.rowBits, got, c.want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Config{
		{Entries: 0, InsertionProb: 0.5, MaxLevel: 1, RowBits: 17},
		{Entries: 4, InsertionProb: 0, MaxLevel: 1, RowBits: 17},
		{Entries: 4, InsertionProb: 1.5, MaxLevel: 1, RowBits: 17},
		{Entries: 4, InsertionProb: 0.5, MaxLevel: 0, RowBits: 17},
		{Entries: 4, InsertionProb: 0.5, MaxLevel: 1, RowBits: 0},
		{Entries: 4, InsertionProb: 0.5, MaxLevel: 1, RowBits: 17, Eviction: Policy(9)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{}, rng.New(1)) },
		func() { New(DefaultConfig(79), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("New accepted invalid input")
				}
			}()
			f()
		}()
	}
}

func TestResetRestoresEmptyState(t *testing.T) {
	pr := newTest(simpleConfig(4, 1), 13)
	for i := 0; i < 10; i++ {
		pr.OnActivate(i)
	}
	pr.Reset()
	if pr.Occupancy() != 0 {
		t.Fatal("Reset left entries")
	}
	if pr.Stats() != (Statistics{}) {
		t.Fatal("Reset left statistics")
	}
	if _, ok := pr.OnMitigate(); ok {
		t.Fatal("mitigation after Reset")
	}
}

func TestTrackerInterfaceCompliance(t *testing.T) {
	var tr tracker.Tracker = newTest(DefaultConfig(79), 14)
	if tr.Name() != "PrIDE" {
		t.Fatalf("Name = %q, want PrIDE", tr.Name())
	}
	tr.OnActivate(1)
	tr.Reset()
	if tr.Occupancy() != 0 {
		t.Fatal("interface Reset failed")
	}
	if tr.StorageBits() <= 0 {
		t.Fatal("StorageBits must be positive")
	}
}

func TestIdleMitigationCounted(t *testing.T) {
	pr := newTest(simpleConfig(4, 0.5), 15)
	pr.OnMitigate()
	pr.OnMitigate()
	if got := pr.Stats().IdleMitigations; got != 2 {
		t.Fatalf("idle mitigations = %d, want 2", got)
	}
}

func BenchmarkOnActivate(b *testing.B) {
	pr := newTest(DefaultConfig(79), 1)
	for i := 0; i < b.N; i++ {
		pr.OnActivate(i & 0x1FFFF)
	}
}

func BenchmarkActivateMitigateCycle(b *testing.B) {
	pr := newTest(DefaultConfig(79), 1)
	for i := 0; i < b.N; i++ {
		pr.OnActivate(i & 0x1FFFF)
		if i%79 == 78 {
			pr.OnMitigate()
		}
	}
}

// event is one observer notification.
type event struct {
	kind EventKind
	row  int
}

// TestOnActivateRowsMatchesOnActivate drives twin trackers on the
// devirtualized stream path — one per-row OnActivate, one OnActivateRows
// per block — for the default, Random-eviction, Random-mitigation and
// insecure R1/R2 configurations, with mitigations between blocks. Every
// observer event, the queue, the stats and the next raw draw must match.
func TestOnActivateRowsMatchesOnActivate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"random-evict", func(c *Config) { c.Eviction = Random; c.InsertionProb = 0.2 }},
		{"random-mitigate", func(c *Config) { c.Mitigation = Random; c.InsertionProb = 0.2 }},
		{"insecure-r1", func(c *Config) { c.InsecureAlwaysInsertIfInvalid = true }},
		{"insecure-r2", func(c *Config) { c.InsecureSkipDuplicates = true; c.InsertionProb = 0.3 }},
	} {
		name := tc.name
		cfg := DefaultConfig(79)
		tc.mut(&cfg)
		stepStream, batchStream := rng.New(11), rng.New(11)
		stepped, batched := New(cfg, stepStream), New(cfg, batchStream)
		var se, be []event
		stepped.Observe(func(k EventKind, row int) { se = append(se, event{k, row}) })
		batched.Observe(func(k EventKind, row int) { be = append(be, event{k, row}) })
		sched := rng.New(12)
		for blk := 0; blk < 200; blk++ {
			rows := make([]int32, sched.Intn(300))
			for i := range rows {
				rows[i] = int32(sched.Intn(64))
			}
			for _, r := range rows {
				stepped.OnActivate(int(r))
			}
			batched.OnActivateRows(rows)
			for m := sched.Intn(3); m > 0; m-- {
				a, aok := stepped.OnMitigate()
				b, bok := batched.OnMitigate()
				if a != b || aok != bok {
					t.Fatalf("%s block %d: OnMitigate (%v,%v) vs (%v,%v)", name, blk, a, aok, b, bok)
				}
			}
		}
		if !reflect.DeepEqual(se, be) {
			t.Fatalf("%s: observer events diverged (%d vs %d events)", name, len(se), len(be))
		}
		if !reflect.DeepEqual(stepped.Snapshot(), batched.Snapshot()) || stepped.Stats() != batched.Stats() {
			t.Fatalf("%s: state diverged:\nper-row %v %+v\nbatch   %v %+v", name,
				stepped.Snapshot(), stepped.Stats(), batched.Snapshot(), batched.Stats())
		}
		if stepped.Stats().Insertions == 0 || stepped.Stats().Evictions == 0 {
			t.Fatalf("%s: schedule never inserted and evicted: %+v", name, stepped.Stats())
		}
		if a, b := stepStream.Uint64(), batchStream.Uint64(); a != b {
			t.Fatalf("%s: next raw draw %#x vs %#x", name, a, b)
		}
	}
}
