package trackertest

import (
	"reflect"
	"testing"
	"testing/quick"

	"pride/internal/rng"
	"pride/internal/tracker"
)

// BatchSpec describes one tracker.BatchActivator implementation under the
// batch equivalence property.
//
// Register only trackers whose OnActivate makes exactly one draw per
// activation (PrIDE with FIFO policies, the R1/R2 ablations included): the
// property pins that count. An eviction policy that draws (PrIDE's Random
// ablation) makes more, and is covered by the controller-level tests.
type BatchSpec struct {
	// Name labels the subtest.
	Name string
	// New builds a fresh instance drawing all randomness from r.
	New func(r *rng.Stream) tracker.BatchActivator
	// Snapshot, when non-nil, exposes the tracked entries oldest-first and
	// tightens the state check from occupancy to the full queue.
	Snapshot func(tr tracker.Tracker) []tracker.Mitigation
	// Stats, when non-nil, returns the tracker's decision counters, which
	// must match too.
	Stats func(tr tracker.Tracker) any
}

// RunBatch checks, as a testing/quick property over seeds and block
// lengths, that OnActivateRows over each block consumes exactly one draw
// per row and leaves the tracker in the state per-row OnActivate leaves,
// with mitigation opportunities (which may draw) between blocks.
func RunBatch(t *testing.T, s BatchSpec) {
	t.Helper()
	if s.New == nil {
		t.Fatalf("%s: BatchSpec.New is nil", s.Name)
	}
	property := func(seed uint64, lens []uint16) bool {
		// Counting sources wrap the generator, so both streams draw
		// through the rng.Source interface.
		stepSrc := &countingSource{inner: rng.NewXorShift64Star(seed)}
		batchSrc := &countingSource{inner: rng.NewXorShift64Star(seed)}
		stepped := s.New(rng.NewStream(stepSrc))
		batched := s.New(rng.NewStream(batchSrc))
		sched := rng.New(seed ^ 0x5eed)
		for blk, l := range lens {
			rows := make([]int32, int(l)%400)
			for i := range rows {
				rows[i] = int32(sched.Intn(Rows))
			}
			for _, r := range rows {
				stepped.OnActivate(int(r))
			}
			before := batchSrc.draws
			batched.OnActivateRows(rows)
			if got := batchSrc.draws - before; got != len(rows) {
				t.Errorf("seed %d block %d: OnActivateRows over %d rows consumed %d draws", seed, blk, len(rows), got)
				return false
			}
			if stepSrc.draws != batchSrc.draws {
				t.Errorf("seed %d block %d: per-row path drew %d times, batch %d", seed, blk, stepSrc.draws, batchSrc.draws)
				return false
			}
			if !batchStateEqual(t, s, stepped, batched) {
				t.Errorf("seed %d block %d: state diverged after %d rows", seed, blk, len(rows))
				return false
			}
			for m := sched.Intn(3); m > 0; m-- {
				am, aok := stepped.OnMitigate()
				bm, bok := batched.OnMitigate()
				if am != bm || aok != bok {
					t.Errorf("seed %d block %d: OnMitigate per-row (%v,%v), batch (%v,%v)", seed, blk, am, aok, bm, bok)
					return false
				}
			}
		}
		return batchStateEqual(t, s, stepped, batched)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
}

// batchStateEqual compares the observable state of the two instances.
func batchStateEqual(t *testing.T, s BatchSpec, a, b tracker.Tracker) bool {
	t.Helper()
	if a.Occupancy() != b.Occupancy() {
		t.Errorf("occupancy per-row %d, batch %d", a.Occupancy(), b.Occupancy())
		return false
	}
	if s.Snapshot != nil && !reflect.DeepEqual(s.Snapshot(a), s.Snapshot(b)) {
		t.Errorf("queue per-row %v, batch %v", s.Snapshot(a), s.Snapshot(b))
		return false
	}
	if s.Stats != nil && !reflect.DeepEqual(s.Stats(a), s.Stats(b)) {
		t.Errorf("stats per-row %+v, batch %+v", s.Stats(a), s.Stats(b))
		return false
	}
	return true
}
