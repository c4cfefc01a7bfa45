// Package trackertest provides a conformance suite that every
// tracker.Tracker implementation in this repository must pass. The suite
// checks only the contract of the interface — name stability, storage
// accounting, bounded occupancy, Reset semantics, same-seed determinism and
// an allocation-free activation path — so that the cross-scheme comparison
// experiments can treat PrIDE and all baselines interchangeably.
package trackertest

import (
	"reflect"
	"testing"

	"pride/internal/rng"
	"pride/internal/tracker"
)

// Rows is the row-address space the suite drives trackers over. Specs must
// construct trackers that accept activations anywhere in [0, Rows); a
// tracker with per-row state (MOAT) must be built over at least this many
// rows.
const Rows = 1024

// Spec describes one tracker implementation under conformance test.
type Spec struct {
	// Name labels the subtests; it does not have to equal Tracker.Name().
	Name string
	// New builds a fresh instance. Stateless trackers may ignore the seed;
	// randomized ones must derive all randomness from it so that two
	// instances with equal seeds behave identically.
	New func(seed uint64) tracker.Tracker
	// MaxOccupancy bounds Occupancy() throughout any interleaving when
	// positive; zero skips the bound check (for trackers whose occupancy is
	// workload-defined rather than capacity-defined).
	MaxOccupancy int
	// AllowZeroStorage permits StorageBits() == 0 (PARA keeps no state).
	AllowZeroStorage bool
	// Snapshot, when non-nil, exposes the tracked entries oldest-first and
	// enables the FIFO-order property: after every event, the snapshot must
	// equal the previous snapshot with zero or more entries removed from the
	// FRONT and zero or more appended at the BACK. Set it only for trackers
	// whose eviction and mitigation policies are both FIFO.
	Snapshot func(tr tracker.Tracker) []tracker.Mitigation
}

// trace is everything externally observable about one driven run: the
// mitigation stream and the occupancy after every event.
type trace struct {
	Mitigations []tracker.Mitigation
	Occupancy   []int
}

// drive replays a seeded pseudo-random interleaving of nSteps activations
// and periodic OnMitigate calls, returning the observable trace. The event
// schedule depends only on streamSeed, never on the tracker under test.
func drive(tr tracker.Tracker, streamSeed uint64, nSteps int) trace {
	var tc trace
	stream := rng.New(streamSeed)
	im, hasImmediate := tr.(tracker.ImmediateMitigator)
	for i := 0; i < nSteps; i++ {
		tr.OnActivate(int(stream.Uint64() % Rows))
		if hasImmediate {
			tc.Mitigations = append(tc.Mitigations, im.DrainImmediate()...)
		}
		// Roughly one mitigation slot per 8 activations, like a tREFI-paced
		// mitigation budget.
		if stream.Uint64()%8 == 0 {
			if m, ok := tr.OnMitigate(); ok {
				tc.Mitigations = append(tc.Mitigations, m)
			}
		}
		tc.Occupancy = append(tc.Occupancy, tr.Occupancy())
	}
	return tc
}

// RunConformance runs the full contract suite against s as subtests of t.
func RunConformance(t *testing.T, s Spec) {
	t.Helper()
	if s.New == nil {
		t.Fatalf("%s: Spec.New is nil", s.Name)
	}

	t.Run("NameStable", func(t *testing.T) {
		tr := s.New(1)
		name := tr.Name()
		if name == "" {
			t.Fatal("Name() is empty")
		}
		drive(tr, 2, 200)
		if got := tr.Name(); got != name {
			t.Fatalf("Name() changed under activity: %q -> %q", name, got)
		}
		tr.Reset()
		if got := tr.Name(); got != name {
			t.Fatalf("Name() changed across Reset: %q -> %q", name, got)
		}
	})

	t.Run("StorageBitsConstant", func(t *testing.T) {
		tr := s.New(1)
		bits := tr.StorageBits()
		if bits < 0 {
			t.Fatalf("StorageBits() = %d, must be non-negative", bits)
		}
		if bits == 0 && !s.AllowZeroStorage {
			t.Fatal("StorageBits() = 0 for a stateful tracker")
		}
		drive(tr, 3, 300)
		if got := tr.StorageBits(); got != bits {
			t.Fatalf("StorageBits() is workload-dependent: %d -> %d; storage is a hardware budget, not a fill level", bits, got)
		}
		tr.Reset()
		if got := tr.StorageBits(); got != bits {
			t.Fatalf("StorageBits() changed across Reset: %d -> %d", bits, got)
		}
	})

	t.Run("ResetRestoresFreshState", func(t *testing.T) {
		// Tracker.Reset restores the initial, empty state: no valid entries
		// and nothing left to mitigate, whatever the tracker held before.
		tr := s.New(1)
		if got := tr.Occupancy(); got != 0 {
			t.Fatalf("fresh Occupancy() = %d, want 0", got)
		}
		drive(tr, 4, 400)
		tr.Reset()
		if got := tr.Occupancy(); got != 0 {
			t.Fatalf("Occupancy() after Reset = %d, want 0", got)
		}
		tr.Reset() // Reset must be idempotent.
		if got := tr.Occupancy(); got != 0 {
			t.Fatalf("Occupancy() after double Reset = %d, want 0", got)
		}
		if m, ok := tr.OnMitigate(); ok {
			t.Fatalf("OnMitigate() after Reset = %+v, want nothing to mitigate", m)
		}
	})

	t.Run("OccupancyBounded", func(t *testing.T) {
		for _, streamSeed := range []uint64{5, 6, 7} {
			tr := s.New(streamSeed)
			tc := drive(tr, streamSeed, 600)
			for i, occ := range tc.Occupancy {
				if occ < 0 {
					t.Fatalf("stream %d: negative Occupancy() %d after event %d", streamSeed, occ, i)
				}
				if s.MaxOccupancy > 0 && occ > s.MaxOccupancy {
					t.Fatalf("stream %d: Occupancy() %d exceeds capacity %d after event %d",
						streamSeed, occ, s.MaxOccupancy, i)
				}
			}
		}
	})

	t.Run("MitigationsWellFormed", func(t *testing.T) {
		tr := s.New(8)
		tc := drive(tr, 8, 600)
		for _, m := range tc.Mitigations {
			if m.Row < 0 || m.Row >= Rows {
				t.Fatalf("mitigation row %d outside the driven space [0, %d)", m.Row, Rows)
			}
			if m.Level < 1 {
				t.Fatalf("mitigation level %d for row %d, levels are 1-based", m.Level, m.Row)
			}
		}
	})

	t.Run("SameSeedDeterminism", func(t *testing.T) {
		a := drive(s.New(9), 10, 500)
		b := drive(s.New(9), 10, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("two instances with the same seed diverged under an identical event stream")
		}
	})

	if s.Snapshot != nil {
		t.Run("FIFOOrder", func(t *testing.T) {
			for _, streamSeed := range []uint64{11, 12, 13} {
				tr := s.New(streamSeed)
				stream := rng.New(streamSeed)
				prev := s.Snapshot(tr)
				check := func(event string, i int) {
					t.Helper()
					cur := s.Snapshot(tr)
					if !isFIFOSuccessor(prev, cur) {
						t.Fatalf("stream %d: %s at event %d reordered survivors:\nbefore %v\nafter  %v",
							streamSeed, event, i, prev, cur)
					}
					prev = cur
				}
				for i := 0; i < 400; i++ {
					tr.OnActivate(int(stream.Uint64() % Rows))
					check("OnActivate", i)
					if stream.Uint64()%8 == 0 {
						tr.OnMitigate()
						check("OnMitigate", i)
					}
				}
			}
		})
	}

	t.Run("ZeroAllocActivate", func(t *testing.T) {
		// The steady-state per-activation hot path (OnActivate, inline
		// mitigation drains and the periodic OnMitigate) must not allocate:
		// the allocation-free engine loops rely on it.
		tr := s.New(14)
		im, hasImmediate := tr.(tracker.ImmediateMitigator)
		// Warm up so amortized buffers (pending-mitigation lists) reach
		// their steady-state capacity before allocations are counted.
		drive(tr, 15, 400)
		if hasImmediate {
			im.DrainImmediate()
		}
		stream := rng.New(16)
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			tr.OnActivate(int(stream.Uint64() % Rows))
			if hasImmediate {
				im.DrainImmediate()
			}
			if i++; i%8 == 0 {
				tr.OnMitigate()
			}
		})
		if allocs != 0 {
			t.Fatalf("per-activation hot path allocates %.1f allocs/op; the engine loops require 0", allocs)
		}
	})
}

// isFIFOSuccessor reports whether cur can be derived from old by removing
// zero or more entries from the front (evictions and mitigations take the
// oldest) and appending zero or more at the back (insertions join the tail)
// — the externally observable invariant of a FIFO-managed queue.
func isFIFOSuccessor(old, cur []tracker.Mitigation) bool {
	for k := 0; k <= len(old); k++ {
		kept := old[k:]
		if len(kept) > len(cur) {
			continue
		}
		match := true
		for i, e := range kept {
			if cur[i] != e {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
