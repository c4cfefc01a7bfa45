package trackertest

import (
	"reflect"
	"testing"

	"pride/internal/rng"
	"pride/internal/tracker"
)

// SkipSpec describes one tracker.SkipAdvancer implementation under the
// skip-ahead equivalence suite.
//
// Do NOT register trackers whose victim-selection policies draw Intn from
// the tracker stream (PrIDE's Random ablation): the suite drives trackers
// with constant rigged sources, and rejection-sampling Intn over a constant
// source can spin forever. FIFO-policy trackers are safe — their only
// stream draws are threshold compares.
type SkipSpec struct {
	// Name labels the subtests.
	Name string
	// New builds a fresh instance drawing all randomness from r. The suite
	// passes rigged streams whose raw draws it controls, so every
	// threshold compare the tracker makes resolves the way the schedule
	// dictates.
	New func(r *rng.Stream) tracker.SkipAdvancer
	// Snapshot, when non-nil, exposes the tracked entries oldest-first and
	// tightens the equivalence check from occupancy-only to full queue
	// state.
	Snapshot func(tr tracker.Tracker) []tracker.Mitigation
	// Prob, when non-zero, is the configured insertion probability;
	// InsertionProb() must return its lattice rounding.
	Prob float64
}

// modeSource is a rigged rng.Source returning a settable constant, so the
// harness decides the outcome of every threshold compare: fireDraw makes
// any Bernoulli with p > 0 fire, idleDraw makes any Bernoulli with p < 1
// fail.
type modeSource struct {
	v     uint64
	draws int
}

const (
	fireDraw = uint64(0)
	idleDraw = ^uint64(0)
)

func (m *modeSource) Uint64() uint64 {
	m.draws++
	return m.v
}

// skipPair holds a stepped reference instance and a skip-ahead instance
// driven through identical event schedules.
type skipPair struct {
	t *testing.T
	s SkipSpec

	stepped     tracker.SkipAdvancer
	steppedSrc  *modeSource
	steppedImm  tracker.ImmediateMitigator
	hasImm      bool
	skip        tracker.SkipAdvancer
	skipSrc     *modeSource
	skipImm     tracker.ImmediateMitigator
	steppedRows int // row counter for idle-ACT addresses
}

func newSkipPair(t *testing.T, s SkipSpec) *skipPair {
	t.Helper()
	p := &skipPair{t: t, s: s}
	p.steppedSrc = &modeSource{v: idleDraw}
	p.skipSrc = &modeSource{v: idleDraw}
	p.stepped = s.New(rng.NewStream(p.steppedSrc))
	p.skip = s.New(rng.NewStream(p.skipSrc))
	p.steppedImm, p.hasImm = p.stepped.(tracker.ImmediateMitigator)
	if p.hasImm {
		p.skipImm = p.skip.(tracker.ImmediateMitigator)
	}
	return p
}

// idle advances both instances over n activations with failing insertion
// draws: the stepped instance pays n OnActivate calls, the skip instance one
// AdvanceIdle. The skip instance must consume zero draws.
func (p *skipPair) idle(n int) {
	p.t.Helper()
	p.steppedSrc.v = idleDraw
	for i := 0; i < n; i++ {
		p.stepped.OnActivate(p.steppedRows % Rows)
		p.steppedRows++
		if p.hasImm {
			if got := p.steppedImm.DrainImmediate(); len(got) != 0 {
				p.t.Fatalf("idle activation produced immediate mitigations %v", got)
			}
		}
	}
	before := p.skipSrc.draws
	p.skip.AdvanceIdle(n)
	if p.skipSrc.draws != before {
		p.t.Fatalf("AdvanceIdle(%d) consumed %d draws, contract says 0", n, p.skipSrc.draws-before)
	}
	p.compare("idle")
}

// insert applies one successful-draw activation to both instances.
func (p *skipPair) insert(row int) {
	p.t.Helper()
	p.steppedSrc.v = fireDraw
	p.stepped.OnActivate(row)
	before := p.skipSrc.draws
	p.skip.ActivateInsert(row)
	if p.skipSrc.draws != before {
		p.t.Fatalf("ActivateInsert consumed %d draws, contract says 0", p.skipSrc.draws-before)
	}
	var a, b []tracker.Mitigation
	if p.hasImm {
		a = append(a, p.steppedImm.DrainImmediate()...)
		b = append(b, p.skipImm.DrainImmediate()...)
		if !reflect.DeepEqual(a, b) {
			p.t.Fatalf("immediate mitigations diverged: stepped %v, skip %v", a, b)
		}
	}
	p.compare("insert")
}

// mitigate drives one mitigation opportunity on both instances with the
// given rigged draw (feeding e.g. PrIDE's transitive re-insertion compare).
func (p *skipPair) mitigate(draw uint64) {
	p.t.Helper()
	p.steppedSrc.v = draw
	p.skipSrc.v = draw
	am, aok := p.stepped.OnMitigate()
	bm, bok := p.skip.OnMitigate()
	if am != bm || aok != bok {
		p.t.Fatalf("OnMitigate diverged: stepped (%v,%v), skip (%v,%v)", am, aok, bm, bok)
	}
	p.compare("mitigate")
}

func (p *skipPair) compare(event string) {
	p.t.Helper()
	if a, b := p.stepped.Occupancy(), p.skip.Occupancy(); a != b {
		p.t.Fatalf("after %s: occupancy diverged, stepped %d, skip %d", event, a, b)
	}
	if p.s.Snapshot != nil {
		a, b := p.s.Snapshot(p.stepped), p.s.Snapshot(p.skip)
		if !reflect.DeepEqual(a, b) {
			p.t.Fatalf("after %s: queue state diverged:\nstepped %v\nskip    %v", event, a, b)
		}
	}
}

// RunSkipAhead runs the skip-ahead equivalence suite against s as subtests
// of t: (AdvanceIdle(n); ActivateInsert(row)) must be state-equivalent to n
// failed-draw OnActivate calls plus one successful-draw OnActivate(row),
// consuming zero tracker-stream draws, across pure idle runs and randomized
// interleavings with mitigation opportunities.
func RunSkipAhead(t *testing.T, s SkipSpec) {
	t.Helper()
	if s.New == nil {
		t.Fatalf("%s: SkipSpec.New is nil", s.Name)
	}

	t.Run("Supports", func(t *testing.T) {
		tr := s.New(rng.New(1))
		if !tr.SupportsSkipAhead() {
			t.Fatal("SupportsSkipAhead() = false for a registered skip-ahead spec")
		}
		p := tr.InsertionProb()
		if p <= 0 || p > 1 {
			t.Fatalf("InsertionProb() = %v, want in (0,1]", p)
		}
		if s.Prob != 0 {
			if want := rng.NewThreshold(s.Prob).Prob(); p != want {
				t.Fatalf("InsertionProb() = %v, want lattice rounding %v of %v", p, want, s.Prob)
			}
		}
	})

	t.Run("AdvanceIdleMatchesSteppedIdle", func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 100, 5000} {
			p := newSkipPair(t, s)
			// Build up some queue state first so the idle run must
			// preserve a non-trivial FIFO, then fast-forward.
			for _, row := range []int{3, 1, 4, 1, 5} {
				p.insert(row)
			}
			p.mitigate(idleDraw)
			p.idle(n)
			// Drain both queues, comparing every popped mitigation.
			for p.stepped.Occupancy() > 0 || p.skip.Occupancy() > 0 {
				p.mitigate(idleDraw)
			}
			p.mitigate(idleDraw) // both empty: must agree on (zero, false) too
		}
	})

	t.Run("InterleavedScheduleEquivalence", func(t *testing.T) {
		for _, seed := range []uint64{17, 18, 19} {
			p := newSkipPair(t, s)
			sched := rng.New(seed)
			for ev := 0; ev < 300; ev++ {
				switch r := sched.Uint64() % 10; {
				case r < 6:
					p.idle(sched.Intn(50))
				case r < 8:
					p.insert(sched.Intn(Rows))
				default:
					draw := idleDraw
					if sched.Uint64()%2 == 0 {
						// Exercise draw-consuming mitigation paths
						// (PrIDE's transitive re-insertion).
						draw = fireDraw
					}
					p.mitigate(draw)
				}
			}
		}
	})

	t.Run("AdvanceIdleNegativePanics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceIdle(-1) did not panic")
			}
		}()
		s.New(rng.New(2)).AdvanceIdle(-1)
	})
}
