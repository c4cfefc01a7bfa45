package campaign

import (
	"testing"

	"pride/internal/engine"
	"pride/internal/guard"
)

// fallbacks is a Sink that counts event→exact fallbacks.
type fallbacks struct{ n int64 }

func (f *fallbacks) AddPeriods(int64)           {}
func (f *fallbacks) AddActivations(int64)       {}
func (f *fallbacks) AddMitigations(int64)       {}
func (f *fallbacks) AddEngineFallbacks(n int64) { f.n += n }

// tripAt forces an engine trip on one trial index.
type tripAt uint64

func (t tripAt) TrialFault(int, int) error    { return nil }
func (t tripAt) EngineTrip(trial uint64) bool { return trial == uint64(t) }

func TestTrialRunsTheSelectedEngine(t *testing.T) {
	exact := func() string { return "exact" }
	event := func() string { return "event" }
	for _, c := range []struct {
		eng  engine.Kind
		want string
	}{{engine.Exact, "exact"}, {engine.Event, "event"}} {
		sink := &fallbacks{}
		if got := Trial(Options{Engine: c.eng, Progress: sink}, "test.event", 0, exact, event); got != c.want {
			t.Errorf("engine %v ran %q, want %q", c.eng, got, c.want)
		}
		if sink.n != 0 {
			t.Errorf("engine %v counted %d fallbacks, want 0", c.eng, sink.n)
		}
	}
}

func TestTrialFallsBackOnATrippedGuard(t *testing.T) {
	exact := func() int { return 1 }
	tripping := func() int {
		guard.Failf("test", "invariant", "tripped")
		return 2
	}
	sink := &fallbacks{}
	if got := Trial(Options{Engine: engine.Event, Progress: sink}, "test.event", 3, exact, tripping); got != 1 {
		t.Fatalf("tripped event trial returned %d, want the exact result 1", got)
	}
	if sink.n != 1 {
		t.Fatalf("counted %d fallbacks, want 1", sink.n)
	}
}

func TestTrialHonoursAForcedTrip(t *testing.T) {
	exact := func() int { return 1 }
	event := func() int { return 2 }
	sink := &fallbacks{}
	o := Options{Engine: engine.Event, Progress: sink, Faults: tripAt(4)}
	for i, want := range []int{2, 2, 2, 2, 1, 2} {
		if got := Trial(o, "test.event", i, exact, event); got != want {
			t.Errorf("trial %d = %d, want %d", i, got, want)
		}
	}
	if sink.n != 1 {
		t.Fatalf("counted %d fallbacks, want 1", sink.n)
	}
	// An exact-engine campaign has no event trial to trip.
	if got := Trial(Options{Engine: engine.Exact, Faults: tripAt(0)}, "test.event", 0, exact, event); got != 1 {
		t.Fatalf("exact-engine trial with a forced trip = %d, want 1", got)
	}
}

func TestTrialPropagatesOtherPanics(t *testing.T) {
	defer func() {
		if v := recover(); v != "bug" {
			t.Fatalf("recovered %v, want the event trial's own panic", v)
		}
	}()
	Trial(Options{Engine: engine.Event}, "test.event", 0,
		func() int { return 1 },
		func() int { panic("bug") })
	t.Fatal("a non-guard panic was swallowed")
}
