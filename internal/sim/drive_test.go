package sim

import (
	"reflect"
	"testing"

	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/memctrl"
	"pride/internal/patterns"
	"pride/internal/rng"
)

// driveCase is one of Drive's paths: a scheme, an engine and a page policy,
// and whether Drive is expected to advance by events there.
type driveCase struct {
	name     string
	scheme   Scheme
	eng      engine.Kind
	policy   RowPolicy
	byEvents bool
}

// driveCases covers every loop of Drive on both engines: PrIDE takes the
// geometric-gap loop, MINT the scheduled loop, DSAC the stepped fallback,
// and OpenPage steps even PrIDE.
func driveCases(t *testing.T) []driveCase {
	var cases []driveCase
	for _, c := range []struct {
		name   string
		scheme Scheme
		policy RowPolicy
		skips  bool
	}{
		{"PrIDE", PrIDEScheme(), ClosedPage, true},
		{"MINT", MINTScheme(), ClosedPage, true},
		{"DSAC", fig15ByName(t, "DSAC"), ClosedPage, false},
		{"PrIDE/OpenPage", PrIDEScheme(), OpenPage, false},
	} {
		for _, eng := range []engine.Kind{engine.Exact, engine.Event} {
			cases = append(cases, driveCase{c.name + "/" + eng.String(), c.scheme, eng, c.policy, c.skips && eng == engine.Event})
		}
	}
	return cases
}

// drivePatterns returns a short-cycle pattern (idle stretches retire
// through ActivateRunGroup) and a long-cycle one (same-row runs).
func drivePatterns(t *testing.T) []*patterns.Pattern {
	pats := []*patterns.Pattern{patterns.TRRespass(1000, 40, 3), blacksmithBreaker()}
	if pats[0].CycleLen() > patterns.MaxBatchGroup || pats[1].CycleLen() <= patterns.MaxBatchGroup {
		t.Fatal("drive patterns no longer cover both idle paths")
	}
	return pats
}

// newDrive builds a controller for c the way RunAttack does, returning it
// with the stream its tracker draws from.
func newDrive(c driveCase, seed uint64) (*memctrl.Controller, *rng.Stream) {
	p := simParams()
	r := rng.New(seed)
	return c.scheme.Controller(p, dram.MustNewBank(p, 200), r, true), r
}

// advanced returns a copy of pat's state n slots further on.
func advanced(pat *patterns.Pattern, n int) *patterns.Pattern {
	pat.CycleLen() // the cached cycle is part of the compared state
	c := *pat
	c.Advance(n)
	return &c
}

// TestDriveMovesCursorAndACTsByN: without a stop, a Drive of n slots moves
// the pattern cursor exactly n slots on every path, and under ClosedPage
// issues exactly n ACTs.
func TestDriveMovesCursorAndACTsByN(t *testing.T) {
	for _, c := range driveCases(t) {
		for _, pat := range drivePatterns(t) {
			ctrl, r := newDrive(c, 3)
			if got := DrivesByEvents(ctrl, c.eng, c.policy); got != c.byEvents {
				t.Fatalf("%s: DrivesByEvents = %v, want %v", c.name, got, c.byEvents)
			}
			pat.Reset()
			for _, n := range []int{1, 79, 20_000} {
				want := advanced(pat, n)
				before := ctrl.Stats().ACTs
				if Drive(ctrl, pat, r, n, c.eng, c.policy, nil) {
					t.Fatalf("%s/%s: Drive without a stop reported a stop", c.name, pat.Name)
				}
				if !reflect.DeepEqual(pat, want) {
					t.Fatalf("%s/%s: Drive(%d) did not move the cursor %d slots", c.name, pat.Name, n, n)
				}
				if got := ctrl.Stats().ACTs - before; c.policy == ClosedPage && got != uint64(n) {
					t.Fatalf("%s/%s: Drive(%d) issued %d ACTs", c.name, pat.Name, n, got)
				}
			}
			if ctrl.Stats().Mitigations == 0 {
				t.Fatalf("%s/%s: no mitigations, the drive exercised no boundary", c.name, pat.Name)
			}
		}
	}
}

// TestDriveStopEndsAfterItsChunk: a stop that fires makes Drive return
// true with nothing run after the chunk it fired on, and one that never
// fires lets all n slots run.
func TestDriveStopEndsAfterItsChunk(t *testing.T) {
	for _, c := range driveCases(t) {
		for _, pat := range drivePatterns(t) {
			for _, fireAt := range []int{1, 5, 1 << 30} {
				ctrl, r := newDrive(c, 4)
				pat.Reset()
				calls := 0
				var atStop memctrl.Stats
				var patAtStop patterns.Pattern
				stop := func() bool {
					calls++
					atStop, patAtStop = ctrl.Stats(), *pat
					return calls == fireAt
				}
				const n = 50_000
				want := advanced(pat, n)
				stopped := Drive(ctrl, pat, r, n, c.eng, c.policy, stop)
				if fired := calls == fireAt; stopped != fired {
					t.Fatalf("%s/%s: stop fired %v after %d calls, Drive returned %v", c.name, pat.Name, fired, calls, stopped)
				}
				if calls == 0 || ctrl.Stats() != atStop || !reflect.DeepEqual(*pat, patAtStop) {
					t.Fatalf("%s/%s: work ran after the last stop call (%d calls)", c.name, pat.Name, calls)
				}
				if !stopped && !reflect.DeepEqual(pat, want) {
					t.Fatalf("%s/%s: an unstopped Drive did not run all %d slots", c.name, pat.Name, n)
				}
			}
		}
	}
}

// TestDriveSplitEqualsWhole pins the property the system TTF sweep's
// lockstep loop relies on: on the exact engine and on the scheduled and
// stepped event paths, Drive(n1) then Drive(n2) leaves the controller,
// bank, tracker, stream and pattern exactly as Drive(n1+n2) does. The
// geometric-gap loop is exempt: it discards the gap that overshoots a
// drive.
func TestDriveSplitEqualsWhole(t *testing.T) {
	const total = 30_000
	for _, c := range driveCases(t) {
		if c.policy != ClosedPage || (c.byEvents && c.scheme.Name != "MINT") {
			continue
		}
		for _, pat := range drivePatterns(t) {
			whole, wholeR := newDrive(c, 5)
			wholePat := pat.Clone()
			Drive(whole, wholePat, wholeR, total, c.eng, c.policy, nil)
			if len(whole.Bank().Flips()) == 0 {
				t.Fatalf("%s/%s: no flips, the split test compares no failure state", c.name, pat.Name)
			}
			for _, at := range []int{1, 78, 79, 80, 1000, 12345} {
				split, splitR := newDrive(c, 5)
				splitPat := pat.Clone()
				Drive(split, splitPat, splitR, at, c.eng, c.policy, nil)
				Drive(split, splitPat, splitR, total-at, c.eng, c.policy, nil)
				if !reflect.DeepEqual(split, whole) || !reflect.DeepEqual(splitR, wholeR) || !reflect.DeepEqual(splitPat, wholePat) {
					t.Fatalf("%s/%s: Drive(%d)+Drive(%d) differs from Drive(%d):\nsplit %+v\nwhole %+v",
						c.name, pat.Name, at, total-at, total, split.Stats(), whole.Stats())
				}
			}
		}
	}
}

// TestSchemeControllerAppliesSchemeSettings pins the controller settings
// Scheme.Controller takes from a scheme: the RFM threshold, or without one
// the every-REF cadence, shows in the distance to the first mitigation
// opportunity of a fresh controller.
func TestSchemeControllerAppliesSchemeSettings(t *testing.T) {
	p := simParams()
	w := p.ACTsPerTREFI()
	for _, c := range []struct {
		s    Scheme
		next int
	}{
		{PrIDEScheme(), w},
		{PrIDERFMScheme(core.RFM16), core.RFM16},
	} {
		ctrl := c.s.Controller(p, dram.MustNewBank(p, 0), rng.New(1), false)
		if got := ctrl.ACTsToNextMitigation(); got != c.next {
			t.Errorf("%s: first mitigation opportunity after %d ACTs, want %d", c.s.Name, got, c.next)
		}
	}
}
