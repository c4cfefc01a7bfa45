package memctrl

import (
	"reflect"
	"strconv"
	"testing"

	"pride/internal/baseline"
	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/guard"
	"pride/internal/rng"
	"pride/internal/tracker"
)

// rowsCase is one controller configuration under the ActivateRows
// equivalence test.
type rowsCase struct {
	name string
	cfg  func(p dram.Params) Config
	trk  func(p dram.Params, r *rng.Stream) tracker.Tracker
}

func rowsCases() []rowsCase {
	def := func(p dram.Params) Config { return DefaultConfig(p) }
	pride := func(mut func(*core.Config)) func(dram.Params, *rng.Stream) tracker.Tracker {
		return func(p dram.Params, r *rng.Stream) tracker.Tracker {
			c := core.DefaultConfig(p.ACTsPerTREFI())
			mut(&c)
			return core.New(c, r)
		}
	}
	return []rowsCase{
		{"PrIDE", def, pride(func(*core.Config) {})},
		{"PrIDE+RFM16", func(p dram.Params) Config {
			c := DefaultConfig(p)
			c.RFMThreshold = core.RFM16
			return c
		}, pride(func(c *core.Config) { *c = core.RFMConfig(core.RFM16) })},
		{"PrIDE/every-2-REF", func(p dram.Params) Config {
			c := DefaultConfig(p)
			c.MitigationEveryNREF = 2
			return c
		}, pride(func(*core.Config) {})},
		{"PrIDE/periodic-refresh", func(p dram.Params) Config {
			c := DefaultConfig(p)
			c.PeriodicRefresh = true
			return c
		}, pride(func(*core.Config) {})},
		{"PrIDE/insecure-R1", def, pride(func(c *core.Config) { c.InsecureAlwaysInsertIfInvalid = true })},
		{"PrIDE/insecure-R2", def, pride(func(c *core.Config) { c.InsecureSkipDuplicates = true })},
		{"PrIDE/random-evict", def, pride(func(c *core.Config) { c.Eviction = core.Random; c.InsertionProb = 0.1 })},
		{"PARA-MC", def, func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return baseline.NewPARA(1/float64(p.ACTsPerTREFI()+1), r)
		}},
		{"MINT", def, func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return tracker.NewMINT(p.ACTsPerTREFI(), p.RowBits, r)
		}},
		{"DSAC", def, func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return baseline.NewDSAC(baseline.DefaultDSACEntries, p.RowBits, r)
		}},
	}
}

// replayRows returns n seeded rows: mostly a few hot rows, so victims
// flip and trackers fill, the rest spread over the bank, edge rows
// included.
func replayRows(rows, n int, seed uint64) []int32 {
	out := make([]int32, n)
	s := seed
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		v := int(s >> 33)
		switch v % 10 {
		case 0:
			out[i] = 0
		case 1:
			out[i] = int32(rows - 1)
		case 2, 3, 4, 5, 6:
			out[i] = int32(500 + 2*((v>>4)%4))
		default:
			out[i] = int32((v >> 4) % rows)
		}
	}
	return out
}

// TestActivateRowsEquivalentToActivate replays one seeded row stream
// through twin controllers — per-ACT Activate against ActivateRows over
// blocks of 1, 7, 79, 80 and 4096 rows — and requires the controller
// stats, the bank state, the tracker's full state (queue and stats
// included) and the next raw draw of its stream to match, with the
// self-checks on.
func TestActivateRowsEquivalentToActivate(t *testing.T) {
	p := smallParams()
	const trh = 60
	rows := replayRows(p.RowsPerBank, 20000, 3)
	for _, tc := range rowsCases() {
		for _, block := range []int{1, 7, 79, 80, 4096} {
			cfg := tc.cfg(p)
			cfg.SelfCheck = true
			stepStream, batchStream := rng.New(9), rng.New(9)
			stepped := New(cfg, dram.MustNewBank(p, trh), tc.trk(p, stepStream))
			batched := New(cfg, dram.MustNewBank(p, trh), tc.trk(p, batchStream))
			for _, r := range rows {
				stepped.Activate(int(r))
			}
			for rest := rows; len(rest) > 0; {
				n := min(block, len(rest))
				batched.ActivateRows(rest[:n])
				rest = rest[n:]
			}
			label := tc.name + "/block=" + strconv.Itoa(block)
			controllersEqual(t, label, stepped, batched)
			if a, b := stepped.Bank().MaxHammers(), batched.Bank().MaxHammers(); a != b {
				t.Fatalf("%s: MaxHammers %d vs %d", label, a, b)
			}
			if !reflect.DeepEqual(stepped.Tracker(), batched.Tracker()) {
				t.Fatalf("%s: tracker state diverged:\nper-ACT %+v\nbatch   %+v", label, stepped.Tracker(), batched.Tracker())
			}
			if a, b := stepStream.Uint64(), batchStream.Uint64(); a != b {
				t.Fatalf("%s: next raw draw %#x vs %#x", label, a, b)
			}
			if st := stepped.Stats(); st.Mitigations == 0 || len(stepped.Bank().Flips()) == 0 {
				t.Fatalf("%s: the stream mitigated %d times and flipped %d rows; want both", label, st.Mitigations, len(stepped.Bank().Flips()))
			}
		}
	}
}

// TestActivateRowsGuardTrip pins the -selfcheck contract on ActivateRows'
// segment rule: corrupted cadence state surfaces as a named violation.
func TestActivateRowsGuardTrip(t *testing.T) {
	p := smallParams()
	for _, tc := range []struct {
		corrupt   func(c *Controller)
		invariant string
	}{
		{func(c *Controller) { c.actsInTREFI = p.ACTsPerTREFI() }, "trefi-position"},
		{func(c *Controller) { c.raa = 16 }, "raa-bound"},
	} {
		cfg := DefaultConfig(p)
		cfg.RFMThreshold = 16
		cfg.SelfCheck = true
		c := New(cfg, dram.MustNewBank(p, 0), newPride(1))
		tc.corrupt(c)
		func() {
			defer func() {
				v, ok := guard.AsViolation(recover())
				if !ok || v.Component != "memctrl" || v.Invariant != tc.invariant {
					t.Fatalf("tripped %v, want memctrl/%s", v, tc.invariant)
				}
			}()
			c.ActivateRows([]int32{1, 2, 3})
		}()
	}
}

func TestActivateRowsAllocationFree(t *testing.T) {
	p := smallParams()
	c := New(DefaultConfig(p), dram.MustNewBank(p, 0), newPride(1))
	rows := replayRows(p.RowsPerBank, 4096, 5)
	if avg := testing.AllocsPerRun(50, func() { c.ActivateRows(rows) }); avg != 0 {
		t.Fatalf("ActivateRows allocates %v per block, want 0", avg)
	}
}
