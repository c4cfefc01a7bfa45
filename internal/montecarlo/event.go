package montecarlo

import (
	"pride/internal/guard"
	"pride/internal/rng"
)

// This file implements the event engine of SimulateLoss (SimulateRounds'
// closed form lives with its exact loop). The exact engine pays one RNG draw
// and one branch per activation slot; with PrIDE's pattern-independent
// Bernoulli(p) insertion the overwhelming majority of slots are non-events,
// so the event engine samples the geometric gap to the next insertion
// instead (rng.SkipT) and advances the clock directly to it, handling the
// window boundaries crossed on the way in closed form. Work drops from
// O(Periods·W) to O(insertions).
//
// The two engines consume different raw draw SEQUENCES (one draw per
// insertion instead of one per slot), so their outputs are not bit-identical
// under one seed — except at p = 1, where every slot inserts and the
// sequences coincide, a deterministic identity the tests pin. Everywhere
// else correctness is enforced by cross-validation against the exact engine
// and the analytic DP model within confidence bounds.

// simulateLossEvent is the event engine of SimulateLoss: identical
// estimator, identical attribution semantics, O(insertions) work.
func simulateLossEvent(cfg LossConfig, r *rng.Stream, sc *lossScratch) LossResult {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if r == nil {
		panic("montecarlo: nil rng stream")
	}
	res := LossResult{
		PerPosition:    make([]PositionStats, cfg.Window),
		StartOccupancy: make([]uint64, cfg.Entries+1),
	}
	sk := rng.NewSkip(rng.NewThreshold(cfg.InsertionProb))
	buf := sc.entries(cfg.Entries)
	ptr, occ := 0, 0

	// The loop below runs once per INSERTION — the whole point of the
	// engine — so its state lives in locals (ring indices wrap by compare,
	// not modulo; the result slices are hoisted) to keep the per-insertion
	// cost at one raw draw, one log, and a handful of adds.
	entries := cfg.Entries
	perPos := res.PerPosition
	startOcc := res.StartOccupancy

	w := cfg.Window
	total := cfg.Periods * w // global activation slots, 0-based
	period := 0              // period whose window the clock is inside
	t := 0                   // next unsimulated global slot
	pos := 0                 // t - period*w, tracked incrementally
	startOcc[0]++            // period 0 starts empty

	for {
		g := r.SkipT(sk)
		if g >= total-t {
			break // no further insertion lands inside the budget
		}
		t += g
		pos += g
		// The insertion lands at 1-based window position pos%w+1; replay
		// every window boundary crossed on the way there. Each boundary is
		// the exact engine's end-of-window step — pop the oldest entry,
		// attribute the mitigation, record the next window's start
		// occupancy — and once the FIFO is empty the remaining boundaries
		// collapse to a single closed-form occupancy-zero batch. The
		// single-crossing case skips the integer division: most gaps cross
		// at most one boundary for the probabilities the engines sweep.
		if pos >= w {
			var m int
			if pos < 2*w {
				m, pos = 1, pos-w
			} else {
				m = pos / w
				pos -= m * w
			}
			period += m
			for ; m > 0 && occ > 0; m-- {
				perPos[buf[ptr].position-1].Mitigated++
				if ptr++; ptr == entries {
					ptr = 0
				}
				occ--
				startOcc[occ]++
			}
			if m > 0 {
				startOcc[0] += uint64(m)
			}
		}
		if cfg.SelfCheck {
			// Gap accounting: after replaying the crossed boundaries the
			// clock must sit inside the current window with a consistent
			// period index, and the FIFO inside its bounds — any drift here
			// silently mis-attributes every later insertion.
			if pos < 0 || pos >= w {
				guard.Failf("montecarlo.event", "gap-accounting", "window position %d outside [0,%d) at slot %d", pos, w, t)
			}
			if t-pos != period*w {
				guard.Failf("montecarlo.event", "gap-accounting", "slot %d, position %d inconsistent with period %d (w=%d)", t, pos, period, w)
			}
			if occ < 0 || occ > entries || ptr < 0 || ptr >= entries {
				guard.Failf("montecarlo.event", "fifo-bounds", "occ %d ptr %d outside FIFO of %d", occ, ptr, entries)
			}
		}
		k := pos + 1
		perPos[pos].Insertions++
		if occ == entries {
			perPos[buf[ptr].position-1].Evicted++
			if ptr++; ptr == entries {
				ptr = 0
			}
			occ--
		}
		tail := ptr + occ
		if tail >= entries {
			tail -= entries
		}
		buf[tail] = taggedEntry{position: k}
		occ++
		t++
		pos++
	}

	// Drain the boundaries after the last insertion. The final period's end
	// has no following window start, so the last boundary pops without
	// recording an occupancy sample; once the FIFO empties, the remaining
	// empty starts are a single closed-form add.
	rem := cfg.Periods - period
	if cfg.SelfCheck && rem < 0 {
		guard.Failf("montecarlo.event", "gap-accounting", "drain: period %d beyond budget %d", period, cfg.Periods)
	}
	pops := occ
	if pops > rem {
		pops = rem
	}
	for i := 1; i <= pops; i++ {
		perPos[buf[ptr].position-1].Mitigated++
		if ptr++; ptr == entries {
			ptr = 0
		}
		occ--
		if i < rem {
			startOcc[occ]++
		}
	}
	if rem > pops {
		startOcc[0] += uint64(rem - pops - 1)
	}
	return res
}
