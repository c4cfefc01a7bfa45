package sim

import (
	"pride/internal/engine"
	"pride/internal/memctrl"
	"pride/internal/patterns"
	"pride/internal/rng"
)

// This file is the one bank driver every controller-level experiment runs
// through: the Fig 15 attack (RunAttack), the system TTF sweep
// (internal/system) and the island search. The exact engine steps every
// activation: one pattern step, one tracker draw, one bank-counter update
// per ACT. The event engine skips ahead when the tracker allows it:
//
//   - With a skip-ahead tracker (PrIDE, PARA) the insertion decision is a
//     pattern-independent Bernoulli(p), so Drive samples the geometric gap to
//     the next insertion (rng.SkipT) and retires the gap in bulk: pattern
//     runs collapse through Pattern.Run/Advance into memctrl.ActivateRun
//     segments, whose deterministic hammer/REF/RFM bookkeeping is
//     ACT-for-ACT identical to the stepped path. The gap draws and the
//     tracker's transitive-mitigation draws share ONE stream, in the order
//     the exact engine consumes them (gap drawn immediately before the
//     insertion it decides). At p = 1 every slot inserts and the two
//     engines' draw sequences coincide exactly, which the tests pin as
//     bit-identity; below p = 1 equivalence is statistical.
//   - Scheduled trackers (MINT) pre-commit each interval's insertion
//     position instead of drawing per ACT, so geometric gaps would simulate
//     the wrong process; Drive queries tracker.ScheduledAdvancer.NextInsert
//     and idles to either the scheduled slot or the next mitigation
//     opportunity, re-querying after every opportunity. Because the
//     schedule draw happens inside OnMitigate on both paths, the scheduled
//     path is bit-identical to the exact path at ANY insertion probability.
//   - Trackers without either capability (PRoHIT, DSAC, PARFM, MOAT,
//     insecure PrIDE ablations) and the OpenPage policy (activations depend
//     on row-buffer state, so slots are not iid) step every ACT, exactly as
//     the exact engine does.

// DrivesByEvents reports whether Drive advances ctrl by events — through the
// geometric-gap or the scheduled loop — rather than stepping every ACT:
// only on the event engine, under ClosedPage, for a tracker with a
// skip-ahead capability.
func DrivesByEvents(ctrl *memctrl.Controller, eng engine.Kind, policy RowPolicy) bool {
	if eng != engine.Event || policy != ClosedPage {
		return false
	}
	if _, ok := ctrl.SkipAdvancer(); ok {
		return true
	}
	_, ok := ctrl.ScheduledAdvancer()
	return ok
}

// Drive issues the next n demand-ACT slots of pat, from the pattern's
// current cursor, through ctrl on engine eng under the page policy, and
// moves the cursor n slots. r is the stream the controller's tracker draws
// from; the geometric-gap loop draws its gaps from it too. stop, when
// non-nil, is consulted after every chunk — one ACT on the stepped path, one
// idle stretch and the insertion ending it on the event paths — and Drive
// returns true, running nothing more, as soon as it reports true; it
// returns false when all n slots ran without stop firing.
//
// On the stepped and scheduled paths, and on the exact engine, Drive(n1)
// followed by Drive(n2) leaves ctrl, its bank and tracker, r and pat
// exactly as Drive(n1+n2) does under ClosedPage, which lets the system
// sweep run one tREFI per call. The geometric-gap loop discards the gap
// that overshoots the drive, so split drives consume other draws.
func Drive(ctrl *memctrl.Controller, pat *patterns.Pattern, r *rng.Stream, n int, eng engine.Kind, policy RowPolicy, stop func() bool) bool {
	if !DrivesByEvents(ctrl, eng, policy) {
		openRow := -1
		for ; n > 0; n-- {
			row := pat.Next()
			if policy == OpenPage {
				// Same-row accesses hit the open row buffer: no activation,
				// no hammering, no tracker event. The slot is still consumed
				// (the access occupies the command bus).
				if row == openRow {
					continue
				}
				openRow = row
			}
			ctrl.Activate(row)
			if stop != nil && stop() {
				return true
			}
		}
		return false
	}
	if sa, ok := ctrl.SkipAdvancer(); ok {
		sk := rng.NewSkip(rng.NewThreshold(sa.InsertionProb()))
		for n > 0 {
			if g := r.SkipT(sk); g >= n {
				// No further insertion lands inside the budget: the rest of
				// the drive is one idle stretch.
				idleACTs(ctrl, pat, n)
				n = 0
			} else {
				idleACTs(ctrl, pat, g)
				ctrl.ActivateInsert(pat.Next())
				n -= g + 1
			}
			if stop != nil && stop() {
				return true
			}
		}
		return false
	}
	sched, _ := ctrl.ScheduledAdvancer()
	for n > 0 {
		idle, ok := sched.NextInsert()
		if next := ctrl.ACTsToNextMitigation(); !ok || idle >= next {
			// No insertion lands before the next opportunity: idle through
			// it (ActivateRun fires OnMitigate at the exact boundary,
			// advancing the schedule) and re-query.
			k := min(next, n)
			idleACTs(ctrl, pat, k)
			n -= k
		} else if idle >= n {
			idleACTs(ctrl, pat, n)
			n = 0
		} else {
			idleACTs(ctrl, pat, idle)
			ctrl.ActivateInsert(pat.Next())
			n -= idle + 1
		}
		if stop != nil && stop() {
			return true
		}
	}
	return false
}

// idleACTs retires n insertion-free activations. Patterns with a small
// fundamental cycle (single-sided, double-sided, TRRespass, Blacksmith
// without decoy drift) retire the whole stretch through one
// ActivateRunGroup call, so a length-2 cycle does not degenerate to per-ACT
// work. Longer cycles fall back to same-row run batching.
func idleACTs(ctrl *memctrl.Controller, pat *patterns.Pattern, n int) {
	if n <= 0 {
		return
	}
	if pat.CycleLen() <= patterns.MaxBatchGroup {
		rows, phase := pat.Group()
		ctrl.ActivateRunGroup(rows, phase, n)
		pat.Advance(n)
		return
	}
	for n > 0 {
		row, k := pat.Run(n)
		ctrl.ActivateRun(row, k)
		pat.Advance(k)
		n -= k
	}
}
