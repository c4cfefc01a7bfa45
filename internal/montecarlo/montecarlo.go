// Package montecarlo provides the stochastic counterparts of the analytical
// models in internal/analytic, following the paper's methodology (footnote 1
// of Section IV-C): stream millions of tREFI windows through a FIFO tracker
// with probabilistic insertion and measure, per window position, how often an
// inserted entry is evicted without mitigation.
//
// The Monte-Carlo results are cross-validated against the exact DP model in
// tests and regenerated for Fig 8 and Fig 18 by cmd/pride-security and
// cmd/pride-attack.
package montecarlo

import (
	"fmt"

	"pride/internal/engine"
	"pride/internal/guard"
	"pride/internal/rng"
)

// LossConfig parameterizes a loss-probability simulation.
type LossConfig struct {
	// Entries is the tracker size N.
	Entries int
	// Window is W, the activations per mitigation window.
	Window int
	// InsertionProb is the sampling probability p.
	InsertionProb float64
	// Periods is the number of tREFI windows to simulate (the paper uses
	// 100 million; tests use far fewer since the estimator is unbiased).
	Periods int
	// SelfCheck enables runtime invariant guards (FIFO occupancy bounds,
	// event-engine gap accounting). A violated guard panics with a
	// guard.Violation; campaigns catch it and fall back to the exact
	// engine. Not part of the checkpoint key.
	SelfCheck bool
}

// Validate reports whether the config describes a runnable simulation.
// Campaign entry points panic on an invalid config (a programming error in
// the calling binary); services validating externally-supplied specs call
// this first and turn the error into a client-facing rejection instead.
func (c LossConfig) Validate() error { return c.validate() }

func (c LossConfig) validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("montecarlo: Entries must be positive, got %d", c.Entries)
	case c.Window <= 0:
		return fmt.Errorf("montecarlo: Window must be positive, got %d", c.Window)
	case c.InsertionProb <= 0 || c.InsertionProb > 1:
		return fmt.Errorf("montecarlo: InsertionProb must be in (0,1], got %v", c.InsertionProb)
	case c.Periods <= 0:
		return fmt.Errorf("montecarlo: Periods must be positive, got %d", c.Periods)
	}
	return nil
}

// PositionStats accumulates, for one window position k, how many insertions
// happened there and how they were resolved.
type PositionStats struct {
	Insertions uint64
	Evicted    uint64
	Mitigated  uint64
}

// LossProb returns the measured loss probability: evictions divided by
// resolved insertions. Unresolved entries (still buffered when the
// simulation ends) are excluded.
func (s PositionStats) LossProb() float64 {
	resolved := s.Evicted + s.Mitigated
	if resolved == 0 {
		return 0
	}
	return float64(s.Evicted) / float64(resolved)
}

// LossResult is the outcome of a loss-probability simulation.
type LossResult struct {
	// PerPosition has one entry per window position (index 0 = position 1,
	// the earliest and riskiest).
	PerPosition []PositionStats
	// StartOccupancy histograms the buffer occupancy at window starts,
	// for cross-checking the Appendix-A Markov chain.
	StartOccupancy []uint64
}

// WorstLoss returns the maximum per-position measured loss probability —
// the quantity the paper's model upper-bounds.
func (r LossResult) WorstLoss() float64 {
	worst := 0.0
	for _, s := range r.PerPosition {
		if l := s.LossProb(); l > worst {
			worst = l
		}
	}
	return worst
}

// OccupancyDistribution returns the start-of-window occupancy distribution
// as probabilities.
func (r LossResult) OccupancyDistribution() []float64 {
	total := uint64(0)
	for _, c := range r.StartOccupancy {
		total += c
	}
	out := make([]float64, len(r.StartOccupancy))
	if total == 0 {
		return out
	}
	for i, c := range r.StartOccupancy {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// taggedEntry is a FIFO slot carrying the window position it was inserted at
// so its eventual fate can be attributed.
type taggedEntry struct {
	position int // 1-based position within its insertion window
}

// lossScratch is the reusable working storage of one loss-simulation trial.
// Campaign workers keep one per worker index and pass it to consecutive
// chunks, so the FIFO buffer is allocated once per worker instead of once
// per chunk. Only scratch lives here — never anything that reaches the
// returned LossResult.
type lossScratch struct {
	buf []taggedEntry
}

// entries returns a length-n buffer, reusing the previous allocation when it
// is large enough. Stale contents are harmless: the simulation never reads a
// slot before writing it (occ starts at 0).
func (s *lossScratch) entries(n int) []taggedEntry {
	if cap(s.buf) < n {
		s.buf = make([]taggedEntry, n)
	}
	return s.buf[:n]
}

// SimulateLoss streams cfg.Periods windows through an N-entry FIFO tracker
// with probabilistic insertion, FIFO eviction and one FIFO mitigation per
// window, and attributes every eviction/mitigation to the insertion position
// of the affected entry (the paper's Monte-Carlo methodology), on engine
// eng. The event engine's result is statistically (not bit-) equivalent to
// the exact engine's under the same stream; see event.go.
func SimulateLoss(cfg LossConfig, r *rng.Stream, eng engine.Kind) LossResult {
	if eng == engine.Event {
		return simulateLossEvent(cfg, r, &lossScratch{})
	}
	return simulateLoss(cfg, r, &lossScratch{})
}

func simulateLoss(cfg LossConfig, r *rng.Stream, sc *lossScratch) LossResult {
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
	// Per-ACT sampling via the precomputed integer threshold: bit-identical
	// decisions to Bernoulli(cfg.InsertionProb), one raw draw per ACT.
	insertT := rng.NewThreshold(cfg.InsertionProb)
	// Circular FIFO of tagged entries.
	buf := sc.entries(cfg.Entries)
	ptr, occ := 0, 0

	for period := 0; period < cfg.Periods; period++ {
		res.StartOccupancy[occ]++
		for k := 1; k <= cfg.Window; k++ {
			if !r.BernoulliT(insertT) {
				continue
			}
			res.PerPosition[k-1].Insertions++
			if occ == cfg.Entries {
				// FIFO eviction: the oldest entry is lost.
				old := buf[ptr]
				res.PerPosition[old.position-1].Evicted++
				ptr = (ptr + 1) % cfg.Entries
				occ--
			}
			buf[(ptr+occ)%cfg.Entries] = taggedEntry{position: k}
			occ++
		}
		// One mitigation per window: pop the oldest.
		if occ > 0 {
			old := buf[ptr]
			res.PerPosition[old.position-1].Mitigated++
			ptr = (ptr + 1) % cfg.Entries
			occ--
		}
		if cfg.SelfCheck && (occ < 0 || occ > cfg.Entries || ptr < 0 || ptr >= cfg.Entries) {
			guard.Failf("montecarlo", "fifo-bounds", "period %d: occ %d ptr %d outside FIFO of %d", period, occ, ptr, cfg.Entries)
		}
	}
	return res
}

// RoundConfig parameterizes an attack-round failure simulation: an aggressor
// row is activated `TRH` times, spread one per activation slot from the
// worst-case position, while background insertions compete; the round fails
// if the aggressor is never mitigated.
type RoundConfig struct {
	Entries       int
	Window        int
	InsertionProb float64
	// TRH is the round length in aggressor activations.
	TRH int
	// Rounds is the number of independent rounds to simulate.
	Rounds int
	// SelfCheck enables runtime invariant guards; see LossConfig.SelfCheck.
	SelfCheck bool
}

// RoundResult reports measured attack-round outcomes.
type RoundResult struct {
	Rounds   int
	Failures int
}

// FailureProb returns the measured round-failure probability.
func (r RoundResult) FailureProb() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Rounds)
}

// SimulateRounds measures the round-failure probability on engine eng: the
// probability that TRH consecutive aggressor activations never result in a
// mitigation of the aggressor. Every activation slot is an aggressor
// activation (the closed-page worst case), and the aggressor's entry
// competes with nothing else — the pessimistic single-row round of Section
// III-A. The measured probability must not exceed the analytic
// (1-p̂)^(TRH-tardiness) bound.
//
// The exact engine steps every slot of every round. The event engine uses
// the loop's closed form: every insertion in the single-row round tracks
// the aggressor, so the round is mitigated iff the FIRST insertion lands
// strictly before the last window boundary at slot B = (TRH/W)·W (0-based;
// B = 0 when TRH < W means no boundary fires and every round fails). One
// geometric draw decides each round.
func SimulateRounds(cfg RoundConfig, r *rng.Stream, eng engine.Kind) RoundResult {
	if cfg.Entries <= 0 || cfg.Window <= 0 || cfg.TRH <= 0 || cfg.Rounds <= 0 {
		panic(fmt.Sprintf("montecarlo: invalid round config %+v", cfg))
	}
	if cfg.InsertionProb <= 0 || cfg.InsertionProb > 1 {
		panic(fmt.Sprintf("montecarlo: invalid insertion probability %v", cfg.InsertionProb))
	}
	if r == nil {
		panic("montecarlo: nil rng stream")
	}
	res := RoundResult{Rounds: cfg.Rounds}
	if eng == engine.Event {
		sk := rng.NewSkip(rng.NewThreshold(cfg.InsertionProb))
		b := (cfg.TRH / cfg.Window) * cfg.Window
		for round := 0; round < cfg.Rounds; round++ {
			if r.SkipT(sk) >= b {
				res.Failures++
			}
		}
		return res
	}
	const aggressor = 1 // single-row round: every slot activates the aggressor

	insertT := rng.NewThreshold(cfg.InsertionProb)
	buf := make([]slot, cfg.Entries)
	for round := 0; round < cfg.Rounds; round++ {
		ptr, occ := 0, 0
		mitigated := false
		pos := 0
		for act := 0; act < cfg.TRH && !mitigated; act++ {
			if r.BernoulliT(insertT) {
				if occ == cfg.Entries {
					ptr = (ptr + 1) % cfg.Entries
					occ--
				}
				buf[(ptr+occ)%cfg.Entries] = slot{row: aggressor}
				occ++
			}
			pos++
			if pos == cfg.Window {
				pos = 0
				if occ > 0 {
					if buf[ptr].row == aggressor {
						mitigated = true
					}
					ptr = (ptr + 1) % cfg.Entries
					occ--
				}
			}
		}
		if !mitigated {
			res.Failures++
		}
	}
	return res
}

// slot is a FIFO slot of the round simulation.
type slot struct{ row int }
