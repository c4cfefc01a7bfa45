// Package campaign states the run contract every seeded campaign in this
// repository keeps — the Monte-Carlo loss, attack-suite, suite-loss and
// time-to-fail campaigns, the island search and the trace replay — once:
// the options a campaign runs under, the progress sink it reports to, and
// the guarded event→exact trial every stochastic campaign runs.
//
// Of the options only Engine changes a result, so every campaign's key
// function takes the engine. Workers, the checkpoint, the observer and
// sink, retries and faults change how fast a result arrives and what is
// reported about it, never the result.
package campaign

import (
	"pride/internal/engine"
	"pride/internal/guard"
	"pride/internal/trialrunner"
)

// Options configures a cancellable, checkpointable, observable campaign.
// The zero value runs on trialrunner.DefaultWorkers() workers on the exact
// engine, with no checkpoint, metering, retry or fault injection.
type Options struct {
	// Workers is the pool size; 0 selects trialrunner.DefaultWorkers().
	// Workers never affects the result, only how fast it arrives.
	Workers int
	// Checkpoint enables durable resume when its Path is set. An empty Key
	// is filled with the campaign's canonical key (configuration, seed and
	// engine, never the worker count), so a resume is safe across worker
	// counts but rejected across configuration or engine changes.
	Checkpoint trialrunner.Checkpoint
	// Progress, when non-nil, receives counter updates as trials complete.
	Progress Sink
	// Observer, when non-nil, receives per-trial lifecycle callbacks
	// (internal/obs.Campaign implements both roles).
	Observer trialrunner.Observer
	// Engine selects the simulation engine: engine.Exact (the zero value)
	// steps every activation; engine.Event skips ahead between insertions.
	// The two are statistically — not bit-for-bit — equivalent, so every
	// canonical checkpoint key embeds the engine. A campaign with no
	// stochastic engine (trace replay) rejects engine.Event.
	Engine engine.Kind
	// SelfCheck enables runtime invariant guards in the simulation; it is
	// ORed into the campaign configuration's own flag where there is one.
	// An event-engine trial whose guard trips is re-run on the exact engine
	// (counted via AddEngineFallbacks on Progress) instead of aborting the
	// campaign.
	SelfCheck bool
	// Retry bounds re-execution of panicked or errored trials; see
	// trialrunner.RetryPolicy. Zero keeps single-attempt semantics.
	Retry trialrunner.RetryPolicy
	// Faults, when non-nil, injects deterministic faults into trial
	// execution, checkpoint I/O and engine self-checks (chaos testing;
	// faultinject.Injector implements it). Production runs leave it nil.
	Faults trialrunner.TrialFaults
}

// Runner returns the trial-pool options of o.
func (o Options) Runner() trialrunner.Options {
	return trialrunner.Options{Workers: o.Workers, Observer: o.Observer, Retry: o.Retry, Faults: o.Faults}
}

// Sink receives coarse progress counters from a running campaign, one
// update per completed trial. internal/obs.Campaign satisfies it; a sink is
// observation-only and cannot perturb the bit-for-bit determinism
// guarantees. A campaign reports the counters it has and leaves the others
// untouched. Further counters are optional capabilities a sink may add,
// discovered by type assertion: AddEngineFallbacks here, AddRecords and
// AddBytes in the trace replay.
type Sink interface {
	// AddPeriods records n freshly-simulated tREFI windows.
	AddPeriods(n int64)
	// AddActivations records n freshly-simulated demand activations.
	AddActivations(n int64)
	// AddMitigations records n mitigations issued.
	AddMitigations(n int64)
}

// fallbackSink is the optional Sink capability for counting event→exact
// engine fallbacks (internal/obs.Campaign implements it).
type fallbackSink interface{ AddEngineFallbacks(n int64) }

// engineTripper is the optional Faults capability that forces an invariant
// trip for a given trial index (faultinject.Injector implements it).
type engineTripper interface{ EngineTrip(trial uint64) bool }

// Trial runs trial i on the engine o selects. On the exact engine it
// returns exact(). On the event engine it runs event() under guard.Run,
// first tripping the guard when o.Faults forces an engine trip on trial i;
// a tripped guard is counted on o.Progress and the trial re-runs as
// exact(), so a campaign degrades to the reference engine instead of
// aborting. site names the guard component of a forced trip. Both
// functions must build the trial from scratch (a fresh stream derived from
// the trial index, a reset bank), so a fallback result is the exact
// engine's result for that trial.
func Trial[R any](o Options, site string, i int, exact, event func() R) R {
	if o.Engine != engine.Event {
		return exact()
	}
	et, ok := o.Faults.(engineTripper)
	forced := ok && et.EngineTrip(uint64(i))
	r, v := guard.Run(func() R {
		if forced {
			guard.Failf(site, "forced-trip", "injected engine trip (trial %d)", i)
		}
		return event()
	})
	if v == nil {
		return r
	}
	if fs, ok := o.Progress.(fallbackSink); ok {
		fs.AddEngineFallbacks(1)
	}
	return exact()
}
