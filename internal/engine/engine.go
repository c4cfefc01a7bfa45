// Package engine names the two simulation engines every stochastic
// experiment in this repository can run on:
//
//   - Exact steps every activation: one RNG draw, one tracker probe, one
//     bank-counter update per ACT. It is the reference oracle — the direct
//     transcription of the paper's methodology — and the baseline the
//     event engine is validated against.
//   - Event advances the simulation clock directly to the next event (a
//     probabilistic insertion, a tREFI/mitigation boundary, an RFM issue,
//     or a pattern phase change), turning O(ACTs) work into O(events)
//     work. A tracker whose insertion is a pattern-independent Bernoulli
//     draw (PrIDE, PARA) is advanced by geometric inter-arrival sampling;
//     a tracker that schedules its insertion per interval (MINT) is
//     advanced to the scheduled slot; any other tracker, and the open-page
//     policy, is stepped exactly as on the exact engine. For the
//     controller-level experiments (attack, TTF, search) that choice is
//     made in one place, sim.Drive.
//
// The geometric path consumes different numbers of raw RNG draws than the
// exact engine, so its outputs are not bit-identical under one seed (except
// at insertion probability 1); it simulates the same stochastic process,
// and the cross-validation suites hold its loss, disturbance and MTTF
// distributions to agree within stated false-alarm rates. The scheduled and
// stepped paths are bit-identical to the exact engine. Deterministic
// components (bank hammer accounting, REF/RFM cadence) are required to
// agree ACT-for-ACT.
//
// Checkpoint keys embed the engine kind: a campaign checkpointed under one
// engine never resumes under the other.
package engine

import "fmt"

// Kind selects a simulation engine.
type Kind int

const (
	// Exact is the per-ACT reference engine.
	Exact Kind = iota
	// Event is the event-driven geometric skip-ahead engine.
	Event
)

// String returns the flag spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Event:
		return "event"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k names a known engine.
func (k Kind) Valid() bool { return k == Exact || k == Event }

// KeySuffix renders the engine component of a canonical checkpoint key:
// empty for Exact — the historical spelling, so checkpoints written before
// engines existed still resume — and "|engine=event" for Event. Every
// campaign key helper appends it, which is what guarantees a campaign never
// resumes across an engine switch.
func KeySuffix(k Kind) string {
	if k == Exact {
		return ""
	}
	return "|engine=" + k.String()
}

// Parse converts a flag spelling into a Kind.
func Parse(s string) (Kind, error) {
	switch s {
	case "exact":
		return Exact, nil
	case "event":
		return Event, nil
	default:
		return Exact, fmt.Errorf(`engine: unknown engine %q (want "exact" or "event")`, s)
	}
}

// Value adapts a Kind to the flag.Value interface so commands can register
// -engine flags without repeating the parse/print plumbing. The zero Value
// selects Exact; initialize with the desired default (the commands default
// to Event, keeping Exact as the documented reference oracle).
type Value struct {
	Kind Kind
}

// String implements flag.Value.
func (v *Value) String() string {
	if v == nil {
		return Exact.String()
	}
	return v.Kind.String()
}

// Set implements flag.Value.
func (v *Value) Set(s string) error {
	k, err := Parse(s)
	if err != nil {
		return err
	}
	v.Kind = k
	return nil
}
