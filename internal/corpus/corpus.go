// Package corpus defines the committed attack-corpus format and its replay
// verification — the paper's Section VII-F security claim turned into a
// regression suite.
//
// A corpus entry is a pair of files sharing a base name:
//
//	<name>.trace  — the best-found attack pattern, in the patterns trace
//	               format (replayable bit-identically)
//	<name>.json   — a sidecar recording the tracker it was found against,
//	               the exact evaluation seed, the search configuration that
//	               produced it, the disturbance it achieved, and the
//	               tolerance the replay is held to
//
// Replay re-runs the trace against a freshly-constructed tracker under the
// recorded seed. Because the whole simulator is deterministic, today's
// replay reproduces the recorded disturbance exactly; the tolerance exists
// so that legitimate future simulator changes (a timing-model refinement, a
// tracker bug fix) shift numbers without tripping the suite, while real
// security regressions — a tracker change that suddenly lets a committed
// attack through, or cripples one that used to climb — fail loudly.
//
// Entries carry a class:
//
//   - ClassBounded: the replayed disturbance must stay at or below the
//     analytic PrIDE bound TRH*. PrIDE and its RFM co-designs are here by
//     design (pattern-obliviousness); some baselines land here empirically
//     (see their notes).
//   - ClassClimbing: the replayed disturbance must exceed TRH* — the
//     counter-based tracker's worst case is pattern-shaped, and this entry
//     is the proof. Weakening the committed attack (or "improving" the
//     tracker into un-attackability without explanation) breaks the build.
package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pride/internal/analytic"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/sim"
)

// Class partitions corpus entries by the security claim their replay
// asserts against the analytic PrIDE bound.
type Class string

const (
	// ClassBounded entries must replay at or below the analytic TRH*.
	ClassBounded Class = "bounded"
	// ClassClimbing entries must replay above the analytic TRH*.
	ClassClimbing Class = "climbing"
)

// DefaultTolerance is the relative tolerance replays are held to when a
// sidecar does not specify one.
const DefaultTolerance = 0.10

// Sidecar is the JSON metadata committed alongside each trace. Every field
// the replay needs is explicit — a sidecar plus its trace is a complete,
// self-describing experiment.
type Sidecar struct {
	// Scheme names the tracker the attack was found against; it must
	// resolve via sim.SchemeByName.
	Scheme string `json:"scheme"`
	// Class is the security claim the replay asserts.
	Class Class `json:"class"`
	// Seed is the simulation seed the disturbance was measured under.
	Seed uint64 `json:"seed"`
	// ACTs is the trial length in demand activations.
	ACTs int `json:"acts"`
	// RowsPerBank / RowBits override the DDR5 defaults, pinning the
	// address space the trace's rows live in.
	RowsPerBank int `json:"rows_per_bank"`
	RowBits     int `json:"row_bits"`
	// Engine is the evaluation engine ("exact" or "event").
	Engine string `json:"engine"`
	// The island-search configuration that produced the entry, recorded for
	// reproducibility (regenerating with these settings and the campaign
	// seed below rediscovers an equally-strong attack).
	Islands      int    `json:"islands"`
	Population   int    `json:"population"`
	Generations  int    `json:"generations"`
	MigrateEvery int    `json:"migrate_every"`
	MaxPairs     int    `json:"max_pairs"`
	CampaignSeed uint64 `json:"campaign_seed"`
	// ExpectedDisturbance is the max disturbance the search measured;
	// replay must land within Tolerance of it.
	ExpectedDisturbance int `json:"expected_disturbance"`
	// Tolerance is the relative replay tolerance; 0 selects
	// DefaultTolerance.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Note is free-form context (e.g. documented deviations).
	Note string `json:"note,omitempty"`
}

// Validate checks the sidecar for internal consistency, returning an
// actionable error naming the offending field.
func (s Sidecar) Validate() error {
	if _, err := sim.SchemeByName(s.Scheme); err != nil {
		return fmt.Errorf("corpus: sidecar field scheme: %w", err)
	}
	switch s.Class {
	case ClassBounded, ClassClimbing:
	default:
		return fmt.Errorf("corpus: sidecar field class: unknown class %q (want %q or %q)",
			s.Class, ClassBounded, ClassClimbing)
	}
	if s.ACTs < 1 {
		return fmt.Errorf("corpus: sidecar field acts: must be >= 1, got %d", s.ACTs)
	}
	if s.RowsPerBank < 1 {
		return fmt.Errorf("corpus: sidecar field rows_per_bank: must be >= 1, got %d", s.RowsPerBank)
	}
	if s.RowBits < 1 || 1<<s.RowBits < s.RowsPerBank {
		return fmt.Errorf("corpus: sidecar field row_bits: %d bits cannot address %d rows", s.RowBits, s.RowsPerBank)
	}
	if _, err := engine.Parse(s.Engine); err != nil {
		return fmt.Errorf("corpus: sidecar field engine: %w", err)
	}
	if s.ExpectedDisturbance < 1 {
		return fmt.Errorf("corpus: sidecar field expected_disturbance: must be >= 1, got %d", s.ExpectedDisturbance)
	}
	if math.IsNaN(s.Tolerance) || math.IsInf(s.Tolerance, 0) {
		return fmt.Errorf("corpus: sidecar field tolerance: must be a finite fraction, got %v", s.Tolerance)
	}
	if s.Tolerance < 0 || s.Tolerance >= 1 {
		return fmt.Errorf("corpus: sidecar field tolerance: must be in [0, 1), got %v", s.Tolerance)
	}
	return nil
}

// tolerance returns the effective relative tolerance.
func (s Sidecar) tolerance() float64 {
	if s.Tolerance == 0 {
		return DefaultTolerance
	}
	return s.Tolerance
}

// Params returns the DRAM parameter set the entry was measured under: the
// DDR5 defaults with the sidecar's address-space overrides.
func (s Sidecar) Params() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = s.RowsPerBank
	p.RowBits = s.RowBits
	return p
}

// Bound returns the analytic PrIDE bound TRH* for the entry's parameters —
// the line ClassBounded entries must stay under and ClassClimbing entries
// must exceed.
func (s Sidecar) Bound() float64 {
	return analytic.EvaluateScheme(analytic.SchemePrIDE, s.Params(), analytic.DefaultTargetTTFYears).TRHStar
}

// ReadSidecar decodes and validates a sidecar. Unknown fields are rejected:
// a typo in a hand-edited sidecar must fail loudly, not silently change the
// replayed experiment.
func ReadSidecar(data []byte) (Sidecar, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Sidecar
	if err := dec.Decode(&s); err != nil {
		return Sidecar{}, fmt.Errorf("corpus: decoding sidecar: %w", err)
	}
	// A second document in the same file is corruption, not data.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		return Sidecar{}, fmt.Errorf("corpus: decoding sidecar: trailing data after the JSON object")
	}
	if err := s.Validate(); err != nil {
		return Sidecar{}, err
	}
	return s, nil
}

// MarshalSidecar encodes a validated sidecar in the committed format
// (indented, trailing newline — diff-friendly).
func MarshalSidecar(s Sidecar) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Entry is one loaded corpus entry.
type Entry struct {
	// Name is the shared base name of the trace/sidecar pair.
	Name    string
	Sidecar Sidecar
	Pattern *patterns.Pattern
}

// Slug converts a scheme name into a corpus file base name: lower-case,
// with path- and shell-hostile characters mapped to '-'.
func Slug(scheme string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(scheme) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// WriteEntry persists a trace/sidecar pair under dir, using Slug(scheme) as
// the base name, and returns the base name. The sidecar is validated and
// the pattern's rows are checked against the sidecar's address space, so a
// committed entry is replayable by construction.
func WriteEntry(dir string, s Sidecar, p *patterns.Pattern) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	for _, row := range p.Sequence {
		if row < 0 || row >= s.RowsPerBank {
			return "", fmt.Errorf("corpus: pattern accesses row %d outside the sidecar's %d-row bank", row, s.RowsPerBank)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := Slug(s.Scheme)
	var trace bytes.Buffer
	if err := patterns.WriteTrace(&trace, p); err != nil {
		return "", err
	}
	side, err := MarshalSidecar(s)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".trace"), trace.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), side, 0o644); err != nil {
		return "", err
	}
	return name, nil
}

// Load reads every trace/sidecar pair in dir, sorted by name. A sidecar
// without its trace (or vice versa) is an error — a half-committed entry
// must not silently shrink the regression suite.
func Load(dir string) ([]Entry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: reading %s: %w", dir, err)
	}
	traces := map[string]bool{}
	var names []string
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		switch filepath.Ext(de.Name()) {
		case ".trace":
			traces[strings.TrimSuffix(de.Name(), ".trace")] = true
		case ".json":
			names = append(names, strings.TrimSuffix(de.Name(), ".json"))
		}
	}
	sort.Strings(names)
	var entries []Entry
	for _, name := range names {
		if !traces[name] {
			return nil, fmt.Errorf("corpus: %s/%s.json has no matching %s.trace", dir, name, name)
		}
		delete(traces, name)
		e, err := loadEntry(dir, name)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	for name := range traces {
		return nil, fmt.Errorf("corpus: %s/%s.trace has no matching %s.json", dir, name, name)
	}
	return entries, nil
}

func loadEntry(dir, name string) (Entry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		return Entry{}, err
	}
	side, err := ReadSidecar(raw)
	if err != nil {
		return Entry{}, fmt.Errorf("%s/%s.json: %w", dir, name, err)
	}
	tf, err := os.Open(filepath.Join(dir, name+".trace"))
	if err != nil {
		return Entry{}, err
	}
	defer tf.Close()
	pat, err := patterns.ReadTrace(tf)
	if err != nil {
		return Entry{}, fmt.Errorf("%s/%s.trace: %w", dir, name, err)
	}
	return Entry{Name: name, Sidecar: side, Pattern: pat}, nil
}

// Replay re-runs the entry's trace against a fresh instance of its tracker
// under the recorded seed and engine, returning the measured max
// disturbance.
func (e Entry) Replay() (int, error) {
	scheme, err := sim.SchemeByName(e.Sidecar.Scheme)
	if err != nil {
		return 0, err
	}
	eng, err := engine.Parse(e.Sidecar.Engine)
	if err != nil {
		return 0, err
	}
	cfg := sim.AttackConfig{Params: e.Sidecar.Params(), ACTs: e.Sidecar.ACTs}
	res := sim.RunAttack(cfg, scheme, e.Pattern, e.Sidecar.Seed, eng)
	return res.MaxDisturbance, nil
}

// Verify replays the entry and asserts the committed security claim: the
// measured disturbance is within tolerance of the recorded one, and on the
// recorded side of the analytic bound. It returns the measured disturbance
// so callers can make cross-entry assertions (climbing > PrIDE's measured).
func (e Entry) Verify() (int, error) {
	measured, err := e.Replay()
	if err != nil {
		return 0, err
	}
	s := e.Sidecar
	tol := s.tolerance()
	if diff := math.Abs(float64(measured - s.ExpectedDisturbance)); diff > tol*float64(s.ExpectedDisturbance) {
		allowed := tol * float64(s.ExpectedDisturbance)
		return measured, fmt.Errorf("corpus: %s: replayed disturbance %d deviates from committed %d by %.0f (%.1f%%), beyond the allowed ±%.0f (%.0f%%) — the simulator or the %s tracker changed behaviour; investigate before regenerating the corpus",
			e.Name, measured, s.ExpectedDisturbance, diff,
			100*diff/float64(s.ExpectedDisturbance), allowed, tol*100, s.Scheme)
	}
	bound := s.Bound()
	switch s.Class {
	case ClassBounded:
		if float64(measured) > bound {
			return measured, fmt.Errorf("corpus: %s: replayed disturbance %d exceeds the analytic bound %.1f — the committed attack now breaks %s",
				e.Name, measured, bound, s.Scheme)
		}
	case ClassClimbing:
		if float64(measured) <= bound {
			return measured, fmt.Errorf("corpus: %s: replayed disturbance %d no longer exceeds the analytic bound %.1f — the committed attack against %s has been neutralised; if the tracker change is intentional, regenerate the corpus and explain in the entry note",
				e.Name, measured, bound, s.Scheme)
		}
	}
	return measured, nil
}
