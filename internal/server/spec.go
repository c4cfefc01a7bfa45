package server

import (
	"bufio"
	"context"
	"fmt"
	"os"

	"pride/internal/addrmap"
	"pride/internal/campaign"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/patterns"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/trialrunner"
	"pride/internal/workload"
)

// Spec is the wire form of one campaign submission: which experiment to run
// and its configuration. Exactly one of the kind-specific sub-specs must be
// set, matching Kind. Fields that cannot change a result (Workers,
// TrialRetries, TrialDeadline) are execution hints and are excluded from the
// job's cache key.
type Spec struct {
	// Kind selects the campaign: "security", "attack", "ttfsim" or
	// "replay" — the same four experiments the CLIs run.
	Kind string `json:"kind"`
	// Seed is the campaign base seed; every trial derives its own stream
	// from it.
	Seed uint64 `json:"seed"`
	// Engine selects the simulation engine for the stochastic kinds:
	// "event" (default) or "exact". Replay is inherently exact and
	// rejects the field.
	Engine string `json:"engine,omitempty"`
	// SelfCheck enables runtime invariant guards. Not part of the cache
	// key (guards never change results, only confidence).
	SelfCheck bool `json:"selfcheck,omitempty"`
	// Workers overrides the per-campaign worker-pool size (0 selects the
	// server default). Never part of the cache key.
	Workers int `json:"workers,omitempty"`
	// TrialRetries retries a panicked/errored trial this many times before
	// quarantining it. Never part of the cache key.
	TrialRetries int `json:"trial_retries,omitempty"`

	Security *SecuritySpec `json:"security,omitempty"`
	Attack   *AttackSpec   `json:"attack,omitempty"`
	TTF      *TTFSpec      `json:"ttfsim,omitempty"`
	Replay   *ReplaySpec   `json:"replay,omitempty"`
}

// SecuritySpec runs a montecarlo insertion-loss campaign (the paper's Fig 8
// methodology: a size-1 FIFO sampled at p = 1/W unless overridden).
type SecuritySpec struct {
	// Entries is the tracker size N (default 1).
	Entries int `json:"entries,omitempty"`
	// Window is W, activations per mitigation window (default the DDR5
	// ACTs-per-tREFI).
	Window int `json:"window,omitempty"`
	// InsertionProb is the sampling probability (default 1/Window).
	InsertionProb float64 `json:"insertion_prob,omitempty"`
	// Periods is the number of tREFI windows to simulate.
	Periods int `json:"periods"`
}

// AttackSpec runs a worst-pattern disturbance campaign over a generated
// Fig 15 pattern suite.
type AttackSpec struct {
	// Scheme names the mitigation under attack (sim.SchemeByName).
	Scheme string `json:"scheme"`
	// ACTs is the trial length in demand activations.
	ACTs int `json:"acts"`
	// TRH, when positive, enables bit-flip detection at that threshold.
	TRH int `json:"trh,omitempty"`
	// Patterns is the suite size (default 16).
	Patterns int `json:"patterns,omitempty"`
	// Seeds is the number of seeds per pattern (default 4).
	Seeds int `json:"seeds,omitempty"`
}

// TTFSpec runs a multi-bank mean-time-to-failure campaign.
type TTFSpec struct {
	// Scheme names the mitigation (sim.SchemeByName).
	Scheme string `json:"scheme"`
	// Banks is the number of concurrently attacked banks.
	Banks int `json:"banks"`
	// TRH is the device Rowhammer threshold under test.
	TRH int `json:"trh"`
	// MaxTREFI bounds the simulation horizon in refresh intervals.
	MaxTREFI int `json:"max_trefi"`
	// Trials is the campaign trial count.
	Trials int `json:"trials"`
}

// ReplaySpec runs a server-scale sharded trace replay, fed either by a
// workload generator (deterministic in the spec) or a binary trace file on
// the server's filesystem.
type ReplaySpec struct {
	// Workload names a generator spec (workload.All); mutually exclusive
	// with TracePath.
	Workload string `json:"workload,omitempty"`
	// Mapping is the address-mapping string for generated workloads, in the
	// addrmap.Mapping.String form addrmap.ParseMapping accepts, e.g.
	// "col=6 bank=3 row=13 rank=1 chan=2 xor=1".
	Mapping string `json:"mapping,omitempty"`
	// ACTs is the generated record count (generator mode only).
	ACTs int `json:"acts,omitempty"`
	// TracePath is a binary ACT trace on the server host; mutually
	// exclusive with Workload.
	TracePath string `json:"trace_path,omitempty"`
	// Scheme names the mitigation every bank runs.
	Scheme string `json:"scheme"`
	// TRH is the device Rowhammer threshold under test.
	TRH int `json:"trh"`
}

// prepared is a validated, runnable form of a Spec: the key the job is
// filed under, the engine the campaign runs on, and a run function
// producing the JSON-encodable result and the campaign's checkpoint key
// (the exact key the equivalent CLI run would use). The two keys are the
// same except for a generated replay job, which is filed under its spec
// and learns its campaign key only by running. run receives the campaign
// options of one attempt, which never change a result.
type prepared struct {
	key    string
	engine engine.Kind
	run    func(ctx context.Context, o campaign.Options) (res any, campaignKey string, err error)
}

// engineKind resolves the spec's engine string.
func (s Spec) engineKind() (engine.Kind, error) {
	switch s.Engine {
	case "", "event":
		return engine.Event, nil
	case "exact":
		return engine.Exact, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want \"event\" or \"exact\")", s.Engine)
	}
}

// trialRetry maps the spec's execution hints to the campaigns' trial-level
// retry policy.
func (s Spec) trialRetry() trialrunner.RetryPolicy {
	p := trialrunner.RetryPolicy{}
	if s.TrialRetries > 0 {
		p.Attempts = s.TrialRetries + 1
	}
	return p
}

// prepare validates the spec into the existing config structs and returns
// its runnable form. All validation errors are client errors (the spec is
// wrong), never server state.
func (s Spec) prepare() (prepared, error) {
	set := 0
	for _, sub := range []bool{s.Security != nil, s.Attack != nil, s.TTF != nil, s.Replay != nil} {
		if sub {
			set++
		}
	}
	if set != 1 {
		return prepared{}, fmt.Errorf("exactly one of security/attack/ttfsim/replay must be set, got %d", set)
	}
	switch s.Kind {
	case "security":
		if s.Security == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareSecurity()
	case "attack":
		if s.Attack == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareAttack()
	case "ttfsim":
		if s.TTF == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareTTF()
	case "replay":
		if s.Replay == nil {
			return prepared{}, fmt.Errorf("kind %q requires the %q sub-spec", s.Kind, s.Kind)
		}
		return s.prepareReplay()
	default:
		return prepared{}, fmt.Errorf("unknown kind %q (want security, attack, ttfsim or replay)", s.Kind)
	}
}

// SecurityResult is the stored result of a security job.
type SecurityResult struct {
	WorstLoss float64               `json:"worst_loss"`
	Detail    montecarlo.LossResult `json:"detail"`
}

func (s Spec) prepareSecurity() (prepared, error) {
	sub := *s.Security
	p := dram.DDR5()
	if sub.Window == 0 {
		sub.Window = p.ACTsPerTREFI()
	}
	if sub.Entries == 0 {
		sub.Entries = 1
	}
	if sub.InsertionProb == 0 {
		sub.InsertionProb = 1 / float64(sub.Window)
	}
	cfg := montecarlo.LossConfig{
		Entries:       sub.Entries,
		Window:        sub.Window,
		InsertionProb: sub.InsertionProb,
		Periods:       sub.Periods,
	}
	if err := cfg.Validate(); err != nil {
		return prepared{}, err
	}
	eng, err := s.engineKind()
	if err != nil {
		return prepared{}, err
	}
	seed := s.Seed
	key := montecarlo.LossCampaignKey(cfg, seed, eng)
	return prepared{
		key:    key,
		engine: eng,
		run: func(ctx context.Context, o campaign.Options) (any, string, error) {
			res, err := montecarlo.SimulateLossCampaign(ctx, cfg, seed, o)
			if err != nil {
				return nil, "", err
			}
			return SecurityResult{WorstLoss: res.WorstLoss(), Detail: res}, key, nil
		},
	}, nil
}

func (s Spec) prepareAttack() (prepared, error) {
	sub := *s.Attack
	scheme, err := sim.SchemeByName(sub.Scheme)
	if err != nil {
		return prepared{}, err
	}
	if sub.Patterns == 0 {
		sub.Patterns = 16
	}
	if sub.Seeds == 0 {
		sub.Seeds = 4
	}
	if sub.Patterns < 1 || sub.Seeds < 1 {
		return prepared{}, fmt.Errorf("attack: patterns and seeds must be >= 1, got %d and %d", sub.Patterns, sub.Seeds)
	}
	cfg := sim.AttackConfig{Params: sim.AttackParams(), ACTs: sub.ACTs, TRH: sub.TRH}
	if err := cfg.Validate(); err != nil {
		return prepared{}, err
	}
	eng, err := s.engineKind()
	if err != nil {
		return prepared{}, err
	}
	seed := s.Seed
	nPat := sub.Patterns
	seeds := sub.Seeds
	key := sim.AttackCampaignKey(cfg, scheme, nPat, seeds, seed, eng)
	return prepared{
		key:    key,
		engine: eng,
		run: func(ctx context.Context, o campaign.Options) (any, string, error) {
			suite := patterns.Fig15Suite(cfg.Params.RowsPerBank, nPat, seed)
			res, err := sim.MaxDisturbanceOverSuiteCampaign(ctx, cfg, scheme, suite, seeds, seed, o)
			if err != nil {
				return nil, "", err
			}
			return res, key, nil
		},
	}, nil
}

// TTFResult is the stored result of a ttfsim job.
type TTFResult struct {
	MeanSeconds float64 `json:"mean_seconds"`
	Failed      int     `json:"failed"`
	Trials      int     `json:"trials"`
}

func (s Spec) prepareTTF() (prepared, error) {
	sub := *s.TTF
	scheme, err := sim.SchemeByName(sub.Scheme)
	if err != nil {
		return prepared{}, err
	}
	if sub.Trials < 1 {
		return prepared{}, fmt.Errorf("ttfsim: trials must be >= 1, got %d", sub.Trials)
	}
	cfg := system.Config{
		Params:   system.TTFParams(),
		Banks:    sub.Banks,
		TRH:      sub.TRH,
		MaxTREFI: sub.MaxTREFI,
	}
	if err := cfg.Validate(); err != nil {
		return prepared{}, err
	}
	eng, err := s.engineKind()
	if err != nil {
		return prepared{}, err
	}
	seed := s.Seed
	trials := sub.Trials
	key := system.MTTFCampaignKey(cfg, scheme, trials, seed, eng)
	return prepared{
		key:    key,
		engine: eng,
		run: func(ctx context.Context, o campaign.Options) (any, string, error) {
			mean, failed, err := system.MeasureMTTFCampaign(ctx, cfg, scheme, trials, seed, o)
			if err != nil {
				return nil, "", err
			}
			return TTFResult{MeanSeconds: mean, Failed: failed, Trials: trials}, key, nil
		},
	}, nil
}

// ReplayResult is the stored result of a replay job: the deterministic
// per-channel aggregate plus the stream fingerprint — exactly what
// pride-replay prints.
type ReplayResult struct {
	Records    uint64                  `json:"records"`
	CRC32      string                  `json:"crc32"`
	TotalFlips int                     `json:"total_flips"`
	PerChannel []system.ChannelSummary `json:"per_channel"`
}

// MaxReplayRecords bounds the records of one replay job. Demux queues each
// run of identical consecutive records as one 4-byte entry, so the bound
// caps a job's queues at 1 GiB, reached when no record repeats the last. A
// submission over it is rejected before anything is generated or read: a
// generated job's count is its acts, a trace file's the count its header
// declares.
const MaxReplayRecords = 1 << 28

// admitRecords rejects a replay of more than MaxReplayRecords records.
func admitRecords(records uint64) error {
	if records > MaxReplayRecords {
		return fmt.Errorf("replay: %d records exceed the limit of %d records per job", records, MaxReplayRecords)
	}
	return nil
}

// generatedReplayKey files a generated replay job by its spec. A generated
// stream is a pure function of the workload, mapping, record count and seed
// at one workload.StreamVersion, so these stand in for the stream's
// fingerprint, next to everything else the topology's results depend on.
func generatedReplayKey(cfg system.TopologyConfig, name string, records int) string {
	return fmt.Sprintf("server.replay-spec|workload=%s|stream=%d|scheme=%s|params=%+v|mapping=%s|trh=%d|rfm=%v|scramble=%d|seed=%d|records=%d",
		name, workload.StreamVersion, cfg.Scheme.Name, cfg.Params, cfg.Mapping.String(), cfg.TRH, cfg.RFMBudgets,
		cfg.ScrambleSeed, cfg.Seed, records)
}

func (s Spec) prepareReplay() (prepared, error) {
	sub := *s.Replay
	if s.Engine != "" {
		return prepared{}, fmt.Errorf("replay: the engine field is rejected (replay is inherently exact)")
	}
	if (sub.Workload == "") == (sub.TracePath == "") {
		return prepared{}, fmt.Errorf("replay: exactly one of workload and trace_path must be set")
	}
	scheme, err := sim.SchemeByName(sub.Scheme)
	if err != nil {
		return prepared{}, err
	}
	tcfg := system.TopologyConfig{
		Params: dram.DDR5(),
		Scheme: scheme,
		TRH:    sub.TRH,
		Seed:   s.Seed,
	}

	// open opens a fresh record stream; replay consumes its source, so every
	// run attempt needs its own. key files the job, and expect is the
	// campaign key the run must derive ("" when only the run can tell).
	var (
		open        func() (trace.Source, func(), error)
		key, expect string
	)
	if sub.TracePath != "" {
		// The file can change between submit and run, so it is keyed by
		// its fingerprint and the run is checked against it. The header is
		// the single source of geometric truth, and its count is admitted
		// before any record is read.
		path := sub.TracePath
		open = func() (trace.Source, func(), error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			tr, err := trace.NewReader(bufio.NewReaderSize(f, 1<<16))
			if err == nil {
				err = admitRecords(tr.Count())
			}
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("%s: %v", path, err)
			}
			return tr, func() { f.Close() }, nil
		}
		src, closeSrc, err := open()
		if err != nil {
			return prepared{}, err
		}
		tcfg.Mapping = src.Mapping()
		if err := tcfg.Validate(); err != nil {
			closeSrc()
			return prepared{}, err
		}
		records, crc, err := system.ReplayFingerprint(src)
		closeSrc()
		if err != nil {
			return prepared{}, err
		}
		key = system.ReplayCampaignKey(tcfg, records, crc)
		expect = key
	} else {
		var wspec workload.Spec
		found := false
		for _, w := range workload.All() {
			if w.Name == sub.Workload {
				wspec, found = w, true
				break
			}
		}
		if !found {
			return prepared{}, fmt.Errorf("replay: unknown workload %q", sub.Workload)
		}
		if sub.ACTs < 1 {
			return prepared{}, fmt.Errorf("replay: acts must be >= 1 for a generated workload, got %d", sub.ACTs)
		}
		if err := admitRecords(uint64(sub.ACTs)); err != nil {
			return prepared{}, err
		}
		m, err := addrmap.ParseMapping(sub.Mapping)
		if err != nil {
			return prepared{}, fmt.Errorf("replay: mapping: %v", err)
		}
		tcfg.Mapping = m
		if err := tcfg.Validate(); err != nil {
			return prepared{}, err
		}
		acts, wseed := sub.ACTs, s.Seed
		open = func() (trace.Source, func(), error) {
			return workload.NewAddrSource(wspec, m, acts, wseed), func() {}, nil
		}
		key = generatedReplayKey(tcfg, wspec.Name, acts)
	}

	return prepared{
		key:    key,
		engine: engine.Exact,
		run: func(ctx context.Context, o campaign.Options) (any, string, error) {
			topo, err := system.NewTopology(tcfg)
			if err != nil {
				return nil, "", err
			}
			src, closeSrc, err := open()
			if err != nil {
				return nil, "", err
			}
			defer closeSrc()
			o.Checkpoint.Key = expect
			res, err := topo.ReplayCampaign(ctx, faultedSource(src, o.Faults), o)
			if err != nil {
				return nil, "", err
			}
			return ReplayResult{
				Records:    res.Records,
				CRC32:      fmt.Sprintf("%08x", res.CRC32),
				TotalFlips: res.TotalFlips(),
				PerChannel: res.PerChannel(),
			}, system.ReplayCampaignKey(tcfg, res.Records, res.CRC32), nil
		},
	}, nil
}

// traceFaults is the optional Faults capability of the trace.read fault
// site (faultinject.Injector implements it).
type traceFaults interface{ TraceReadFault() error }

// faultSource wraps a replay source with the trace.read fault site: a chaos
// schedule can fail a read mid-demux and watch the job-level retry absorb
// it.
type faultSource struct {
	trace.Source
	in traceFaults
}

func (f faultSource) ReadBatch(dst []uint64) (int, error) {
	if err := f.in.TraceReadFault(); err != nil {
		return 0, err
	}
	return f.Source.ReadBatch(dst)
}

// faultedSource wraps src when the campaign has faults with a trace.read
// site (a faultinject.Injector); otherwise it returns src untouched.
func faultedSource(src trace.Source, faults trialrunner.TrialFaults) trace.Source {
	in, ok := faults.(traceFaults)
	if !ok {
		return src
	}
	return faultSource{Source: src, in: in}
}
