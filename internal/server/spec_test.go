package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/workload"
)

// generatedSource is the record stream a generated replay spec of the named
// workload, mapping, acts and seed runs.
func generatedSource(t testing.TB, name, mapping string, acts int, seed uint64) trace.Source {
	t.Helper()
	m, err := addrmap.ParseMapping(mapping)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.All() {
		if w.Name == name {
			return workload.NewAddrSource(w, m, acts, seed)
		}
	}
	t.Fatalf("unknown workload %q", name)
	return nil
}

// writeTraceFile writes a generated stream to path as a binary trace.
func writeTraceFile(t testing.TB, path, name, mapping string, acts int, seed uint64) {
	t.Helper()
	src := generatedSource(t, name, mapping, acts, seed)
	addrs, err := trace.Drain(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, src.Mapping(), addrs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
}

// directReplay runs src straight through system.ReplayCampaign, the CLI
// path, on the topology prepareReplay builds for a PrIDE, TRH 500 replay
// spec at seed. It returns the campaign key and the compact JSON result a
// job of that spec must report.
func directReplay(t *testing.T, src trace.Source, seed uint64) (string, []byte) {
	t.Helper()
	scheme, err := sim.SchemeByName("PrIDE")
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.TopologyConfig{Params: dram.DDR5(), Mapping: src.Mapping(), Scheme: scheme, TRH: 500, Seed: seed}
	topo, err := system.NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.ReplayCampaign(context.Background(), src, system.ReplayOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ReplayResult{
		Records:    res.Records,
		CRC32:      fmt.Sprintf("%08x", res.CRC32),
		TotalFlips: res.TotalFlips(),
		PerChannel: res.PerChannel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return system.ReplayCampaignKey(cfg, res.Records, res.CRC32), raw
}

// compactJSON strips the indentation the HTTP layer adds to a result.
func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSpecPrepareValidation(t *testing.T) {
	// A trace whose header declares one record over the limit: admission
	// must reject it from the header, before reading a record.
	huge := filepath.Join(t.TempDir(), "huge.trace")
	writeTraceFile(t, huge, "lbm", "col=6 bank=2 row=10 rank=0 chan=1 xor=0", 10, 1)
	data, err := os.ReadFile(huge)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[24:32], MaxReplayRecords+1)
	if err := os.WriteFile(huge, data, 0o666); err != nil {
		t.Fatal(err)
	}
	limit := fmt.Sprintf("limit of %d records", MaxReplayRecords)

	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"no sub-spec", Spec{Kind: "security"}, "exactly one"},
		{"two sub-specs", Spec{Kind: "security", Security: &SecuritySpec{Periods: 1}, TTF: &TTFSpec{}}, "exactly one"},
		{"kind/sub-spec mismatch", Spec{Kind: "security", TTF: &TTFSpec{}}, `kind "security" requires`},
		{"unknown kind", Spec{Kind: "nope", Security: &SecuritySpec{Periods: 1}}, "unknown kind"},
		{"unknown engine", Spec{Kind: "security", Engine: "warp", Security: &SecuritySpec{Periods: 1}}, "unknown engine"},
		{"bad periods", Spec{Kind: "security", Security: &SecuritySpec{Periods: -1}}, "Periods"},
		{"unknown scheme", Spec{Kind: "ttfsim", TTF: &TTFSpec{Scheme: "nope", Banks: 1, TRH: 100, MaxTREFI: 10, Trials: 1}}, "unknown scheme"},
		{"bad trials", Spec{Kind: "ttfsim", TTF: &TTFSpec{Scheme: "PrIDE", Banks: 1, TRH: 100, MaxTREFI: 10, Trials: 0}}, "trials"},
		{"bad acts", Spec{Kind: "attack", Attack: &AttackSpec{Scheme: "PrIDE", ACTs: 0}}, "ACTs"},
		{"replay both sources", Spec{Kind: "replay", Replay: &ReplaySpec{Workload: "lbm", TracePath: "/t", Scheme: "PrIDE", TRH: 500}}, "exactly one of workload"},
		{"replay neither source", Spec{Kind: "replay", Replay: &ReplaySpec{Scheme: "PrIDE", TRH: 500}}, "exactly one of workload"},
		{"replay engine rejected", Spec{Kind: "replay", Engine: "exact", Replay: &ReplaySpec{Workload: "lbm", ACTs: 10, Mapping: "col=6 bank=2 row=10 rank=0 chan=0 xor=0", Scheme: "PrIDE", TRH: 500}}, "inherently exact"},
		{"replay unknown workload", Spec{Kind: "replay", Replay: &ReplaySpec{Workload: "quake", ACTs: 10, Mapping: "col=6 bank=2 row=10 rank=0 chan=0 xor=0", Scheme: "PrIDE", TRH: 500}}, "unknown workload"},
		{"replay acts over the limit", Spec{Kind: "replay", Replay: &ReplaySpec{Workload: "lbm", ACTs: MaxReplayRecords + 1, Mapping: "col=6 bank=2 row=10 rank=0 chan=0 xor=0", Scheme: "PrIDE", TRH: 500}}, limit},
		{"replay trace over the limit", Spec{Kind: "replay", Replay: &ReplaySpec{TracePath: huge, Scheme: "PrIDE", TRH: 500}}, limit},
	}
	for _, tc := range cases {
		_, err := tc.spec.prepare()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestSecurityKeyMatchesCLIKey(t *testing.T) {
	// The server's cache key must be the exact checkpoint key the
	// equivalent CLI run derives — that identity is what makes a CLI
	// checkpoint and a server cache entry interchangeable descriptions of
	// the same computation.
	spec := Spec{Kind: "security", Seed: 42, Security: &SecuritySpec{Entries: 2, Window: 16, Periods: 1000}}
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	cfg := montecarlo.LossConfig{Entries: 2, Window: 16, InsertionProb: 1.0 / 16, Periods: 1000}
	if want := montecarlo.LossCampaignKey(cfg, 42, engine.Event); p.key != want {
		t.Fatalf("key = %q, want %q", p.key, want)
	}
}

func TestReplayKeyMatchesCampaignKey(t *testing.T) {
	// A generated replay job is filed under its spec and learns its
	// campaign key only by running. The key its done job reports, and the
	// key a later cache hit reports, in this daemon life and the next, must
	// be the key a direct ReplayCampaign over the same generated records
	// derives, so a CLI checkpoint and a server result describe the same
	// computation.
	const spec = `{"kind":"replay","seed":11,"replay":{"workload":"mcf","mapping":"col=6 bank=3 row=13 rank=1 chan=2 xor=1","acts":30000,"scheme":"PrIDE","trh":500}}`
	want, wantResult := directReplay(t, generatedSource(t, "mcf", "col=6 bank=3 row=13 rank=1 chan=2 xor=1", 30000, 11), 11)

	dataDir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dataDir})
	code, j, body := postSpec(t, ts, spec, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s), want 202", code, body)
	}
	done := waitState(t, ts, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if done.Key != want {
		t.Fatalf("done job key = %q, want %q", done.Key, want)
	}
	if got := compactJSON(t, done.Result); !bytes.Equal(got, wantResult) {
		t.Fatalf("result differs from the direct campaign:\n  server: %s\n  direct: %s", got, wantResult)
	}
	code, hit, _ := postSpec(t, ts, spec, nil)
	if code != http.StatusOK || !hit.Cached || hit.Key != want {
		t.Fatalf("repeat = %d cached=%v key=%q, want 200, a cache hit and key %q", code, hit.Cached, hit.Key, want)
	}

	_, ts2 := testServer(t, Config{DataDir: dataDir})
	if _, got := getJob(t, ts2, j.ID); got.State != StateDone || got.Key != want {
		t.Fatalf("next life's status = %s key=%q, want done with key %q", got.State, got.Key, want)
	}
	code, hit, _ = postSpec(t, ts2, spec, nil)
	if code != http.StatusOK || !hit.Cached || hit.Key != want {
		t.Fatalf("next life's repeat = %d cached=%v key=%q, want 200, a cache hit and key %q", code, hit.Cached, hit.Key, want)
	}
}

func TestSpecKeyIgnoresExecutionHints(t *testing.T) {
	base := Spec{Kind: "security", Seed: 1, Security: &SecuritySpec{Periods: 100}}
	p1, err := base.prepare()
	if err != nil {
		t.Fatal(err)
	}
	hinted := base
	hinted.Workers = 7
	hinted.TrialRetries = 3
	p2, err := hinted.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("execution hints changed the cache key:\n  %q\n  %q", p1.key, p2.key)
	}
	if jobID(p1.key) != jobID(p2.key) {
		t.Fatal("job IDs differ for equal keys")
	}
}

func TestReplayKeyStableAcrossPrepares(t *testing.T) {
	spec := Spec{Kind: "replay", Seed: 9, Replay: &ReplaySpec{
		Workload: "lbm", Mapping: "col=6 bank=2 row=10 rank=0 chan=1 xor=0",
		ACTs: 5000, Scheme: "PrIDE", TRH: 500,
	}}
	p1, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("replay key not stable:\n  %q\n  %q", p1.key, p2.key)
	}
	if !strings.Contains(p1.key, "records=5000") {
		t.Fatalf("replay key %q does not pin the record count", p1.key)
	}
}

// TestReplaySpecDocMappingValidates pins the ReplaySpec.Mapping doc
// comment's example: a client copying it gets a valid spec.
func TestReplaySpecDocMappingValidates(t *testing.T) {
	spec := Spec{Kind: "replay", Seed: 1, Replay: &ReplaySpec{
		Workload: "lbm", Mapping: "col=6 bank=3 row=13 rank=1 chan=2 xor=1",
		ACTs: 1000, Scheme: "PrIDE", TRH: 500,
	}}
	if _, err := spec.prepare(); err != nil {
		t.Fatalf("the documented mapping example is rejected: %v", err)
	}
}

func TestJobIDAndSeedAreDeterministic(t *testing.T) {
	if jobID("k") != jobID("k") || jobSeed("k") != jobSeed("k") {
		t.Fatal("jobID/jobSeed not deterministic")
	}
	if jobID("a") == jobID("b") {
		t.Fatal("distinct keys collided")
	}
	if len(jobID("x")) != 16 {
		t.Fatalf("jobID length = %d, want 16", len(jobID("x")))
	}
}
